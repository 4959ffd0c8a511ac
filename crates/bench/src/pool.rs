//! A minimal work-stealing thread pool.
//!
//! The build environment has no registry access (see the vendored
//! `rand`/`proptest` stand-ins), so this is a small hand-rolled pool
//! rather than `rayon`: each worker owns a deque seeded round-robin with
//! job indices, pops from its own front, and steals from the *back* of a
//! sibling's deque when empty. Jobs are pure index-addressed closures and
//! results are returned **in index order** regardless of which worker ran
//! them or when they finished — the scheduling is nondeterministic, the
//! output never is.
//!
//! `threads == 1` bypasses the pool entirely and runs the jobs inline in
//! index order on the calling thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use crate::error::CellError;

/// A fixed-width pool; `threads` is clamped to at least 1.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool that will run jobs on `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(i)` for every `i in 0..n` and returns the results in
    /// index order.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-index job failure (as a [`CellError`]
    /// payload) after **all** jobs have run — one bad job no longer
    /// discards its siblings' work mid-flight. Fault-tolerant callers
    /// should use [`try_map`](ThreadPool::try_map) instead.
    pub fn map<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.try_map(n, job)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| std::panic::panic_any(e)))
            .collect()
    }

    /// Runs `job(i)` for every `i in 0..n`, isolating panics per job:
    /// the result vector is in index order and a panicking job yields
    /// `Err(CellError)` in its slot while every other job still runs to
    /// completion.
    ///
    /// A structured [`CellError`] thrown with [`std::panic::panic_any`]
    /// passes through intact; other payloads are classified by
    /// [`CellError::from_panic_payload`] with the job index (`"#i"`) as
    /// context — callers that know better names can relabel.
    pub fn try_map<T, F>(&self, n: usize, job: F) -> Vec<Result<T, CellError>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let run_one = |i: usize| -> Result<T, CellError> {
            catch_unwind(AssertUnwindSafe(|| job(i)))
                .map_err(|payload| CellError::from_panic_payload(&format!("#{i}"), payload))
        };
        if self.threads == 1 || n <= 1 {
            return (0..n).map(run_one).collect();
        }
        let workers = self.threads.min(n);
        // Seed the deques round-robin so early (often heavier) jobs
        // spread across workers immediately.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();
        let mut results: Vec<Option<Result<T, CellError>>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let slots: Vec<Mutex<&mut Option<Result<T, CellError>>>> =
            results.iter_mut().map(Mutex::new).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let slots = &slots;
                    let run_one = &run_one;
                    s.spawn(move || {
                        while let Some(i) = next_job(queues, w) {
                            let out = run_one(i);
                            **slots[i].lock().expect("result slot poisoned") = Some(out);
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Err(panic) = h.join() {
                    // Only reachable for a panic *outside* the per-job
                    // catch (e.g. a poisoned slot lock): that is a
                    // harness bug, not a cell failure — re-raise it.
                    std::panic::resume_unwind(panic);
                }
            }
        });
        drop(slots);
        results
            .into_iter()
            .map(|r| r.expect("every job index was executed"))
            .collect()
    }
}

/// Pops from worker `w`'s own front, or steals from the back of the first
/// non-empty sibling deque.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("queue poisoned").pop_front() {
        return Some(i);
    }
    let n = queues.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(i) = queues[victim].lock().expect("queue poisoned").pop_back() {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.map(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let pool = ThreadPool::new(4);
        let out = pool.map(100, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn uneven_jobs_get_stolen() {
        // One huge job at index 0; with stealing, the other worker
        // drains the rest. (Correctness, not a timing assertion.)
        let pool = ThreadPool::new(2);
        let out = pool.map(20, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i + 1
        });
        assert_eq!(out, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_empty_edge_cases() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        let pool = ThreadPool::new(4);
        let out: Vec<usize> = pool.map(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn try_map_isolates_panics() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let out = pool.try_map(20, |i| {
                assert!(i != 7 && i != 13, "injected failure at {i}");
                i * 10
            });
            for (i, r) in out.iter().enumerate() {
                if i == 7 || i == 13 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.kind, crate::error::CellErrorKind::Panic);
                    assert_eq!(e.context, format!("#{i}"));
                    assert!(e.message.contains("injected failure"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "sibling jobs still ran");
                }
            }
        }
    }

    #[test]
    fn try_map_passes_structured_payloads_through() {
        let pool = ThreadPool::new(2);
        let out = pool.try_map(4, |i| {
            if i == 2 {
                std::panic::panic_any(CellError::unknown_profile("ghost"));
            }
            i
        });
        let e = out[2].as_ref().unwrap_err();
        assert_eq!(e.kind, crate::error::CellErrorKind::UnknownProfile);
        assert_eq!(e.context, "ghost");
    }

    #[test]
    fn map_reraises_the_lowest_index_failure() {
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ThreadPool::new(4).map(10, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(i != 3 && i != 8, "boom {i}");
                i
            })
        }));
        let payload = caught.unwrap_err();
        let e = payload
            .downcast_ref::<CellError>()
            .expect("CellError payload");
        assert_eq!(e.context, "#3", "lowest failing index wins");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            10,
            "all jobs ran before the re-raise"
        );
    }
}
