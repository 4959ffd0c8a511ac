//! A minimal thread pool over one shared job cursor.
//!
//! The build environment has no registry access (see the vendored
//! `rand`/`proptest` stand-ins), so this is a small hand-rolled pool
//! rather than `rayon`: every worker claims the next job, in index
//! order, from one shared atomic cursor, so a worker stuck on a heavy
//! job never holds up the rest. Jobs are pure index-addressed closures;
//! each worker keeps its `(index, result)` pairs, and the pairs are
//! merged back **in index order** regardless of which worker ran them
//! or when they finished — the scheduling is nondeterministic, the
//! output never is.
//!
//! The pool isolates nothing: a panicking job unwinds its worker, the
//! other workers run the remaining jobs, and [`ThreadPool::map`]
//! re-raises the panic. Callers that tolerate failure catch it inside
//! the job (the experiment engine does, per attempt).
//!
//! `threads == 1` bypasses the pool entirely and runs the jobs inline in
//! index order on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// Re-raises a job's panic: inline at one thread, and otherwise once
    /// the other workers have run every remaining job.
    pub fn map<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, job(i)));
            }
        };
        let mut done = Vec::with_capacity(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads.min(n)).map(|_| s.spawn(worker)).collect();
            for h in handles {
                done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn uneven_jobs_are_claimed_by_idle_workers() {
        // One huge job at index 0; the other worker claims the rest from
        // the shared cursor. (Correctness, not a timing assertion.)
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
}
