//! The shared trace/simulation/analysis cache.
//!
//! Every experiment cell is a pure function of its inputs: a trace is
//! fully determined by `(profile fingerprint, ops, seed)`, a simulation
//! by `(machine config + options fingerprint, trace key)`, and an
//! interval-model analysis by `(config fingerprint, trace key)`. The
//! cache is content-addressed on exactly those keys, so each artifact is
//! computed **once** per `run_all` and shared (as an `Arc`) across every
//! experiment that needs it, on every thread.
//!
//! Concurrent lookups of the same key are collapsed: the first caller
//! computes while later callers block and then receive the same shared
//! instance — never a duplicate computation, never a different value.
//!
//! A *panicking* computation must not wedge the cache: the panic is
//! caught, recorded as a `Slot::Failed` with its structured
//! [`CellError`], every blocked waiter is woken and re-raises that same
//! error (no waiter recomputes, no waiter deadlocks), and the original
//! computing thread re-panics with the structured payload so
//! [`ThreadPool::try_map`](crate::pool::ThreadPool::try_map) can report
//! it. The failed slot does **not** poison the key: the next *fresh*
//! lookup claims it and recomputes — which is exactly what the harness's
//! bounded retry does.
//!
//! Each memo also counts the heap bytes its ready artifacts hold, now and
//! at the high-water mark ([`HeapBytes`]), and lets the engine
//! [`release`](Memo::release) an artifact once no consumer still needs it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::CellError;

/// The heap bytes an artifact holds: the sum of `capacity × size_of`
/// over its vectors. What the memos report as held bytes.
pub trait HeapBytes {
    /// Bytes this value owns on the heap.
    fn heap_bytes(&self) -> u64;
}

macro_rules! heap_bytes_by_inherent {
    ($($t:ty),*) => {$(
        impl HeapBytes for $t {
            fn heap_bytes(&self) -> u64 {
                <$t>::heap_bytes(self)
            }
        }
    )*};
}

heap_bytes_by_inherent!(
    bmp_trace::CompiledTrace,
    bmp_trace::SuperblockMap,
    bmp_sim::SimResult,
    bmp_core::FunctionalOutcome,
    bmp_core::PenaltyAnalysis
);

/// Static bounds are a handful of integers; they own no heap.
impl HeapBytes for bmp_analyze::StaticBounds {
    fn heap_bytes(&self) -> u64 {
        0
    }
}

/// Hit/miss counters and held bytes for one artifact kind.
#[derive(Debug, Default)]
pub struct MemoStats {
    hits: AtomicU64,
    misses: AtomicU64,
    held: AtomicU64,
    peak: AtomicU64,
}

impl MemoStats {
    /// Lookups served from the cache (including waits on an in-flight
    /// computation of the same key).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute the artifact.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Heap bytes of the artifacts the memo holds now.
    pub fn held_bytes(&self) -> u64 {
        self.held.load(Ordering::Relaxed)
    }

    /// The most heap bytes the memo has held at once.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// One entry: being computed by some thread, ready, or failed (the last
/// computation panicked; a fresh lookup may claim and retry it).
enum Slot<V> {
    InFlight,
    Ready(Arc<V>),
    Failed(CellError),
}

/// A once-per-key memo table returning shared `Arc` values.
pub struct Memo<V> {
    map: Mutex<HashMap<u64, Slot<V>>>,
    ready: Condvar,
    stats: MemoStats,
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            stats: MemoStats::default(),
        }
    }
}

impl<V> std::fmt::Debug for Memo<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("entries", &self.map.lock().map(|m| m.len()).unwrap_or(0))
            .field("stats", &self.stats)
            .finish()
    }
}

impl<V: HeapBytes> Memo<V> {
    /// Returns the artifact for `key`, computing it with `compute` on
    /// first access. Exactly one caller computes per key; concurrent
    /// callers receive the same shared instance.
    ///
    /// # Panics
    ///
    /// If `compute` panics, the panic propagates to the computing caller
    /// *and* to every caller that was blocked waiting on this key — all
    /// with the same structured [`CellError`] payload. The key itself is
    /// left retryable: a later fresh lookup recomputes it.
    pub fn get_or_compute<F: FnOnce() -> V>(&self, key: u64, compute: F) -> Arc<V> {
        {
            let mut map = self.map.lock().expect("memo map poisoned");
            // Whether this caller slept on an in-flight computation: a
            // waiter woken into `Failed` inherits that failure, while a
            // fresh caller seeing a stale `Failed` claims and retries.
            let mut waited = false;
            loop {
                match map.get(&key) {
                    Some(Slot::Ready(v)) => {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(v);
                    }
                    Some(Slot::InFlight) => {
                        waited = true;
                        map = self.ready.wait(map).expect("memo map poisoned");
                    }
                    Some(Slot::Failed(e)) if waited => {
                        let e = e.clone();
                        drop(map);
                        std::panic::panic_any(e);
                    }
                    Some(Slot::Failed(_)) | None => {
                        map.insert(key, Slot::InFlight);
                        break;
                    }
                }
            }
        }
        match catch_unwind(AssertUnwindSafe(compute)) {
            Ok(value) => {
                let value = Arc::new(value);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                let bytes = value.heap_bytes();
                let held = self.stats.held.fetch_add(bytes, Ordering::Relaxed) + bytes;
                self.stats.peak.fetch_max(held, Ordering::Relaxed);
                let mut map = self.map.lock().expect("memo map poisoned");
                map.insert(key, Slot::Ready(Arc::clone(&value)));
                drop(map);
                self.ready.notify_all();
                value
            }
            Err(payload) => {
                let err = CellError::from_panic_payload(&format!("memo:{key:016x}"), payload);
                let mut map = self.map.lock().expect("memo map poisoned");
                map.insert(key, Slot::Failed(err.clone()));
                drop(map);
                self.ready.notify_all();
                std::panic::panic_any(err);
            }
        }
    }

    /// Drops the memo's reference to a ready or failed artifact at
    /// `key`; the next lookup recomputes it. An in-flight computation is
    /// left alone.
    pub fn release(&self, key: u64) {
        let mut map = self.map.lock().expect("memo map poisoned");
        match map.get(&key) {
            Some(Slot::Ready(v)) => {
                self.stats.held.fetch_sub(v.heap_bytes(), Ordering::Relaxed);
                map.remove(&key);
            }
            Some(Slot::Failed(_)) => drop(map.remove(&key)),
            Some(Slot::InFlight) | None => {}
        }
    }

    /// Whether a ready artifact is cached at `key`.
    pub fn contains(&self, key: u64) -> bool {
        let map = self.map.lock().expect("memo map poisoned");
        matches!(map.get(&key), Some(Slot::Ready(_)))
    }
}

impl<V> Memo<V> {
    /// The hit/miss counters.
    pub fn stats(&self) -> &MemoStats {
        &self.stats
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.map.lock().expect("memo map poisoned").len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Combines a kind tag and the addressing fields into one 64-bit key.
///
/// The tag keeps the key spaces of different artifact kinds disjoint even
/// when their content hashes collide positionally.
pub fn cache_key(tag: &str, parts: &[u64]) -> u64 {
    let mut buf = String::with_capacity(tag.len() + parts.len() * 17);
    buf.push_str(tag);
    for p in parts {
        buf.push('/');
        buf.push_str(&format!("{p:016x}"));
    }
    bmp_uarch::fp::fnv1a(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    impl HeapBytes for u64 {
        fn heap_bytes(&self) -> u64 {
            0
        }
    }

    impl HeapBytes for Vec<u8> {
        fn heap_bytes(&self) -> u64 {
            self.capacity() as u64
        }
    }

    #[test]
    fn computes_once_and_shares() {
        let memo: Memo<u64> = Memo::default();
        let calls = AtomicUsize::new(0);
        let a = memo.get_or_compute(1, || {
            calls.fetch_add(1, Ordering::Relaxed);
            42
        });
        let b = memo.get_or_compute(1, || {
            calls.fetch_add(1, Ordering::Relaxed);
            99
        });
        assert_eq!(*a, 42);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(memo.stats().hits(), 1);
        assert_eq!(memo.stats().misses(), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn concurrent_lookups_share_one_instance() {
        let memo: Memo<Vec<u8>> = Memo::default();
        let calls = AtomicUsize::new(0);
        let arcs: Vec<Arc<Vec<u8>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        memo.get_or_compute(7, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            vec![1, 2, 3]
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1, "exactly one compute");
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a), "all callers share one Arc");
        }
    }

    #[test]
    fn a_panicking_compute_unblocks_the_key() {
        let memo: Memo<u64> = Memo::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(3, || panic!("boom"));
        }));
        // The re-raised payload is the structured classification.
        let payload = r.unwrap_err();
        let e = payload
            .downcast_ref::<CellError>()
            .expect("CellError payload");
        assert_eq!(e.kind, crate::error::CellErrorKind::Panic);
        assert!(e.message.contains("boom"));
        // The key is retryable; a fresh lookup computes normally.
        assert_eq!(*memo.get_or_compute(3, || 5), 5);
        assert_eq!(memo.stats().misses(), 1, "the failed attempt is not a miss");
    }

    #[test]
    fn waiters_inherit_an_in_flight_failure() {
        let memo: Memo<u64> = Memo::default();
        let sibling_computes = AtomicUsize::new(0);
        let errors: Vec<CellError> = std::thread::scope(|s| {
            let computer = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    memo.get_or_compute(11, || {
                        // Give the waiters ample time to block on the
                        // in-flight marker before the failure lands.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        std::panic::panic_any(CellError::panic("cell-11", "wedged"));
                    })
                }))
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            let waiters: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            memo.get_or_compute(11, || {
                                sibling_computes.fetch_add(1, Ordering::Relaxed);
                                7
                            })
                        }))
                    })
                })
                .collect();
            std::iter::once(computer)
                .chain(waiters)
                .map(|h| {
                    let payload = h.join().unwrap().unwrap_err();
                    payload
                        .downcast_ref::<CellError>()
                        .expect("CellError payload")
                        .clone()
                })
                .collect()
        });
        assert_eq!(errors.len(), 5);
        for e in &errors {
            assert_eq!(e.context, "cell-11", "waiters see the original error");
            assert_eq!(e.message, "wedged");
        }
        assert_eq!(
            sibling_computes.load(Ordering::Relaxed),
            0,
            "no waiter recomputed a failure it was waiting on"
        );
    }

    #[test]
    fn keys_separate_kinds() {
        assert_ne!(cache_key("trace", &[1, 2]), cache_key("sim", &[1, 2]));
        assert_ne!(cache_key("trace", &[1, 2]), cache_key("trace", &[2, 1]));
        assert_eq!(cache_key("trace", &[1, 2]), cache_key("trace", &[1, 2]));
    }
}
