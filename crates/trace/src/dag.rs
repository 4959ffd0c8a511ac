//! Dependence-graph utilities: data-flow scheduling, critical paths, and
//! the `I_W(k)` window-ILP characterization.
//!
//! These are the analytical primitives beneath interval analysis. An
//! instruction stream induces a DAG via register dependences; the *critical
//! path* through a window bounds how fast the window can drain, and the
//! per-window ILP curve `I_W(k)` (average instructions per cycle achievable
//! with a window of `k` instructions and unbounded resources) is the
//! program-inherent-ILP input to the penalty model — contributor (iii).
//!
//! Latencies are supplied by a caller-provided closure so that the interval
//! model can inject cache-dependent load latencies (contributor (v))
//! without this crate knowing anything about caches.

use bmp_uarch::OpClass;

use crate::op::MicroOp;
use crate::view::OpView;

/// Computes data-flow completion times for a slice of ops.
///
/// Op `i` starts executing at
/// `max(enter(i), max over sources completion(src))` and completes
/// `latency_of(i, op)` cycles later. Sources whose dependence distance
/// reaches before the slice are treated as ready at cycle 0 (they belong to
/// an earlier, already-drained part of the stream).
///
/// `enter(i)` models when op `i` becomes visible to the scheduler; passing
/// `|_| 0` yields the pure data-flow (infinite-machine) schedule, while the
/// interval model passes the dispatch-width-limited window-entry time.
///
/// # Examples
///
/// ```
/// use bmp_trace::{dag, MicroOp};
/// use bmp_uarch::OpClass;
///
/// // A 3-op chain with unit latencies completes at cycles 1, 2, 3.
/// let ops: Vec<_> = (0..3)
///     .map(|i| MicroOp::alu(i * 4, OpClass::IntAlu, [if i > 0 { Some(1) } else { None }, None]))
///     .collect();
/// let done = dag::completion_times(&ops, |_, _| 1, |_| 0);
/// assert_eq!(done, vec![1, 2, 3]);
/// ```
pub fn completion_times<L, E>(ops: &[MicroOp], mut latency_of: L, mut enter: E) -> Vec<u64>
where
    L: FnMut(usize, &MicroOp) -> u64,
    E: FnMut(usize) -> u64,
{
    let mut done = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let mut start = enter(i);
        for d in op.src_distances() {
            let d = d as usize;
            if d <= i {
                let src_done = done[i - d];
                start = start.max(src_done);
            }
            // else: producer precedes the slice; ready at 0.
        }
        let lat = latency_of(i, op).max(1);
        done.push(start + lat);
    }
    done
}

/// Length of the critical path through `ops` (the completion time of the
/// data-flow schedule), with latencies from `latency_of`.
///
/// Returns 0 for an empty slice.
pub fn critical_path<L>(ops: &[MicroOp], latency_of: L) -> u64
where
    L: FnMut(usize, &MicroOp) -> u64,
{
    completion_times(ops, latency_of, |_| 0)
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// The `I_W(k)` window-ILP characterization: the average IPC achievable
/// over disjoint consecutive windows of `k` instructions, assuming
/// unbounded issue resources within each window.
///
/// For each window the achievable IPC is `k / critical_path(window)`; the
/// returned value is the harmonic-consistent aggregate
/// `total instructions / total critical-path cycles`, which is the rate a
/// machine repeatedly draining such windows would sustain.
///
/// Returns `None` when the trace is shorter than one window or `k == 0`.
///
/// # Examples
///
/// ```
/// use bmp_trace::{dag, MicroOp};
/// use bmp_uarch::OpClass;
///
/// // Fully independent ops: I_W(k) == k (one window drains in 1 cycle).
/// let ops: Vec<_> = (0..64)
///     .map(|i| MicroOp::alu(i * 4, OpClass::IntAlu, [None, None]))
///     .collect();
/// let ilp = dag::window_ilp(&ops, 16, |_, _| 1).unwrap();
/// assert!((ilp - 16.0).abs() < 1e-9);
/// ```
pub fn window_ilp<L>(ops: &[MicroOp], k: usize, mut latency_of: L) -> Option<f64>
where
    L: FnMut(usize, &MicroOp) -> u64,
{
    if k == 0 || ops.len() < k {
        return None;
    }
    let mut insts = 0u64;
    let mut cycles = 0u64;
    let mut start = 0;
    while start + k <= ops.len() {
        let window = &ops[start..start + k];
        let cp = critical_path(window, |i, op| latency_of(start + i, op));
        insts += k as u64;
        cycles += cp.max(1);
        start += k;
    }
    Some(insts as f64 / cycles as f64)
}

/// The full ILP curve: `I_W(k)` for each `k` in `ks`, in order, skipping
/// sizes the trace cannot fill (and `k == 0`).
///
/// Each point equals [`window_ilp`] at its `k`, bit for bit, but the
/// curve takes one walk over the trace instead of one per size, and asks
/// `latency_of` once per op. Every size keeps the completion times of
/// its current window in a slice of one shared buffer, indexed by the
/// op's position in the window; the position is a counter that wraps at
/// `k`, so a window closes without a division and its slots are simply
/// overwritten by the next one.
///
/// # Examples
///
/// ```
/// use bmp_trace::{dag, MicroOp};
/// use bmp_uarch::OpClass;
///
/// let ops: Vec<_> = (0..64)
///     .map(|i| MicroOp::alu(i * 4, OpClass::IntAlu, [None, None]))
///     .collect();
/// let curve = dag::ilp_curve(&ops[..], &[0, 4, 16, 100], |_, _| 1);
/// assert_eq!(curve, vec![(4, 4.0), (16, 16.0)]);
/// ```
pub fn ilp_curve<T, L>(ops: &T, ks: &[usize], mut latency_of: L) -> Vec<(usize, f64)>
where
    T: OpView + ?Sized,
    L: FnMut(usize, OpClass) -> u64,
{
    /// One window size's progress. Its window lives in
    /// `done[base..=base + k]`: op `j` of the window in slot `j + 1`,
    /// and slot 0 stays zero for sources before the window's first op,
    /// so reading a source needs no branch.
    struct Size {
        k: usize,
        base: usize,
        slot: usize,
        critical_path: u64,
        insts: u64,
        cycles: u64,
    }
    let mut sizes = Vec::new();
    let mut slots = 0;
    for &k in ks.iter().filter(|&&k| k > 0 && k <= ops.len()) {
        sizes.push(Size {
            k,
            base: slots,
            slot: 1,
            critical_path: 0,
            insts: 0,
            cycles: 0,
        });
        slots += k + 1;
    }
    let mut done = vec![0u64; slots];
    for i in 0..ops.len() {
        let latency = latency_of(i, ops.class(i)).max(1);
        // The distance back to each producer. An empty slot holds `i` or
        // more, so its distance is 0 or wraps, and `d − 1` lands past
        // every window either way.
        let dists = ops.producers(i).map(|p| i.wrapping_sub(p as usize));
        for size in &mut sizes {
            let window = &mut done[size.base..=size.base + size.k];
            let slot = size.slot;
            let mut start = 0;
            for d in dists {
                let producer = if d.wrapping_sub(1) < slot - 1 {
                    slot - d
                } else {
                    0
                };
                start = start.max(window[producer]);
            }
            let t = start + latency;
            window[slot] = t;
            size.critical_path = size.critical_path.max(t);
            if slot == size.k {
                size.insts += size.k as u64;
                size.cycles += size.critical_path;
                size.slot = 1;
                size.critical_path = 0;
            } else {
                size.slot += 1;
            }
        }
    }
    sizes
        .iter()
        .map(|s| (s.k, s.insts as f64 / s.cycles as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| {
                MicroOp::alu(
                    i as u64 * 4,
                    OpClass::IntAlu,
                    [if i > 0 { Some(1) } else { None }, None],
                )
            })
            .collect()
    }

    fn independent(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp::alu(i as u64 * 4, OpClass::IntAlu, [None, None]))
            .collect()
    }

    #[test]
    fn chain_critical_path_is_length_times_latency() {
        let ops = chain(10);
        assert_eq!(critical_path(&ops, |_, _| 1), 10);
        assert_eq!(critical_path(&ops, |_, _| 3), 30);
    }

    #[test]
    fn independent_critical_path_is_one_latency() {
        let ops = independent(10);
        assert_eq!(critical_path(&ops, |_, _| 1), 1);
        assert_eq!(critical_path(&ops, |_, _| 5), 5);
    }

    #[test]
    fn empty_slice_has_zero_critical_path() {
        assert_eq!(critical_path(&[], |_, _| 1), 0);
    }

    #[test]
    fn out_of_slice_sources_are_ready() {
        // Op 0 depends on distance 5, which precedes the slice.
        let ops = vec![MicroOp::alu(0, OpClass::IntAlu, [Some(5), None])];
        // Builder would reject it, but slices of longer traces see this.
        assert_eq!(critical_path(&ops, |_, _| 2), 2);
    }

    #[test]
    fn enter_delays_are_respected() {
        let ops = independent(4);
        let done = completion_times(&ops, |_, _| 1, |i| i as u64);
        assert_eq!(done, vec![1, 2, 3, 4]);
    }

    #[test]
    fn latency_floor_is_one() {
        let ops = independent(2);
        let done = completion_times(&ops, |_, _| 0, |_| 0);
        assert_eq!(done, vec![1, 1]);
    }

    #[test]
    fn window_ilp_of_chain_is_near_one() {
        let ops = chain(64);
        let ilp = window_ilp(&ops, 16, |_, _| 1).unwrap();
        assert!((ilp - 1.0).abs() < 1e-9, "chain ILP should be 1, got {ilp}");
    }

    #[test]
    fn window_ilp_respects_latencies() {
        let ops = chain(64);
        let ilp = window_ilp(&ops, 16, |_, _| 2).unwrap();
        assert!((ilp - 0.5).abs() < 1e-9);
    }

    #[test]
    fn window_ilp_none_when_trace_too_short() {
        let ops = chain(4);
        assert!(window_ilp(&ops, 8, |_, _| 1).is_none());
        assert!(window_ilp(&ops, 0, |_, _| 1).is_none());
    }

    #[test]
    fn ilp_curve_is_monotone_for_mixed_code() {
        // Interleave chains so bigger windows expose more parallelism.
        let mut ops = Vec::new();
        for i in 0..256usize {
            // Two interleaved chains: even ops depend on i-2, odd on i-2.
            let src = if i >= 2 { Some(2) } else { None };
            ops.push(MicroOp::alu(i as u64 * 4, OpClass::IntAlu, [src, None]));
        }
        let curve = ilp_curve(&ops[..], &[2, 4, 8, 16], |_, _| 1);
        assert_eq!(curve.len(), 4);
        for pair in curve.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 - 1e-9,
                "ILP curve should be non-decreasing: {curve:?}"
            );
        }
        // Two independent chains => ILP approaches 2.
        assert!(curve.last().unwrap().1 <= 2.0 + 1e-9);
    }
}
