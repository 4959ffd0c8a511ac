// The per-window data-flow schedule that `dag::ilp_curve` computes in
// one walk, written the direct way: the oracle the dag tests check the
// curve and the dependence invariants against. Included (`include!`) by
// the `dag` unit tests and by `tests/trace_properties.rs`; the includer
// brings `MicroOp` into scope.

/// Data-flow completion times for a slice of ops: op `i` starts at
/// `max(enter(i), completion of its sources)` and completes
/// `latency_of(i, op)` cycles later (at least 1). Sources before the
/// slice are ready at cycle 0.
fn completion_times<L, E>(ops: &[MicroOp], mut latency_of: L, mut enter: E) -> Vec<u64>
where
    L: FnMut(usize, &MicroOp) -> u64,
    E: FnMut(usize) -> u64,
{
    let mut done: Vec<u64> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let mut start = enter(i);
        for d in op.src_distances() {
            let d = d as usize;
            if d <= i {
                start = start.max(done[i - d]);
            }
        }
        done.push(start + latency_of(i, op).max(1));
    }
    done
}

/// The critical path through `ops`: the last completion of the
/// data-flow schedule, 0 for an empty slice.
fn critical_path<L>(ops: &[MicroOp], latency_of: L) -> u64
where
    L: FnMut(usize, &MicroOp) -> u64,
{
    completion_times(ops, latency_of, |_| 0)
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// `I_W(k)`, one window at a time: instructions over critical-path
/// cycles across the disjoint windows of `k` ops; `None` when no window
/// fits or `k == 0`.
fn window_ilp<L>(ops: &[MicroOp], k: usize, mut latency_of: L) -> Option<f64>
where
    L: FnMut(usize, &MicroOp) -> u64,
{
    if k == 0 || ops.len() < k {
        return None;
    }
    let (mut insts, mut cycles) = (0u64, 0u64);
    for (w, window) in ops.chunks_exact(k).enumerate() {
        insts += k as u64;
        cycles += critical_path(window, |i, op| latency_of(w * k + i, op)).max(1);
    }
    Some(insts as f64 / cycles as f64)
}
