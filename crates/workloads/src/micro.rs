//! Controlled microbenchmarks.
//!
//! Each kernel pins a single penalty contributor so the sensitivity
//! experiments can sweep it in isolation:
//!
//! * [`chain_kernel`] — inherent ILP (contributor iii): every op depends on
//!   the op `k` earlier, creating exactly `k` independent chains;
//! * [`branch_resolution_kernel`] — a mispredicting branch at the end of a
//!   dependence chain of chosen length, the purest resolution-time
//!   experiment (E-F8);
//! * [`memory_kernel`] — loads over a chosen working set, optionally
//!   pointer-chased (contributor v / long-miss events, E-F9);
//! * [`latency_kernel`] — a chain of long-latency ops (contributor iv,
//!   E-F7).
//!
//! All kernels are loops over a small code footprint, so the I-cache is
//! quiet and the contributor under study is the only thing moving. All
//! satisfy the control-flow invariant `ops[i+1].pc() == ops[i].next_pc()`.

use bmp_trace::{BranchKind, MicroOp, Trace};
use bmp_uarch::OpClass;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KERNEL_BASE: u64 = 0x0010_0000;
const DATA_BASE: u64 = 0x5000_0000;

/// A loop whose body is `body_len` ops of `class`, each depending on the
/// op `k` positions earlier, closed by an unconditional jump.
///
/// With `k = 1` the body is a single serial chain (ILP 1); with `k = 8`
/// it is eight interleaved chains (ILP 8, resource-permitting).
///
/// # Panics
///
/// Panics if `k == 0`, `body_len == 0`, or `class` is a memory/branch
/// class.
///
/// # Examples
///
/// ```
/// use bmp_trace::dag;
/// use bmp_uarch::OpClass;
///
/// let t = bmp_workloads::micro::chain_kernel(1000, 4, 64, OpClass::IntAlu);
/// let ilp = dag::ilp_curve(t.ops(), &[32], |_, _| 1)[0].1;
/// assert!((ilp - 4.0).abs() < 0.5);
/// ```
pub fn chain_kernel(n_ops: usize, k: u32, body_len: u32, class: OpClass) -> Trace {
    assert!(k > 0, "chain stride must be at least 1");
    assert!(body_len > 0, "body length must be at least 1");
    assert!(
        !class.is_memory() && !class.is_branch(),
        "chain kernel takes a computational class"
    );
    let mut ops = Vec::with_capacity(n_ops);
    let jump_pc = KERNEL_BASE + u64::from(body_len) * 4;
    // Trace positions of the body (non-jump) ops, so chains stay intact
    // across the loop-closing jump: the producer of body op `b` is body op
    // `b - k`, whatever number of jumps lie between them.
    let mut body_positions: Vec<usize> = Vec::new();
    while ops.len() < n_ops {
        for j in 0..body_len {
            if ops.len() >= n_ops {
                break;
            }
            let pc = KERNEL_BASE + u64::from(j) * 4;
            let b = body_positions.len();
            let src = b
                .checked_sub(k as usize)
                .map(|p| (ops.len() - body_positions[p]) as u32);
            body_positions.push(ops.len());
            ops.push(MicroOp::alu(pc, class, [src, None]));
        }
        if ops.len() < n_ops {
            ops.push(MicroOp::branch(
                jump_pc,
                BranchKind::Jump,
                true,
                KERNEL_BASE,
                [None, None],
            ));
        }
    }
    Trace::from_ops_unchecked(ops)
}

/// The branch-resolution kernel: each iteration is a serial dependence
/// chain of `chain_len` single-cycle ops feeding a conditional branch with
/// the given taken bias (outcomes drawn deterministically from `seed`).
///
/// The loop is shaped so the branch's resolution time is exactly the
/// chain's execution time: the purest measurement of contributor (iii)'s
/// effect on the misprediction penalty.
///
/// Layout: block A = chain + conditional (taken → back to A); block B =
/// jump back to A (the fall-through path).
///
/// # Panics
///
/// Panics if `chain_len == 0` or `taken_bias` is outside `[0, 1]`.
pub fn branch_resolution_kernel(n_ops: usize, chain_len: u32, taken_bias: f64, seed: u64) -> Trace {
    assert!(chain_len > 0, "chain length must be at least 1");
    assert!((0.0..=1.0).contains(&taken_bias), "bias must be in [0, 1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let branch_pc = KERNEL_BASE + u64::from(chain_len) * 4;
    let jump_pc = branch_pc + 4;
    let mut ops = Vec::with_capacity(n_ops);
    while ops.len() < n_ops {
        for j in 0..chain_len {
            if ops.len() >= n_ops {
                break;
            }
            let pc = KERNEL_BASE + u64::from(j) * 4;
            let src = if ops.is_empty() { None } else { Some(1) };
            ops.push(MicroOp::alu(pc, OpClass::IntAlu, [src, None]));
        }
        if ops.len() >= n_ops {
            break;
        }
        let taken = rng.gen::<f64>() < taken_bias;
        ops.push(MicroOp::branch(
            branch_pc,
            BranchKind::Conditional,
            taken,
            KERNEL_BASE,
            [Some(1), None],
        ));
        if !taken && ops.len() < n_ops {
            ops.push(MicroOp::branch(
                jump_pc,
                BranchKind::Jump,
                true,
                KERNEL_BASE,
                [None, None],
            ));
        }
    }
    Trace::from_ops_unchecked(ops)
}

/// A load loop over a working set of `working_set` bytes.
///
/// When `chase` is set each load's address depends on the previous load
/// (a pointer chase), serializing the memory chain; otherwise loads are
/// independent. Padding ALU ops keep one load per `ops_per_load`
/// instructions.
///
/// # Panics
///
/// Panics if `working_set < 8` or `ops_per_load == 0`.
pub fn memory_kernel(
    n_ops: usize,
    working_set: u64,
    ops_per_load: u32,
    chase: bool,
    seed: u64,
) -> Trace {
    assert!(working_set >= 8, "working set must be at least 8 bytes");
    assert!(ops_per_load > 0, "ops_per_load must be at least 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    let body_len = ops_per_load * 8; // 8 loads per iteration
    let jump_pc = KERNEL_BASE + u64::from(body_len) * 4;
    let mut ops = Vec::with_capacity(n_ops);
    let mut last_load: Option<usize> = None;
    while ops.len() < n_ops {
        for j in 0..body_len {
            if ops.len() >= n_ops {
                break;
            }
            let pc = KERNEL_BASE + u64::from(j) * 4;
            if j % ops_per_load == 0 {
                let addr = DATA_BASE + (rng.gen_range(0..working_set) & !7);
                let src = match (chase, last_load) {
                    (true, Some(prev)) => Some((ops.len() - prev) as u32),
                    _ => None,
                };
                last_load = Some(ops.len());
                ops.push(MicroOp::load(pc, addr, [src, None]));
            } else {
                ops.push(MicroOp::alu(pc, OpClass::IntAlu, [None, None]));
            }
        }
        if ops.len() < n_ops {
            ops.push(MicroOp::branch(
                jump_pc,
                BranchKind::Jump,
                true,
                KERNEL_BASE,
                [None, None],
            ));
        }
    }
    Trace::from_ops_unchecked(ops)
}

/// A serial chain of `class` ops (e.g. [`OpClass::IntMul`]) closed into a
/// loop — the functional-unit-latency kernel: the drain time of a window
/// of these ops scales directly with the class latency.
///
/// # Panics
///
/// Panics if `class` is a memory or branch class.
pub fn latency_kernel(n_ops: usize, class: OpClass) -> Trace {
    chain_kernel(n_ops, 1, 64, class)
}

/// An indirect-dispatch kernel: one dispatch site rotating through
/// `n_cases` case blocks of `case_len` ops each (every case jumps back to
/// the dispatch) — the pure target-misprediction workload. A last-target
/// BTB mispredicts every dispatch; a history-hashed target predictor
/// learns the rotation.
///
/// # Panics
///
/// Panics if `n_cases < 2` or `case_len == 0`.
pub fn indirect_kernel(n_ops: usize, n_cases: u32, case_len: u32) -> Trace {
    assert!(n_cases >= 2, "need at least two cases");
    assert!(case_len >= 1, "cases need at least one op");
    // Layout: dispatch at KERNEL_BASE (one indirect op); case k occupies
    // case_len ops + 1 jump-back, starting right after.
    let dispatch_pc = KERNEL_BASE;
    let case_stride = u64::from(case_len + 1) * 4;
    let case_pc = |k: u32| dispatch_pc + 4 + u64::from(k) * case_stride;
    let mut ops = Vec::with_capacity(n_ops);
    let mut k = 0u32;
    while ops.len() < n_ops {
        ops.push(MicroOp::branch(
            dispatch_pc,
            BranchKind::IndirectJump,
            true,
            case_pc(k),
            [None, None],
        ));
        for j in 0..case_len {
            if ops.len() >= n_ops {
                break;
            }
            let pc = case_pc(k) + u64::from(j) * 4;
            let src = if ops.len() > 1 { Some(1) } else { None };
            ops.push(MicroOp::alu(pc, OpClass::IntAlu, [src, None]));
        }
        if ops.len() < n_ops {
            ops.push(MicroOp::branch(
                case_pc(k) + u64::from(case_len) * 4,
                BranchKind::Jump,
                true,
                dispatch_pc,
                [None, None],
            ));
        }
        k = (k + 1) % n_cases;
    }
    Trace::from_ops_unchecked(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_trace::dag;

    fn check_control_flow(t: &Trace) {
        for pair in t.ops().windows(2) {
            assert_eq!(
                pair[0].next_pc(),
                pair[1].pc(),
                "control-flow break after {:?}",
                pair[0]
            );
        }
    }

    #[test]
    fn chain_kernel_ilp_matches_stride() {
        for k in [1u32, 2, 4, 8] {
            let t = chain_kernel(2000, k, 64, OpClass::IntAlu);
            let ilp = dag::ilp_curve(t.ops(), &[32], |_, _| 1)[0].1;
            assert!((ilp - k as f64).abs() < 0.7, "stride {k} gave ILP {ilp}");
            check_control_flow(&t);
        }
    }

    #[test]
    fn chain_kernel_exact_length_and_loop() {
        let t = chain_kernel(500, 1, 16, OpClass::IntAlu);
        assert_eq!(t.len(), 500);
        // The code footprint is tiny: at most body_len + 1 distinct pcs.
        let pcs: std::collections::HashSet<u64> = t.iter().map(|o| o.pc()).collect();
        assert!(pcs.len() <= 17);
    }

    #[test]
    #[should_panic(expected = "chain stride")]
    fn chain_kernel_rejects_zero_stride() {
        let _ = chain_kernel(10, 0, 16, OpClass::IntAlu);
    }

    #[test]
    #[should_panic(expected = "computational class")]
    fn chain_kernel_rejects_loads() {
        let _ = chain_kernel(10, 1, 16, OpClass::Load);
    }

    #[test]
    fn branch_kernel_structure() {
        let t = branch_resolution_kernel(5000, 8, 0.5, 3);
        assert_eq!(t.len(), 5000);
        check_control_flow(&t);
        // Branch density: one conditional per chain_len+1(+1 when NT).
        let cond = t.iter().filter(|o| o.is_conditional_branch()).count();
        assert!(cond > 400, "expected ~500 conditionals, got {cond}");
        // Every conditional depends on the chain op right before it.
        for op in t.iter().filter(|o| o.is_conditional_branch()) {
            assert_eq!(op.srcs()[0], Some(1));
        }
    }

    #[test]
    fn branch_kernel_bias_honored() {
        let t = branch_resolution_kernel(20_000, 4, 0.8, 11);
        let (mut taken, mut total) = (0u32, 0u32);
        for op in t.iter().filter(|o| o.is_conditional_branch()) {
            total += 1;
            taken += u32::from(op.branch_info().unwrap().taken);
        }
        let frac = f64::from(taken) / f64::from(total);
        assert!((frac - 0.8).abs() < 0.05, "taken fraction {frac}");
    }

    #[test]
    fn memory_kernel_working_set_respected() {
        let ws = 4096;
        let t = memory_kernel(10_000, ws, 4, false, 5);
        check_control_flow(&t);
        for op in t.iter() {
            if let Some(a) = op.mem_addr() {
                assert!((DATA_BASE..DATA_BASE + ws).contains(&a));
            }
        }
    }

    #[test]
    fn memory_kernel_chase_serializes() {
        let t = memory_kernel(5_000, 65536, 4, true, 5);
        let loads: Vec<usize> = t
            .iter()
            .enumerate()
            .filter(|(_, o)| o.class() == OpClass::Load)
            .map(|(i, _)| i)
            .collect();
        for w in loads.windows(2) {
            let cur = t.get(w[1]).unwrap();
            assert_eq!(cur.srcs()[0], Some((w[1] - w[0]) as u32));
        }
    }

    #[test]
    fn indirect_kernel_rotates_and_stays_consistent() {
        let t = indirect_kernel(5_000, 4, 6);
        check_control_flow(&t);
        let targets: Vec<u64> = t
            .iter()
            .filter(|o| {
                o.branch_info()
                    .is_some_and(|b| b.kind == BranchKind::IndirectJump)
            })
            .map(|o| o.branch_info().unwrap().target)
            .collect();
        assert!(targets.len() > 500);
        // Strict rotation: target repeats with period 4.
        for w in targets.windows(5) {
            assert_eq!(w[0], w[4], "rotation must have period 4");
            assert_ne!(w[0], w[1], "consecutive targets differ");
        }
    }

    #[test]
    #[should_panic(expected = "two cases")]
    fn indirect_kernel_rejects_one_case() {
        let _ = indirect_kernel(100, 1, 4);
    }

    #[test]
    fn latency_kernel_is_serial() {
        let t = latency_kernel(1000, OpClass::IntMul);
        let ilp = dag::ilp_curve(t.ops(), &[32], |_, _| 3)[0].1;
        assert!(ilp < 0.5, "serial multiply chain ILP {ilp}");
    }
}
