//! Property tests on traces: serialization roundtrips,
//! dependence-graph invariants and superblock-segmentation invariants,
//! over arbitrary op streams.

use bmp_trace::compiled::{FLAG_BRANCH, NO_PRODUCER};
use bmp_trace::{dag, io, BranchInfo, BranchKind, MicroOp, RegionEnd, SuperblockMap, Trace};
use bmp_uarch::OpClass;
use proptest::prelude::*;

include!("dag_oracle/mod.rs");

fn arb_op(max_dist: u32) -> impl Strategy<Value = MicroOp> {
    let srcs = (0u32..=max_dist, 0u32..=max_dist)
        .prop_map(|(a, b)| [(a != 0).then_some(a), (b != 0).then_some(b)]);
    (0u64..1 << 40, srcs, 0u8..12).prop_flat_map(|(pc, srcs, kind)| match kind {
        0..=4 => {
            let class = [
                OpClass::IntAlu,
                OpClass::IntMul,
                OpClass::FpAdd,
                OpClass::FpMul,
                OpClass::IntDiv,
            ][kind as usize];
            Just(MicroOp::alu(pc, class, srcs)).boxed()
        }
        5 | 6 => (0u64..1 << 40)
            .prop_map(move |addr| {
                if kind == 5 {
                    MicroOp::load(pc, addr, srcs)
                } else {
                    MicroOp::store(pc, addr, srcs)
                }
            })
            .boxed(),
        _ => ((0u64..1 << 40), any::<bool>(), 0u8..4)
            .prop_map(move |(target, taken, bk)| {
                let bkind = [
                    BranchKind::Conditional,
                    BranchKind::Jump,
                    BranchKind::Call,
                    BranchKind::Return,
                ][bk as usize];
                MicroOp::branch(pc, bkind, taken, target, srcs)
            })
            .boxed(),
    })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_op(64), 0..300).prop_map(Trace::from_ops_unchecked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass ILP curve, on either layout, equals the per-window
    /// `window_ilp` oracle (`dag_oracle`) point for point and to the f64
    /// bit, under op-dependent latencies (0 included, which floors to 1),
    /// for sizes that include 0, 1, values that are not powers of two,
    /// and sizes past the trace's end.
    #[test]
    fn ilp_curve_matches_per_window_oracle(
        ops in prop::collection::vec(arb_op(64), 0..300),
        extra in prop::collection::vec(0usize..400, 0..6),
        spread in 1u64..12,
    ) {
        let mut ks = vec![0, 1, 3, 7, 12, 64, ops.len(), ops.len() + 1];
        ks.extend(extra);
        let latency = |i: usize, class: OpClass| (i as u64 * 7 + class.index() as u64) % spread;
        let want: Vec<(usize, f64)> = ks
            .iter()
            .filter_map(|&k| {
                window_ilp(&ops, k, |i, op| latency(i, op.class())).map(|ilp| (k, ilp))
            })
            .collect();
        let compiled = Trace::from_ops_unchecked(ops.clone()).compile();
        for got in [dag::ilp_curve(&ops[..], &ks, latency), dag::ilp_curve(&compiled, &ks, latency)] {
            prop_assert_eq!(got.len(), want.len());
            for ((gk, gv), (wk, wv)) in got.iter().zip(&want) {
                prop_assert_eq!(gk, wk);
                prop_assert_eq!(gv.to_bits(), wv.to_bits(), "k = {}", wk);
            }
        }
    }

    /// Binary serialization roundtrips every representable trace.
    #[test]
    fn io_roundtrip(trace in arb_trace()) {
        let mut buf = Vec::new();
        io::write_trace(&trace, &mut buf).expect("write to vec");
        let back = io::read_trace(buf.as_slice()).expect("read back");
        prop_assert_eq!(trace, back);
    }

    /// Truncating a serialized trace anywhere inside the payload is
    /// detected, never a panic or a silent wrong answer.
    #[test]
    fn io_truncation_is_detected(trace in arb_trace(), cut in 0usize..64) {
        prop_assume!(!trace.is_empty());
        let mut buf = Vec::new();
        io::write_trace(&trace, &mut buf).expect("write to vec");
        let cut = cut % buf.len().max(1);
        // Keep at least nothing; always strictly shorter than full.
        let truncated = &buf[..buf.len() - 1 - cut.min(buf.len() - 1)];
        prop_assert!(io::read_trace(truncated).is_err());
    }

    /// Bytes that do not start with the trace magic are refused, never
    /// a panic.
    #[test]
    fn io_arbitrary_bytes_are_rejected(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        prop_assume!(!bytes.starts_with(b"BMPT"));
        prop_assert!(io::read_trace(bytes.as_slice()).is_err());
    }

    /// A valid header followed by an arbitrary op count and arbitrary
    /// records never panics. An input that does decode yields a trace
    /// of the declared length that round-trips; a count the records
    /// cannot cover is an error, however large the count.
    #[test]
    fn io_arbitrary_records_never_panic(
        count in prop::sample::select(vec![0u64, 1, 2, 3, 7, 40, u64::MAX]),
        body in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let mut bytes = b"BMPT\x01".to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&body);
        match io::read_trace(bytes.as_slice()) {
            Ok(trace) => {
                prop_assert_eq!(trace.len() as u64, count);
                let mut buf = Vec::new();
                io::write_trace(&trace, &mut buf).expect("write to vec");
                prop_assert_eq!(io::read_trace(buf.as_slice()).expect("re-read"), trace);
            }
            Err(_) => prop_assert!(count > 0, "an empty trace needs only its header"),
        }
    }

    /// Flipping bytes of a valid encoding never panics: the result is
    /// an error, or a trace that round-trips. Damage to the magic or the
    /// version is always an error.
    #[test]
    fn io_mutated_bytes_never_panic(
        trace in arb_trace(),
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 1..8),
    ) {
        let mut buf = Vec::new();
        io::write_trace(&trace, &mut buf).expect("write to vec");
        for &(at, mask) in &flips {
            let at = (at % buf.len() as u64) as usize;
            buf[at] ^= mask;
        }
        if let Ok(back) = io::read_trace(buf.as_slice()) {
            prop_assert!(&buf[..5] == b"BMPT\x01", "a damaged header decoded");
            let mut again = Vec::new();
            io::write_trace(&back, &mut again).expect("write to vec");
            prop_assert_eq!(io::read_trace(again.as_slice()).expect("re-read"), back);
        }
    }

    /// Data-flow completion times respect dependences: a consumer never
    /// completes before its producer.
    #[test]
    fn completion_respects_dependences(trace in arb_trace()) {
        let done = completion_times(trace.ops(), |_, _| 2, |_| 0);
        for (i, op) in trace.iter().enumerate() {
            for d in op.src_distances() {
                let d = d as usize;
                if d <= i {
                    prop_assert!(
                        done[i] >= done[i - d] + 2,
                        "op {i} finished before its producer plus latency"
                    );
                }
            }
        }
    }

    /// The compiled producer table holds only backward edges: a source
    /// at distance `d <= i` compiles to producer `i - d`, and an empty
    /// slot or a distance reaching before the trace start compiles to
    /// `NO_PRODUCER`. The wakeup scheduler trusts `producers(i)[k] < i`
    /// for every real entry without checking it.
    #[test]
    fn compiled_producers_point_strictly_backward(trace in arb_trace()) {
        let ct = trace.compile();
        prop_assert_eq!(ct.len(), trace.len());
        for (i, op) in trace.iter().enumerate() {
            for (src, p) in op.srcs().into_iter().zip(ct.producers(i)) {
                let expect = match src {
                    Some(d) if d as usize <= i => i as u32 - d,
                    _ => NO_PRODUCER,
                };
                prop_assert_eq!(p, expect, "op {} source {:?}", i, src);
                prop_assert!(p == NO_PRODUCER || (p as usize) < i);
            }
        }
    }

    /// The critical path is monotone in latency and bounded by
    /// ops × max-latency.
    #[test]
    fn critical_path_bounds(trace in arb_trace()) {
        let cp1 = critical_path(trace.ops(), |_, _| 1);
        let cp3 = critical_path(trace.ops(), |_, _| 3);
        prop_assert!(cp3 >= cp1);
        prop_assert!(cp1 as usize <= trace.len().max(1));
        prop_assert!(cp3 as usize <= 3 * trace.len().max(1));
        if !trace.is_empty() {
            prop_assert!(cp1 >= 1);
        }
    }

    /// Trace statistics reconcile with direct counting.
    #[test]
    fn stats_reconcile(trace in arb_trace()) {
        let s = trace.stats();
        prop_assert_eq!(s.total() as usize, trace.len());
        let loads = trace.iter().filter(|o| o.class() == OpClass::Load).count();
        prop_assert_eq!(s.count(OpClass::Load) as usize, loads);
        let conds = trace.conditional_branch_indices().len();
        prop_assert_eq!(s.conditional_branches() as usize, conds);
    }
}

/// Power-of-two L1I line sizes spanning the configurable range.
fn arb_line_bytes() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![16u32, 32, 64, 128])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Superblock invariant 1 (module docs): the region list tiles the
    /// trace exactly — in order, no gaps, no overlap.
    #[test]
    fn superblock_regions_tile_exactly(trace in arb_trace(), lb in arb_line_bytes()) {
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, lb);
        let regions = sb.regions(&ct);
        let mut next = 0u32;
        for r in &regions {
            prop_assert_eq!(r.start, next, "region starts where the last ended");
            prop_assert!(r.len >= 1);
            next += r.len;
        }
        prop_assert_eq!(next as usize, ct.len(), "regions cover the whole trace");
    }

    /// Superblock invariants 2 and 3: a branch is always a single-op
    /// region, and no region spans an I-cache line boundary.
    #[test]
    fn superblock_regions_respect_branches_and_lines(
        trace in arb_trace(),
        lb in arb_line_bytes(),
    ) {
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, lb);
        let mask = !u64::from(lb - 1);
        for r in sb.regions(&ct) {
            let start = r.start as usize;
            let len = r.len as usize;
            let has_branch = (start..start + len)
                .any(|i| ct.flags(i) & FLAG_BRANCH != 0);
            if has_branch {
                prop_assert_eq!(r.len, 1, "branches are single-op regions");
                prop_assert_eq!(r.end, RegionEnd::Branch);
            } else {
                let line = ct.pc(start) & mask;
                for i in start..start + len {
                    prop_assert_eq!(
                        ct.pc(i) & mask, line,
                        "region {start}+{len} spans a line boundary at op {i}"
                    );
                }
            }
            // The end reason is consistent with what follows the region.
            match r.end {
                RegionEnd::Branch => {}
                RegionEnd::TraceEnd => {
                    prop_assert_eq!(start + len, ct.len());
                }
                RegionEnd::LineBreak => {
                    let next = start + len;
                    prop_assert!(next < ct.len());
                    prop_assert!(sb.is_line_start(next), "LineBreak implies a new line");
                }
            }
        }
    }

    /// Superblock invariant 4: `run_len(i)` is 0 exactly on branches and
    /// otherwise counts the ops from `i` to the end of `i`'s region —
    /// i.e. it decreases by one per op inside a region.
    #[test]
    fn superblock_run_len_semantics(trace in arb_trace(), lb in arb_line_bytes()) {
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, lb);
        for i in 0..ct.len() {
            let is_branch = ct.flags(i) & FLAG_BRANCH != 0;
            prop_assert_eq!(sb.run_len(i) == 0, is_branch, "run_len is 0 iff branch (op {i})");
        }
        for r in sb.regions(&ct) {
            // A branch region itself has run_len 0, checked above. A
            // non-branch region can also end as `Branch` (it stopped at a
            // same-line branch) and still obeys the countdown.
            if ct.flags(r.start as usize) & FLAG_BRANCH != 0 {
                continue;
            }
            for k in 0..r.len {
                prop_assert_eq!(
                    sb.run_len((r.start + k) as usize),
                    r.len - k,
                    "run_len counts the rest of the region"
                );
            }
        }
    }

    /// `is_line_start` matches the dynamic compare the reference fetch
    /// stage performs: set iff the op's line differs from its
    /// predecessor's (op 0 always starts a line).
    #[test]
    fn superblock_line_starts_match_dynamic_compare(
        trace in arb_trace(),
        lb in arb_line_bytes(),
    ) {
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, lb);
        let mask = !u64::from(lb - 1);
        for i in 0..ct.len() {
            let expect = i == 0 || (ct.pc(i) & mask) != (ct.pc(i - 1) & mask);
            prop_assert_eq!(sb.is_line_start(i), expect, "op {i}");
        }
    }

    /// Aggregate stats agree with the materialized region list, and the
    /// per-region metadata is internally consistent: FU demand sums to
    /// the region length, and reach/critical-depth respect their bounds.
    #[test]
    fn superblock_stats_and_metadata_consistent(
        trace in arb_trace(),
        lb in arb_line_bytes(),
    ) {
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, lb);
        let regions = sb.regions(&ct);
        let stats = sb.stats();
        prop_assert_eq!(stats.regions as usize, regions.len());
        let max_len = regions.iter().map(|r| r.len).max().unwrap_or(0);
        prop_assert_eq!(stats.max_len, max_len);
        if !regions.is_empty() {
            let mean = ct.len() as f64 / regions.len() as f64;
            prop_assert!((stats.mean_len - mean).abs() < 1e-9);
        }
        let line_starts = (0..ct.len()).filter(|&i| sb.is_line_start(i)).count();
        prop_assert_eq!(stats.line_starts as usize, line_starts);
        for r in &regions {
            prop_assert_eq!(
                r.fu_demand.iter().sum::<u32>(), r.len,
                "every op lands in exactly one FU pool"
            );
            prop_assert!(r.crit_depth >= 1 && r.crit_depth <= r.len);
            // Reach is measured from an op to its producer, which may sit
            // before the region but never past the trace start.
            for k in 0..r.len {
                let i = (r.start + k) as usize;
                for p in ct.producers(i) {
                    if p != u32::MAX {
                        prop_assert!(u64::from(r.max_reach) >= (i as u64) - u64::from(p));
                    }
                }
            }
        }
    }
}

/// A source slot: absent, an explicit zero distance, or any distance.
fn arb_src() -> impl Strategy<Value = Option<u32>> {
    (0u8..3, any::<u32>()).prop_map(|(k, d)| match k {
        0 => None,
        1 => Some(0),
        _ => Some(d),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every constructor's inputs come back unchanged through the
    /// accessors, for every non-memory, non-branch class, both memory
    /// classes and all five branch kinds taken and not taken, with
    /// addresses and targets over the full `u64` range. A zero distance
    /// reads back as no dependence.
    #[test]
    fn constructor_inputs_roundtrip(
        pc in any::<u64>(),
        addr in any::<u64>(),
        srcs in (arb_src(), arb_src()),
        which in 0usize..13,
        taken in any::<bool>(),
    ) {
        let srcs = [srcs.0, srcs.1];
        let want_srcs = srcs.map(|s| s.filter(|&d| d != 0));
        let alu = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::IntDiv,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::FpDiv,
        ];
        let kinds = [
            BranchKind::Conditional,
            BranchKind::Jump,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::IndirectJump,
        ];
        let (op, class, mem, branch) = match which {
            0..=5 => (MicroOp::alu(pc, alu[which], srcs), alu[which], None, None),
            6 => (MicroOp::load(pc, addr, srcs), OpClass::Load, Some(addr), None),
            7 => (MicroOp::store(pc, addr, srcs), OpClass::Store, Some(addr), None),
            _ => {
                let kind = kinds[which - 8];
                let info = BranchInfo { taken, target: addr, kind };
                (MicroOp::branch(pc, kind, taken, addr, srcs), OpClass::Branch, None, Some(info))
            }
        };
        prop_assert_eq!(op.pc(), pc);
        prop_assert_eq!(op.class(), class);
        prop_assert_eq!(op.srcs(), want_srcs);
        prop_assert_eq!(op.mem_addr(), mem);
        prop_assert_eq!(op.branch_info(), branch);
        let next = match branch {
            Some(b) if b.taken => b.target,
            _ => pc.wrapping_add(4),
        };
        prop_assert_eq!(op.next_pc(), next);
        prop_assert_eq!(
            op.is_conditional_branch(),
            branch.is_some_and(|b| b.kind == BranchKind::Conditional)
        );
    }
}
