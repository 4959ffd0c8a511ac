//! Exactness of the fused knock-out kernel: `drain::knockout_interval`
//! must equal the four-schedule cascade over `schedule_interval`, field
//! for field, on every interval of random workloads and machine shapes,
//! reading the trace in either layout.

use bmp_core::drain::{
    knockout_interval, schedule_interval, KnockoutScratch, LocalTerms, WindowParams,
};
use bmp_core::intervals::segment;
use bmp_core::FunctionalOutcome;
use bmp_trace::{BranchKind, MicroOp, Trace};
use bmp_uarch::{presets, LatencyTable, OpClass};
use bmp_workloads::spec;
use proptest::prelude::*;

/// The reference decomposition: four independent schedules, each
/// knocked-out resolution floored by the fuller one.
fn oracle(
    ops: &[MicroOp],
    params: WindowParams,
    lat: &LatencyTable,
    l1_hit: u32,
    loads: &[Option<u32>],
) -> LocalTerms {
    let unit = LatencyTable::unit();
    let b = ops.len() - 1;
    let r_local = schedule_interval(ops, params, lat, |i| loads[i], false).resolution(b);
    let r_l1 = schedule_interval(ops, params, lat, |_| Some(l1_hit), false)
        .resolution(b)
        .min(r_local);
    let r_unit = schedule_interval(ops, params, &unit, |_| Some(1), false)
        .resolution(b)
        .min(r_l1);
    let r_base = schedule_interval(ops, params, &unit, |_| Some(1), true)
        .resolution(b)
        .min(r_unit);
    LocalTerms {
        local_resolution: r_local,
        base: r_base,
        ilp: r_unit - r_base,
        fu_latency: r_l1 - r_unit,
        short_dmiss: r_local - r_l1,
    }
}

fn params(dispatch_width: u32, window_size: u32) -> WindowParams {
    WindowParams {
        dispatch_width,
        window_size,
    }
}

fn branch(pc: u64, srcs: [Option<u32>; 2]) -> MicroOp {
    MicroOp::branch(pc, BranchKind::Conditional, true, 0x40, srcs)
}

/// The kernel over `ops` as one whole interval, on the array-of-structs
/// slice and on its compiled form; the two must agree.
fn kernel(
    ops: &[MicroOp],
    params: WindowParams,
    lat: &LatencyTable,
    l1_hit: u32,
    loads: &[Option<u32>],
) -> LocalTerms {
    let compiled = Trace::from_ops_unchecked(ops.to_vec()).compile();
    let mut scratch = KnockoutScratch::default();
    let aos = knockout_interval(
        ops,
        0..ops.len(),
        params,
        lat,
        l1_hit,
        |i| loads[i],
        &mut scratch,
    );
    let soa = knockout_interval(
        &compiled,
        0..ops.len(),
        params,
        lat,
        l1_hit,
        |i| loads[i],
        &mut scratch,
    );
    assert_eq!(aos, soa, "the layouts agree");
    aos
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every interval of a spec-profile trace, under a random window,
    /// dispatch width, latency scaling and L1 hit latency. Windows run
    /// from 1 to 256, so intervals fall both shorter and longer than the
    /// window; one scratch serves every interval, so stale slots from a
    /// longer interval would show. Every fifth load loses its recorded
    /// latency to exercise the table fallback.
    #[test]
    fn fused_kernel_equals_schedule_cascade(
        name in prop::sample::select(spec::NAMES.to_vec()),
        seed in 0u64..1_000,
        window in 1u32..=256,
        width in 1u32..=8,
        scale in 0.5f64..4.0,
        l1_hit in 1u32..=8,
    ) {
        let trace = spec::by_name(name).expect("spec profile").generate(3_000, seed);
        let outcome = FunctionalOutcome::compute(trace.ops(), &presets::baseline_4wide());
        let mut loads: Vec<_> = (0..trace.len()).map(|i| outcome.load_latency(i)).collect();
        for (i, l) in loads.iter_mut().enumerate() {
            if (i as u64 + seed).is_multiple_of(5) {
                *l = None;
            }
        }
        let lat = LatencyTable::default().scaled(scale);
        let p = params(width, window);
        let compiled = trace.compile();
        let mut scratch = KnockoutScratch::default();
        for iv in segment(0..trace.len(), &outcome.events) {
            let range = iv.start..iv.end + 1;
            let want = oracle(
                &trace.ops()[range.clone()],
                p,
                &lat,
                l1_hit,
                &loads[range.clone()],
            );
            let lds = |i: usize| loads[i];
            let aos = knockout_interval(trace.ops(), range.clone(), p, &lat, l1_hit, lds, &mut scratch);
            let soa = knockout_interval(&compiled, range, p, &lat, l1_hit, lds, &mut scratch);
            prop_assert_eq!(aos, want, "{} interval {}..={}", name, iv.start, iv.end);
            prop_assert_eq!(soa, want, "{} interval {}..={} compiled", name, iv.start, iv.end);
            prop_assert_eq!(
                aos.base + aos.ilp + aos.fu_latency + aos.short_dmiss,
                aos.local_resolution
            );
        }
    }
}

#[test]
fn single_op_interval() {
    let ops = [branch(0, [Some(3), None])];
    let lat = LatencyTable::default();
    let got = kernel(&ops, params(4, 64), &lat, 2, &[None]);
    assert_eq!(got, oracle(&ops, params(4, 64), &lat, 2, &[None]));
    // Enter 0, issue 1, done 2: the whole resolution is the floor.
    assert_eq!(got.local_resolution, 2);
    assert_eq!(got.base, 2);
    assert_eq!(got.ilp + got.fu_latency + got.short_dmiss, 0);
}

#[test]
fn load_without_latency_falls_back_to_table() {
    let mut cycles = [1u32; 9];
    cycles[OpClass::Load.index()] = 7;
    let lat = LatencyTable::new(cycles).expect("non-zero latencies");
    let ops = [
        MicroOp::load(0, 0x100, [None, None]),
        branch(4, [Some(1), None]),
    ];
    let got = kernel(&ops, params(4, 64), &lat, 2, &[None, None]);
    assert_eq!(got, oracle(&ops, params(4, 64), &lat, 2, &[None, None]));
    // Real lane: the load takes the table's 7 cycles (done 8), the
    // branch completes at 9 having entered at 0.
    assert_eq!(got.local_resolution, 9);
    assert_eq!(got.short_dmiss, 9 - 4, "L1 lane: load done 3, branch 4");
}

#[test]
fn scratch_reuse_matches_fresh_scratch() {
    let trace = spec::by_name("mcf")
        .expect("spec profile")
        .generate(4_000, 9);
    let outcome = FunctionalOutcome::compute(trace.ops(), &presets::baseline_4wide());
    let lat = LatencyTable::default();
    let p = params(4, 16);
    let compiled = trace.compile();
    let mut shared = KnockoutScratch::default();
    let mut intervals = segment(0..trace.len(), &outcome.events);
    // Longest first, so every later interval runs over stale slots.
    intervals.sort_by_key(|iv| std::cmp::Reverse(iv.len()));
    for iv in intervals {
        let range = iv.start..iv.end + 1;
        let lds = |i| outcome.load_latency(i);
        let reused = knockout_interval(&compiled, range.clone(), p, &lat, 2, lds, &mut shared);
        let fresh = knockout_interval(
            trace.ops(),
            range,
            p,
            &lat,
            2,
            lds,
            &mut KnockoutScratch::default(),
        );
        assert_eq!(reused, fresh);
    }
}
