//! Property tests on the whole-trace schedule: the structural invariants
//! every valid schedule must satisfy, checked on random workloads and
//! machine shapes.

use bmp_core::drain::{schedule_trace, FrontendEvent, MachineModel, OpTiming};
use bmp_core::{FunctionalOutcome, IntervalEventKind, PenaltyModel};
use bmp_trace::MicroOp;
use bmp_uarch::{LatencyTable, MachineConfigBuilder};
use bmp_workloads::WorkloadProfile;
use proptest::prelude::*;

fn arb_machine() -> impl Strategy<Value = bmp_uarch::MachineConfig> {
    (
        prop::sample::select(vec![2u32, 4, 8]),
        prop::sample::select(vec![2u32, 5, 12]),
        prop::sample::select(vec![16u32, 64, 128]),
    )
        .prop_map(|(width, depth, window)| {
            MachineConfigBuilder::new()
                .width(width)
                .frontend_depth(depth)
                .window_size(window)
                .rob_size(window * 2)
                .build()
                .expect("valid machine")
        })
}

fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (2.0f64..8.0, 4.0f64..12.0, 0.2f64..0.9).prop_map(|(dep, block, easy)| {
        let mut p = WorkloadProfile::default();
        p.deps.mean_distance = dep;
        p.branches.avg_block_size = block;
        p.branches.easy_frac = easy;
        p.branches.pattern_frac = (1.0 - easy) * 0.3;
        p
    })
}

/// Every op's timing, collected through the schedule's visitor.
fn collect(
    ops: &[MicroOp],
    model: MachineModel,
    lat: &LatencyTable,
    outcome: &FunctionalOutcome,
    events: &[FrontendEvent],
) -> Vec<OpTiming> {
    let mut timings = Vec::with_capacity(ops.len());
    schedule_trace(
        ops,
        model,
        lat,
        |i| outcome.load_latency(i),
        events,
        |_, t| timings.push(t),
    );
    timings
}

fn total_cycles(timings: &[OpTiming]) -> u64 {
    timings.iter().map(|t| t.done).max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Schedule sanity on arbitrary workloads and machines: entry is
    /// non-decreasing (program order enters in order), issue never
    /// precedes entry, completion strictly follows issue, and per-cycle
    /// issue never exceeds the issue width.
    #[test]
    fn schedule_invariants_hold(
        cfg in arb_machine(),
        profile in arb_profile(),
        seed in 0u64..50,
    ) {
        let trace = profile.generate(2_000, seed);
        let outcome = FunctionalOutcome::compute(trace.ops(), &cfg);
        let events: Vec<FrontendEvent> = outcome
            .events
            .iter()
            .filter_map(|e| match e.kind {
                bmp_core::IntervalEventKind::BranchMispredict => {
                    Some(FrontendEvent::Mispredict { pos: e.pos })
                }
                _ => None,
            })
            .collect();
        let s = collect(trace.ops(), MachineModel::from(&cfg), &cfg.latencies, &outcome, &events);
        let mut per_cycle = std::collections::HashMap::new();
        for i in 0..trace.len() {
            prop_assert!(s[i].issue >= s[i].enter, "op {i} issued before entering");
            prop_assert!(s[i].done > s[i].issue, "op {i} completed instantly");
            if i > 0 {
                prop_assert!(
                    s[i].enter >= s[i - 1].enter,
                    "entry must follow program order"
                );
            }
            *per_cycle.entry(s[i].issue).or_insert(0u32) += 1;
        }
        for (&cycle, &n) in &per_cycle {
            prop_assert!(
                n <= cfg.issue_width,
                "cycle {cycle} issued {n} ops on a {}-wide machine",
                cfg.issue_width
            );
        }
    }

    /// Latency monotonicity: doubling every latency can only delay
    /// completions.
    #[test]
    fn slower_latencies_never_speed_up(
        profile in arb_profile(),
        seed in 0u64..50,
    ) {
        let cfg = MachineConfigBuilder::new().build().expect("baseline");
        let trace = profile.generate(1_000, seed);
        let outcome = FunctionalOutcome::compute(trace.ops(), &cfg);
        let model = MachineModel::from(&cfg);
        let fast = collect(trace.ops(), model, &cfg.latencies, &outcome, &[]);
        let slow_lat = cfg.latencies.scaled(2.0);
        let slow = collect(trace.ops(), model, &slow_lat, &outcome, &[]);
        prop_assert!(total_cycles(&slow) >= total_cycles(&fast));
    }

    /// The penalty model is deterministic and its aggregates are finite.
    #[test]
    fn analysis_is_deterministic_and_finite(
        cfg in arb_machine(),
        profile in arb_profile(),
        seed in 0u64..50,
    ) {
        let trace = profile.generate(1_500, seed);
        let model = PenaltyModel::new(cfg);
        let a = model.analyze(&trace);
        let b = model.analyze(&trace);
        prop_assert_eq!(&a.breakdowns, &b.breakdowns);
        if let Some(p) = a.mean_penalty() {
            prop_assert!(p.is_finite() && p >= 1.0);
        }
    }

    /// Mispredict barriers enforce their defining constraint: the op
    /// after a mispredicted branch enters no earlier than the branch's
    /// completion plus the frontend refill, and ops fetched before the
    /// first misprediction are untouched.
    ///
    /// (Note: *per-op* monotonicity versus a barrier-free schedule is NOT
    /// an invariant — delaying older ops shifts issue-slot occupancy and
    /// can legally pull a younger op earlier, the classic scheduling
    /// anomaly.)
    #[test]
    fn barriers_enforce_refill(
        profile in arb_profile(),
        seed in 0u64..50,
    ) {
        let cfg = MachineConfigBuilder::new().build().expect("baseline");
        let trace = profile.generate(1_000, seed);
        let outcome = FunctionalOutcome::compute(trace.ops(), &cfg);
        let model = MachineModel::from(&cfg);
        let mispredicts: Vec<usize> = outcome
            .events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::BranchMispredict)
            .map(|e| e.pos)
            .collect();
        let events: Vec<FrontendEvent> = mispredicts
            .iter()
            .map(|&pos| FrontendEvent::Mispredict { pos })
            .collect();
        let without = collect(trace.ops(), model, &cfg.latencies, &outcome, &[]);
        let with = collect(trace.ops(), model, &cfg.latencies, &outcome, &events);
        let fe = u64::from(cfg.frontend_depth);
        for &pos in &mispredicts {
            if pos + 1 < trace.len() {
                prop_assert!(
                    with[pos + 1].enter >= with[pos].done + fe,
                    "op {} entered before the refill of the mispredict at {pos}",
                    pos + 1
                );
            }
        }
        // Prefix before the first mispredict is untouched.
        if let Some(&first) = mispredicts.first() {
            for i in 0..=first {
                prop_assert_eq!(with[i].enter, without[i].enter);
                prop_assert_eq!(with[i].done, without[i].done);
            }
        }
        // Aggregate sanity: barriers cannot make the whole run faster.
        prop_assert!(total_cycles(&with) >= total_cycles(&without));
    }
}
