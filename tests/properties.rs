//! Property-based integration tests: invariants that must hold for
//! *every* workload the generator can produce and every sane machine.

use mispredict::core::{segment, FunctionalOutcome, PenaltyModel};
use mispredict::sim::Simulator;
use mispredict::trace::TraceBuilder;
use mispredict::uarch::{presets, MachineConfigBuilder, PredictorConfig};
use mispredict::workloads::{micro, WorkloadProfile};
use proptest::prelude::*;

/// A strategy over valid workload profiles (a representative subspace).
fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        0.05f64..0.4,                                   // load_frac
        0.0f64..0.2,                                    // store_frac
        1.5f64..10.0,                                   // dep mean distance
        3.0f64..14.0,                                   // avg block size
        0.0f64..0.8,                                    // easy_frac
        0.0f64..0.2,                                    // pattern_frac
        prop::sample::select(vec![8u64, 32, 128, 512]), // code KiB
        0.3f64..1.0,                                    // hot_frac
    )
        .prop_map(|(load, store, dep, block, easy, pattern, code_kib, hot)| {
            let mut p = WorkloadProfile {
                name: "prop".into(),
                ..WorkloadProfile::default()
            };
            p.load_frac = load;
            p.store_frac = store;
            p.deps.mean_distance = dep;
            p.branches.avg_block_size = block;
            p.branches.easy_frac = easy;
            p.branches.pattern_frac = pattern;
            p.branches.code_footprint = code_kib * 1024;
            p.memory.hot_frac = hot;
            p.memory.warm_frac = (1.0 - hot) * 0.7;
            p
        })
        .prop_filter("profile must validate", |p| p.validate().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generator's structural invariants hold for arbitrary profiles:
    /// exact length, consistent control flow, in-range dependences.
    #[test]
    fn generated_traces_are_structurally_sound(
        profile in arb_profile(),
        n in 500usize..4000,
        seed in 0u64..1000,
    ) {
        let trace = profile.generate(n, seed);
        prop_assert_eq!(trace.len(), n);
        for pair in trace.ops().windows(2) {
            prop_assert_eq!(pair[0].next_pc(), pair[1].pc());
        }
        let mut b = TraceBuilder::with_capacity(n);
        for op in trace.iter() {
            b.push(*op).expect("dependences in range");
        }
    }

    /// The simulator commits every instruction exactly once, and IPC is
    /// bounded by the machine width, on arbitrary workloads.
    #[test]
    fn simulator_commits_everything(
        profile in arb_profile(),
        seed in 0u64..100,
    ) {
        let trace = profile.generate(3_000, seed);
        let res = Simulator::new(presets::baseline_4wide()).run(&trace);
        prop_assert_eq!(res.instructions, 3_000);
        prop_assert!(res.ipc() <= 4.0 + 1e-9);
        prop_assert!(res.cycles > 0);
    }

    /// The interval model analyzes exactly the simulator's mispredicted
    /// branches: both resolve branches through one routine, and a
    /// misprediction wins over an I-cache miss at the same instruction.
    /// Code footprints past the 32 KiB L1I put many mispredicted branches
    /// at the start of a missing fetch line, and small BTBs alias.
    #[test]
    fn model_and_sim_agree_on_mispredictions(
        profile in arb_profile(),
        code_kib in prop::sample::select(vec![64u64, 256, 1024]),
        btb_log2 in 4u32..=11,
        seed in 0u64..100,
    ) {
        let cfg = presets::baseline_4wide()
            .to_builder()
            .btb_entries(1 << btb_log2)
            .build()
            .expect("valid machine");
        let mut profile = profile;
        profile.branches.code_footprint = code_kib * 1024;
        let trace = profile.generate(3_000, seed);
        let res = Simulator::new(cfg.clone()).run(&trace);
        let analysis = PenaltyModel::new(cfg).analyze(&trace);
        let sim_positions: Vec<usize> =
            res.mispredicts.iter().map(|m| m.branch_idx).collect();
        let model_positions: Vec<usize> =
            analysis.breakdowns.iter().map(|b| b.branch_idx).collect();
        prop_assert_eq!(model_positions, sim_positions);
    }

    /// Interval segmentation partitions the trace exactly.
    #[test]
    fn intervals_partition_every_trace(
        profile in arb_profile(),
        seed in 0u64..100,
    ) {
        let cfg = presets::baseline_4wide();
        let trace = profile.generate(2_000, seed);
        let out = FunctionalOutcome::compute(trace.ops(), &cfg);
        let intervals = segment(0..trace.len(), &out.events);
        let total: usize = intervals.iter().map(|iv| iv.len()).sum();
        prop_assert_eq!(total, trace.len());
        // Intervals are contiguous and ordered.
        for pair in intervals.windows(2) {
            prop_assert_eq!(pair[0].end + 1, pair[1].start);
        }
    }

    /// The penalty decomposition always reconciles: knock-out terms sum
    /// to the local resolution; carryover bridges to the effective one.
    #[test]
    fn decomposition_always_reconciles(
        profile in arb_profile(),
        seed in 0u64..100,
    ) {
        let trace = profile.generate(2_000, seed);
        let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&trace);
        for b in &analysis.breakdowns {
            prop_assert_eq!(
                b.base + b.ilp + b.fu_latency + b.short_dmiss,
                b.local_resolution
            );
            prop_assert_eq!(
                b.local_resolution as i64 + b.carryover,
                b.resolution as i64
            );
            prop_assert!(b.base >= 1);
        }
    }

    /// Deepening the frontend can only slow a run down; width can only
    /// help (on the chain kernel where nothing else changes).
    #[test]
    fn machine_monotonicity(seed in 0u64..30) {
        let trace = micro::branch_resolution_kernel(2_000, 4, 0.5, seed);
        let depth = |d: u32| {
            let cfg = MachineConfigBuilder::new()
                .frontend_depth(d)
                .predictor(PredictorConfig::AlwaysNotTaken)
                .build()
                .unwrap();
            Simulator::new(cfg).run(&trace).cycles
        };
        prop_assert!(depth(20) >= depth(5));
    }
}
