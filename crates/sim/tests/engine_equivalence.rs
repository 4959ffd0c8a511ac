//! Property-based equivalence of the event-driven engine and the frozen
//! reference engine.
//!
//! The event-driven core (compiled structure-of-arrays traces, wakeup
//! scheduling, idle-cycle skipping) is a pure performance transform: for
//! every machine configuration, workload, and seed it must produce a
//! [`SimResult`] bit-identical to the cycle-by-cycle reference engine's.
//! The unit tests in `engine.rs` pin that down for hand-picked cases;
//! this suite drives it across *random* `(MachineConfig,
//! WorkloadProfile, seed)` triples so a scheduling or skipping bug that
//! only shows under an odd width/window/latency combination still has a
//! chance to surface — and when one does, proptest shrinks it to a
//! minimal counterexample.

use bmp_sim::{SimError, SimOptions, SimResult, Simulator};
use bmp_trace::{SuperblockMap, Trace};
use bmp_uarch::{
    presets, CacheGeometry, HierarchyConfig, IndirectPredictorConfig, LatencyTable, MachineConfig,
    MachineConfigBuilder, PredictorConfig,
};
use bmp_workloads::WorkloadProfile;
use proptest::prelude::*;

/// The event-driven engine on `trace`, with its budget error kept.
fn run_event(sim: &Simulator, trace: &Trace) -> Result<SimResult, SimError> {
    let ct = trace.compile();
    let sb = SuperblockMap::build(&ct, sim.config().caches.l1i().line_bytes());
    sim.try_run_compiled_with(&ct, &sb)
}

/// A strategy over valid workload profiles (a representative subspace,
/// mirroring the workspace-level `tests/properties.rs`).
fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        0.05f64..0.4,                              // load_frac
        0.0f64..0.2,                               // store_frac
        1.5f64..10.0,                              // dep mean distance
        3.0f64..14.0,                              // avg block size
        0.0f64..0.8,                               // easy_frac
        0.0f64..0.2,                               // pattern_frac
        prop::sample::select(vec![8u64, 32, 128]), // code KiB
        0.3f64..1.0,                               // hot_frac
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

/// A strategy over direction predictors, covering every dispatch arm of
/// the engine's inline predictor — including TAGE geometries with
/// varying table counts and history spans, so the tagged-table
/// allocation and u-aging paths run under both engines.
fn arb_predictor() -> impl Strategy<Value = PredictorConfig> {
    (
        prop::sample::select((0usize..9).collect::<Vec<_>>()),
        prop::sample::select(vec![256u32, 1024]),
        2u32..=8,
        prop::sample::select(vec![1u32, 3, 5]), // TAGE tagged-table count
        8u32..=32,                              // TAGE max history
    )
        .prop_map(
            |(kind, entries, history_bits, num_tables, max_history)| match kind {
                0 => PredictorConfig::AlwaysTaken,
                1 => PredictorConfig::AlwaysNotTaken,
                2 => PredictorConfig::Perfect,
                3 => PredictorConfig::Bimodal { entries },
                4 => PredictorConfig::GShare {
                    entries,
                    history_bits,
                },
                5 => PredictorConfig::Local {
                    history_entries: entries,
                    history_bits,
                    pattern_entries: entries,
                },
                6 => PredictorConfig::Perceptron {
                    entries: 256,
                    history_bits: history_bits * 3,
                },
                7 => PredictorConfig::Tage {
                    base_entries: entries,
                    tagged_entries: 256,
                    tag_bits: 8,
                    num_tables,
                    min_history: 2,
                    max_history,
                },
                _ => PredictorConfig::Tournament {
                    entries,
                    history_bits,
                },
            },
        )
}

/// A strategy over indirect-target predictors: the plain BTB policy,
/// the gtarget cache, and ITTAGE geometries.
fn arb_indirect() -> impl Strategy<Value = IndirectPredictorConfig> {
    (
        prop::sample::select((0usize..3).collect::<Vec<_>>()),
        prop::sample::select(vec![64u32, 256]),
        prop::sample::select(vec![1u32, 2, 4]), // ITTAGE table count
    )
        .prop_map(|(kind, entries, num_tables)| match kind {
            0 => IndirectPredictorConfig::BtbLastTarget,
            1 => IndirectPredictorConfig::GTarget {
                entries,
                history_bits: 8,
            },
            _ => IndirectPredictorConfig::Ittage {
                tagged_entries: entries,
                tag_bits: 8,
                num_tables,
                min_history: 2,
                max_history: 16,
            },
        })
}

/// A strategy over machine configurations stressing the event core's
/// moving parts: narrow and wide pipelines, windows from tiny (frequent
/// dispatch stalls) to large (deep wakeup wheels), shallow and deep
/// frontends (idle-gap lengths), scaled latencies (timer-wheel overflow
/// paths), and varying L1I line sizes (superblock segmentation — region
/// boundaries and batched fetch fills move with the line size).
fn arb_config() -> impl Strategy<Value = MachineConfig> {
    (
        prop::sample::select(vec![1u32, 2, 4, 8]),      // width
        prop::sample::select(vec![16u32, 32, 64, 256]), // window
        prop::sample::select(vec![1u32, 5, 12, 30]),    // frontend depth
        prop::sample::select(vec![1.0f64, 2.0, 5.0]),   // latency scale
        prop::sample::select(vec![16u32, 32, 64, 128]), // L1I line bytes
        arb_predictor(),
        arb_indirect(),
    )
        .prop_map(|(width, window, depth, lat, line, predictor, indirect)| {
            let d = HierarchyConfig::default();
            let l1i = CacheGeometry::new(
                d.l1i().size_bytes(),
                line,
                d.l1i().ways(),
                d.l1i().hit_latency(),
            )
            .expect("power-of-two line sizes keep the geometry valid");
            let caches = HierarchyConfig::new(l1i, d.l1d(), d.l2(), d.mem_latency())
                .expect("only the L1I line size changed");
            MachineConfigBuilder::new()
                .width(width)
                .window_size(window)
                .rob_size(window * 2)
                .frontend_depth(depth)
                .latencies(LatencyTable::default().scaled(lat))
                .caches(caches)
                .predictor(predictor)
                .indirect_predictor(indirect)
                .build()
                .expect("strategy only emits valid configs")
        })
}

proptest! {
    // Each case runs both engines over a few-thousand-op trace, so keep
    // the case count moderate; the space is re-sampled every CI run.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The event-driven engine and the reference engine agree bit-for-bit
    /// on the full `SimResult` — cycles, events, mispredict records, ROB
    /// histogram, cache hierarchy, everything `PartialEq` sees.
    #[test]
    fn engines_agree_on_random_triples(
        cfg in arb_config(),
        profile in arb_profile(),
        seed in 0u64..1000,
    ) {
        let trace = profile.generate(3_000, seed);
        let sim = Simulator::new(cfg);
        let event = run_event(&sim, &trace).unwrap();
        let reference = sim.try_run_reference(&trace).unwrap();
        prop_assert_eq!(event, reference);
    }

    /// Same equivalence with cache warmup enabled: the warmup boundary
    /// interacts with idle-cycle skipping (events before the boundary are
    /// dropped from the stats but still shape timing).
    #[test]
    fn engines_agree_under_warmup(
        cfg in arb_config(),
        profile in arb_profile(),
        seed in 0u64..1000,
    ) {
        let trace = profile.generate(3_000, seed);
        let sim = Simulator::with_options(cfg, SimOptions::with_warmup(1_000));
        let event = run_event(&sim, &trace).unwrap();
        let reference = sim.try_run_reference(&trace).unwrap();
        prop_assert_eq!(event, reference);
    }

    /// Run-to-run determinism of the event engine itself: rerunning the
    /// same compiled trace on the same simulator (scratch buffers now
    /// warm and recycled) changes nothing.
    #[test]
    fn event_engine_is_deterministic_across_reruns(
        profile in arb_profile(),
        seed in 0u64..1000,
    ) {
        let trace = profile.generate(2_000, seed);
        let ct = trace.compile();
        let sim = Simulator::new(presets::baseline_4wide());
        let sb = SuperblockMap::build(&ct, sim.config().caches.l1i().line_bytes());
        let first = sim.try_run_compiled_with(&ct, &sb).unwrap();
        let second = sim.try_run_compiled_with(&ct, &sb).unwrap();
        prop_assert_eq!(first, second);
    }

    /// The per-interval records derived from each engine's event logs
    /// (with a warmup boundary slicing through the run) are identical,
    /// and obey the structural invariants the metrics pipeline relies
    /// on: the first record starts at the warmup boundary, records are
    /// contiguous, every interval ends at a logged event, branch records
    /// are one to one (in order) with the mispredict records and carry
    /// their resolution and occupancy, and refill is the frontend depth.
    #[test]
    fn engines_agree_on_interval_accounting(
        cfg in arb_config(),
        profile in arb_profile(),
        seed in 0u64..1000,
        warmup in prop::sample::select(vec![0u64, 500]),
    ) {
        use bmp_core::intervals::IntervalEventKind;

        let trace = profile.generate(3_000, seed);
        let sim = Simulator::with_options(cfg, SimOptions::with_warmup(warmup));
        let event = run_event(&sim, &trace).unwrap();
        let reference = sim.try_run_reference(&trace).unwrap();
        let records = event.interval_records(trace.len());
        prop_assert_eq!(&records, &reference.interval_records(trace.len()));

        let boundary = trace.len() as u64 - event.instructions;
        prop_assert!(boundary >= warmup);
        if warmup == 0 {
            prop_assert_eq!(boundary, 0);
        }
        if let Some(first) = records.first() {
            prop_assert_eq!(first.start, boundary);
        }
        for pair in records.windows(2) {
            prop_assert_eq!(pair[1].start, pair[0].pos + 1);
        }
        for r in &records {
            prop_assert!(r.pos >= r.start);
            prop_assert!(event.events.iter().any(|e| e.trace_idx as u64 == r.pos)
                || event.mispredicts.iter().any(|m| m.branch_idx as u64 == r.pos));
        }
        let bmiss: Vec<_> = records
            .iter()
            .filter(|r| r.kind == IntervalEventKind::BranchMispredict)
            .collect();
        prop_assert_eq!(bmiss.len(), event.mispredicts.len());
        for (r, m) in bmiss.iter().zip(&event.mispredicts) {
            prop_assert_eq!(r.pos, m.branch_idx as u64);
            prop_assert_eq!(r.resolution, m.resolution());
            prop_assert_eq!(r.occupancy, m.window_occupancy);
            prop_assert_eq!(r.refill, event.frontend_depth);
        }
    }
}
