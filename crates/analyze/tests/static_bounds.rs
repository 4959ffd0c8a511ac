//! Property-based soundness of the static interval analysis.
//!
//! The static pass (`bmp_analyze::staticpass::bounds`) claims two
//! things (see `docs/STATIC_ANALYSIS.md` for the derivations):
//!
//! 1. Its local contributor totals are *exact* replays of the
//!    analytical model's knockout cascade — for every machine, trace
//!    and seed, [`StaticBounds::check_model`] against the model's own
//!    totals is empty.
//! 2. Its per-misprediction resolution envelope and refill identity are
//!    *proven* — every simulated total sits inside them, whichever
//!    engine produced it.
//!
//! The unit tests pin these down at the baseline machine; this suite
//! drives them across random `(MachineConfig, WorkloadProfile, seed)`
//! triples and checks the simulator claim against **both** engines (the
//! event-driven core and the frozen reference engine), so a bound that
//! only breaks under an odd width/window/latency combination still has
//! a chance to surface.

use bmp_analyze::staticpass::bounds;
use bmp_analyze::StaticBounds;
use bmp_core::{cpi, ModelMetrics, PenaltyModel};
use bmp_sim::Simulator;
use bmp_trace::SuperblockMap;
use bmp_uarch::{presets, LatencyTable, MachineConfig, MachineConfigBuilder, PredictorConfig};
use bmp_workloads::{spec, WorkloadProfile};
use proptest::prelude::*;

/// A strategy over valid workload profiles (a representative subspace,
/// mirroring `crates/sim/tests/engine_equivalence.rs`).
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

/// A strategy over direction predictors, including `Perfect` so the
/// zero-interval degenerate case is exercised.
fn arb_predictor() -> impl Strategy<Value = PredictorConfig> {
    (
        prop::sample::select((0usize..6).collect::<Vec<_>>()),
        prop::sample::select(vec![256u32, 1024]),
        2u32..=8,
    )
        .prop_map(|(kind, entries, history_bits)| match kind {
            0 => PredictorConfig::AlwaysTaken,
            1 => PredictorConfig::AlwaysNotTaken,
            2 => PredictorConfig::Perfect,
            3 => PredictorConfig::Bimodal { entries },
            4 => PredictorConfig::GShare {
                entries,
                history_bits,
            },
            _ => PredictorConfig::Tournament {
                entries,
                history_bits,
            },
        })
}

/// A strategy over machine configurations stressing the envelope's
/// parameters: narrow and wide pipelines, windows from tiny to large
/// (the ROB anchor `M`), shallow and deep frontends (the refill term),
/// and scaled latencies (the `max_lat`/`max_occ` terms).
fn arb_config() -> impl Strategy<Value = MachineConfig> {
    (
        prop::sample::select(vec![1u32, 2, 4, 8]),      // width
        prop::sample::select(vec![16u32, 32, 64, 256]), // window
        prop::sample::select(vec![1u32, 5, 12, 30]),    // frontend depth
        prop::sample::select(vec![1.0f64, 2.0, 5.0]),   // latency scale
        arb_predictor(),
    )
        .prop_map(|(width, window, depth, lat, predictor)| {
            MachineConfigBuilder::new()
                .width(width)
                .window_size(window)
                .rob_size(window * 2)
                .frontend_depth(depth)
                .latencies(LatencyTable::default().scaled(lat))
                .predictor(predictor)
                .build()
                .expect("strategy only emits valid configs")
        })
}

proptest! {
    // Each case runs the static pass, the analytical model, and both
    // simulator engines over a few-thousand-op trace, so keep the case
    // count moderate; the space is re-sampled every CI run.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Claim 1: the static contributor totals equal the model's own
    /// totals exactly, and the model's resolution/carryover sit inside
    /// the proven envelope.
    #[test]
    fn static_bounds_match_the_model_exactly(
        cfg in arb_config(),
        profile in arb_profile(),
        seed in 0u64..1000,
    ) {
        let trace = profile.generate(2_000, seed);
        let b = bounds::compute(&cfg, &trace);
        let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
        let m = ModelMetrics::from_analysis(&analysis, cpi::predict(&trace, &cfg));
        prop_assert_eq!(m.intervals, b.intervals, "interval segmentation agrees");
        let violations = b.check_model(&m);
        prop_assert!(violations.is_empty(), "model violations: {:?}", violations);
        // Every local contributor is an exact replay, not just a range.
        for (name, bound) in b.contributor_rows() {
            if !matches!(name, "carryover (ii)" | "resolution" | "penalty") {
                prop_assert!(bound.is_exact(), "{} must be exact", name);
            }
        }
    }

    /// Claim 2: simulated resolution/refill totals from BOTH engines sit
    /// inside the static bounds (the BMP603 envelope, here checked with
    /// the exact machine configuration rather than the baseline).
    #[test]
    fn static_bounds_bracket_both_engines(
        cfg in arb_config(),
        profile in arb_profile(),
        seed in 0u64..1000,
    ) {
        let trace = profile.generate(2_000, seed);
        let b = bounds::compute(&cfg, &trace);
        let sim = Simulator::new(cfg);
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, sim.config().caches.l1i().line_bytes());
        for (engine, res) in [
            ("event", sim.try_run_compiled_with(&ct, &sb)),
            ("reference", sim.try_run_reference(&trace)),
        ] {
            let res = res.unwrap();
            let violations = b.check_sim(
                res.mispredicts.len() as u64,
                res.resolution_total(),
                res.refill_total(),
            );
            prop_assert!(
                violations.is_empty(),
                "{} engine escaped the bounds: {:?}",
                engine,
                violations
            );
        }
    }
}

/// The static pass is the model's local pass: on every preset and
/// generation machine, over every spec profile and executed kernel, the
/// bounds aggregated from a full `PenaltyModel::analyze` equal
/// `bounds::compute` field for field (the aggregation reads only the
/// local terms, which the whole-trace schedule leaves alone).
#[test]
fn bounds_aggregated_from_the_model_equal_the_static_pass() {
    let mut machines = vec![
        presets::baseline_4wide(),
        presets::wide_8way(),
        presets::alpha21264_like(),
        presets::pentium4_like(),
        presets::test_tiny(),
        presets::perfect_branches(),
        presets::deep_frontend(20).unwrap(),
        presets::scaled_latencies(2.0),
        presets::l1d_sized(16 * 1024).unwrap(),
    ];
    machines.extend(presets::GENERATIONS.map(|g| presets::generation_machine(g).unwrap()));
    let ops = 2_000;
    let traces: Vec<_> = spec::NAMES
        .iter()
        .map(|&n| (n, spec::by_name(n).unwrap().generate(ops, 42)))
        .chain(
            bmp_isa::NAMES
                .iter()
                .map(|&n| (n, bmp_isa::kernel_trace(n, ops, 42).unwrap())),
        )
        .collect();
    let mut intervals = 0;
    for cfg in &machines {
        for (name, trace) in &traces {
            let analysis = PenaltyModel::new(cfg.clone()).analyze(trace);
            let aggregated = StaticBounds::from_breakdowns(
                cfg,
                analysis.instructions,
                analysis.breakdowns.iter().copied(),
            );
            assert_eq!(aggregated, bounds::compute(cfg, trace), "{name} on {cfg}");
            intervals += aggregated.intervals;
        }
    }
    assert!(intervals > 0, "the sweep must cover mispredicted intervals");
}
