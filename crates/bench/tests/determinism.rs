//! The engine's central guarantee: the produced tables are byte-identical
//! for any thread count. Every count runs the same cell fan-out and
//! experiment schedule — `BMP_THREADS=1` runs both phases inline — so
//! comparing it against an 8-worker run covers the result merge order and
//! the cache under concurrency, and the work done must match exactly.

use bmp_bench::engine::{defs_named, RunPolicy, TolerantReport};
use bmp_bench::{Engine, FaultPlan, Scale};

/// A cross-section of the registry: both tables, figure experiments that
/// share baseline/oracle/warmup simulations, a microbenchmark sweep, and
/// two extension studies.
const SUBSET: &[&str] = &[
    "table1_config",
    "table2_benchmarks",
    "fig2_penalty_per_benchmark",
    "fig5_contributor_breakdown",
    "fig8_ilp",
    "fig10_model_validation",
    "ex5_occupancy_study",
    "ex8_warmup_study",
    "ex_predictor_generations",
    "ex_h2p_contributors",
];

/// `(id, CSV)` per experiment of a fault-free, single-attempt run of
/// `names` on `engine`, in merge order, plus the run's report.
fn run(engine: &Engine, names: &[&str]) -> (Vec<(String, String)>, TolerantReport) {
    let scale = Scale {
        ops: 2_000,
        seed: 42,
    };
    let faults = FaultPlan::none();
    let policy = RunPolicy::with_attempts(1, &faults);
    let report = engine.run_tolerant(&defs_named(names).unwrap(), scale, &policy, &|_| {});
    let csvs = report.outcomes.iter().map(|o| {
        let t = o.table().expect("a clean run completes");
        (t.id.clone(), t.to_csv())
    });
    (csvs.collect(), report)
}

#[test]
fn results_are_identical_for_any_thread_count() {
    let (sequential, seq_report) = run(&Engine::new(1), SUBSET);
    let (parallel, par_report) = run(&Engine::new(8), SUBSET);

    assert_eq!(sequential.len(), SUBSET.len());
    assert_eq!(parallel.len(), SUBSET.len());
    for ((seq_id, seq), (par_id, par)) in sequential.iter().zip(&parallel) {
        assert_eq!(seq_id, par_id, "merge order must be the registry order");
        assert_eq!(
            seq, par,
            "{seq_id}: 1-thread and 8-thread CSVs must match byte for byte"
        );
    }
    // One schedule: the same cells fan out and the same artifacts are
    // computed at either thread count.
    let work = |r: &TolerantReport| {
        let c = r.cache;
        (
            r.cells,
            r.cells_requested,
            [
                c.trace_misses,
                c.sim_misses,
                c.functional_misses,
                c.analysis_misses,
                c.static_misses,
            ],
        )
    };
    assert_eq!(work(&seq_report), work(&par_report));
}

#[test]
fn repeated_runs_share_the_cache() {
    let engine = Engine::new(4);
    let (first, first_report) = run(&engine, &["fig2_penalty_per_benchmark"]);
    let (second, second_report) = run(&engine, &["fig2_penalty_per_benchmark"]);
    assert_eq!(first, second, "a warm cache must not change the result");
    // The second run computed nothing new.
    let (a, b) = (first_report.cache, second_report.cache);
    assert_eq!(
        b.trace_misses + b.sim_misses + b.analysis_misses,
        a.trace_misses + a.sim_misses + a.analysis_misses,
        "every artifact of the repeat run must come from the cache"
    );
}
