//! Observability-layer regression tests: the metrics pipeline (collect →
//! save → load → report/diff) against committed golden output, and the
//! zero-observable-effect guarantee that turning metrics on changes no
//! CSV byte.
//!
//! To regenerate the golden diff after an *intentional* model change:
//!
//! ```sh
//! BMP_GOLDEN_REGEN=1 cargo test -p bmp-bench --test metrics_report
//! ```

use bmp_bench::engine::{experiment_defs, EngineChoice, ExperimentDef};
use bmp_bench::{collect_experiment, metrics, report, Ctx, Scale};
use bmp_core::ExperimentMetrics;

fn def(name: &str) -> ExperimentDef {
    experiment_defs()
        .into_iter()
        .find(|d| d.name == name)
        .expect("known experiment")
}

fn run_at(seed: u64, names: &[&str]) -> Vec<ExperimentMetrics> {
    let ctx = Ctx::with_engine(EngineChoice::EventDriven);
    let scale = Scale { ops: 2_000, seed };
    names
        .iter()
        .map(|n| collect_experiment(&ctx, &def(n), scale))
        .collect()
}

/// Golden-file test on a known pair of metrics runs: the same two
/// experiments at seeds 42 and 43 produce a fixed diff. Catches drift
/// in the accounting itself *and* in the diff renderer.
#[test]
fn diff_of_known_runs_matches_golden() {
    let names = ["fig3_penalty_vs_interval", "table2_benchmarks"];
    let old = run_at(42, &names);
    let new = run_at(43, &names);
    let rendered = report::diff(&old, &new).render();

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_diff.txt");
    if std::env::var_os("BMP_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, expected,
        "metrics diff drifted from the committed golden; \
         if intentional, regenerate with BMP_GOLDEN_REGEN=1"
    );
}

/// The full file pipeline: save both runs to disk, load them back the
/// way `bmp-report` does, and check the diff is unchanged by the
/// round-trip (and empty for identical runs).
#[test]
fn diff_survives_the_file_round_trip() {
    let names = ["fig3_penalty_vs_interval"];
    let old = run_at(42, &names);
    let new = run_at(43, &names);
    let in_memory = report::diff(&old, &new).render();

    let tmp = std::env::temp_dir().join(format!("bmp_metrics_diff_{}", std::process::id()));
    let (old_dir, new_dir) = (tmp.join("old"), tmp.join("new"));
    for (dir, docs) in [(&old_dir, &old), (&new_dir, &new)] {
        for doc in docs.iter() {
            metrics::save_metrics(dir, doc).expect("save metrics");
        }
    }
    let old_loaded = report::load_dir(&old_dir.join("metrics")).expect("load old");
    let new_loaded = report::load_dir(&new_dir.join("metrics")).expect("load new");
    std::fs::remove_dir_all(&tmp).ok();

    assert_eq!(old_loaded, old);
    assert_eq!(report::diff(&old_loaded, &new_loaded).render(), in_memory);
    assert!(report::diff(&old_loaded, &old_loaded).is_empty());
}

/// Turning metrics on must not change a single CSV byte: the three
/// committed golden tables reproduce exactly from a context that has
/// already collected their metrics (the metrics-off identity is the
/// existing `golden_tables` test).
#[test]
fn metrics_on_tables_match_the_committed_goldens() {
    let scale = Scale {
        ops: 2_000,
        seed: 42,
    };
    let ctx = Ctx::with_engine(EngineChoice::EventDriven);
    for (name, produce) in [
        (
            "fig2_penalty_per_benchmark",
            bmp_bench::experiments::fig2_penalty_per_benchmark
                as fn(&Ctx, Scale) -> bmp_bench::Table,
        ),
        (
            "fig5_contributor_breakdown",
            bmp_bench::experiments::fig5_contributor_breakdown,
        ),
        (
            "fig10_model_validation",
            bmp_bench::experiments::fig10_model_validation,
        ),
    ] {
        let doc = collect_experiment(&ctx, &def(name), scale);
        assert!(doc.workloads.iter().any(|w| w.intervals.total() > 0));
        let table = produce(&ctx, scale);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.csv"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            table.to_csv(),
            expected,
            "{name}: collecting metrics must not perturb the table"
        );
    }
}
