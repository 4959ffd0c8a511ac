//! Every check holds at every scale: the static identities and bounds
//! `bmp-lint --static` applies to the published CSV tables (BMP605 and
//! the BMP70x class rules) hold on every table built at small scales and
//! other seeds, and the metrics lints (BMP5xx, BMP6xx/7xx) hold on every
//! metrics document, as `run_all` writes them.

use std::sync::Mutex;

use bmp_analyze::{lint_metrics_text, staticpass, AnalysisReport, Severity};
use bmp_bench::engine::{experiment_defs, ExperimentOutcome, RunPolicy};
use bmp_bench::{metrics, Engine, FaultPlan, Scale};

/// `(name, content)` pairs.
type Named = Vec<(String, String)>;

/// A fault-free run of the registry at `scale`: every table's CSV and
/// every metrics document's JSON, collected as `run_all` does.
fn run(scale: Scale) -> (Named, Named) {
    let defs = experiment_defs();
    let engine = Engine::new(2);
    let docs = Mutex::new(Vec::new());
    let on_done = |o: &ExperimentOutcome| {
        let doc = metrics::collect_experiment(engine.ctx(), &defs[o.index], scale);
        docs.lock().unwrap().push((doc.name.clone(), doc.to_json()));
    };
    let faults = FaultPlan::none();
    let policy = RunPolicy::with_attempts(1, &faults);
    let report = engine.run_tolerant(&defs, scale, &policy, &on_done);
    let csvs = report.outcomes.iter().map(|o| {
        let t = o.table().expect("a clean run completes");
        (format!("{}.csv", t.id), t.to_csv())
    });
    (csvs.collect(), docs.into_inner().unwrap())
}

fn assert_no_error(report: &AnalysisReport, scale: Scale) {
    assert_ne!(
        report.worst(),
        Some(Severity::Error),
        "at {scale:?}:\n{}",
        report.render_human()
    );
}

#[test]
fn every_check_holds_at_small_scales() {
    let scales = [(2_000, 42), (2_000, 7), (500, 1)];
    for (ops, seed) in scales {
        let scale = Scale { ops, seed };
        let (csvs, docs) = run(scale);
        assert_eq!(csvs.len(), 25, "the published tables");
        let mut report = AnalysisReport::default();
        for (name, csv) in &csvs {
            report.merge(staticpass::lint_csv(name, csv));
        }
        assert_no_error(&report, scale);
        if (ops, seed) != scales[0] {
            continue;
        }
        assert_eq!(docs.len(), 25, "one metrics document per experiment");
        for (name, json) in &docs {
            report.merge(AnalysisReport::new(lint_metrics_text(json)));
            report.merge(staticpass::lint_metrics_doc(name, json));
        }
        assert_no_error(&report, scale);
    }
}
