//! `bmp-lint --static` end to end: every entry of a metrics document is
//! checked under the machine it was recorded with, so a
//! generation-predictor entry gets that predictor's static bounds, and
//! the report names every published CSV table no static check covers;
//! an unknown option is a usage error.

use std::process::Command;

use bmp_analyze::staticpass::bounds;
use bmp_core::json::{self, ObjectExt};
use bmp_core::{accounting, cpi, ExperimentMetrics, ModelMetrics, PenaltyModel, WorkloadMetrics};
use bmp_trace::Trace;
use bmp_uarch::{presets, MachineConfig};
use bmp_workloads::spec;

const OPS: u64 = 6_000;
const SEED: u64 = 7;

fn gzip() -> Trace {
    spec::by_name("gzip")
        .expect("spec profile")
        .generate(OPS as usize, SEED)
}

/// A `gzip` entry whose sim and model sections are the analysis under
/// `cfg`, tagged with `predictor`.
fn entry(cfg: &MachineConfig, predictor: &str) -> WorkloadMetrics {
    let trace = gzip();
    let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
    let mut w = WorkloadMetrics::from_records(
        "gzip",
        trace.len() as u64,
        10_000,
        analysis.frontend_depth,
        analysis.breakdowns.len() as u64,
        &accounting::records_from_analysis(&analysis),
    );
    w.predictor = predictor.into();
    w.model = Some(ModelMetrics::from_analysis(
        &analysis,
        cpi::predict(&trace, cfg),
    ));
    w
}

/// Writes `doc` to a file of its own and runs `bmp-lint` with `args`
/// followed by that path; returns stdout, asserting a clean exit.
fn lint_doc(doc: &ExperimentMetrics, file: &str, args: &[&str]) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_cli");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join(file);
    std::fs::write(&path, doc.to_json()).expect("metrics document written");
    let out = Command::new(env!("CARGO_BIN_EXE_bmp-lint"))
        .args(args)
        .arg(&path)
        .output()
        .expect("bmp-lint runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "bmp-lint failed:\n{stdout}");
    stdout
}

#[test]
fn predictor_tagged_entries_use_their_own_machine() {
    let baseline = presets::baseline_4wide();
    let tage = presets::generation_machine("tage").unwrap();
    let mut doc = ExperimentMetrics::new("lint_cli", OPS, SEED);
    doc.workloads
        .push(entry(&baseline, baseline.predictor.name()));
    doc.workloads.push(entry(&tage, "tage"));
    let stdout = lint_doc(&doc, "tagged.json", &["--json", "--static"]);
    let report = json::parse(&stdout).unwrap();
    let fields = report.as_object("report").unwrap();
    assert_eq!(fields.get_u64("errors").unwrap(), 0, "{stdout}");
    let workloads = fields
        .get("workloads")
        .unwrap()
        .as_array("workloads")
        .unwrap();
    assert_eq!(workloads.len(), 2, "{stdout}");
    // Entries come out in document order.
    let tage_entry = workloads[1].as_object("workload").unwrap();

    let trace = gzip();
    let want = bounds::compute(&tage, &trace).intervals;
    assert_ne!(
        want,
        bounds::compute(&baseline, &trace).intervals,
        "the two predictors must mispredict differently for this check to bite"
    );
    assert_eq!(tage_entry.get_u64("intervals").unwrap(), want);
    let tag = tage_entry
        .get("predictor")
        .map(|p| p.as_string("predictor").unwrap());
    assert_eq!(tag, Some("tage"));
    // The recorded model totals sit next to the bounds once the
    // interval counts agree; an exact row's bounds collapse onto them.
    let contributors = tage_entry
        .get("contributors")
        .unwrap()
        .as_object("contributors")
        .unwrap();
    let base = contributors.get("base").unwrap().as_object("base").unwrap();
    let model = base.get_i64("model").unwrap();
    assert_eq!(model, base.get_i64("lo").unwrap());
    assert_eq!(model, base.get_i64("hi").unwrap());
}

/// The table prints the model's mean penalty, not the local half of
/// it, and `-` where an entry has no model section.
#[test]
fn tables_print_the_model_penalty() {
    let baseline = presets::baseline_4wide();
    let mut doc = ExperimentMetrics::new("lint_cli", OPS, SEED);
    doc.workloads.push(entry(&baseline, ""));
    let mut bare = entry(&baseline, "");
    bare.model = None;
    doc.workloads.push(bare);
    let model = PenaltyModel::new(baseline)
        .analyze(&gzip())
        .mean_penalty()
        .unwrap();

    let human = lint_doc(&doc, "tables.json", &["--static"]);
    // The sim section is built from the same analysis, so they agree.
    let line = format!("mean penalty: model {model:.2}, simulated {model:.2} (+0.0%)");
    assert!(human.contains(&line), "{human}");
    assert!(human.contains("(no model section)"), "{human}");
    assert_eq!(human.matches("  contributor ").count(), 2, "{human}");
    assert!(
        human.contains("mean-penalty error over 1 workload cell(s): 0.00%"),
        "{human}"
    );

    let stdout = lint_doc(&doc, "tables.json", &["--json", "--static"]);
    let report = json::parse(&stdout).unwrap();
    let fields = report.as_object("report").unwrap();
    assert_eq!(fields.get_f64("median_mean_penalty_err").unwrap(), 0.0);
    let workloads = fields
        .get("workloads")
        .unwrap()
        .as_array("workloads")
        .unwrap();
    let first = workloads[0].as_object("workload").unwrap();
    let mean = first
        .get("mean_penalty")
        .unwrap()
        .as_object("mean_penalty")
        .unwrap();
    assert!((mean.get_f64("model").unwrap() - model).abs() < 1e-4);
    let second = workloads[1].as_object("workload").unwrap();
    assert!(second.get("mean_penalty").is_none(), "{stdout}");
}

/// The published tables with no static checks. A committed CSV whose
/// header drifts from its table's schema is unchecked too, and fails
/// this test instead of dropping out of BMP605 silently.
const UNCHECKED_CSVS: [&str; 9] = [
    "ex1_predictor_study.csv",
    "ex4_prefetch_study.csv",
    "ex6_replacement_study.csv",
    "ex7_indirect_study.csv",
    "ex8_warmup_study.csv",
    "ex_isa_vs_synthetic.csv",
    "fig1_interval_profile.csv",
    "table1_config.csv",
    "table2_benchmarks.csv",
];

/// Over the committed `results/*.csv` (copied alone, so no metrics
/// directory comes along), `--static` checks 16 tables and names the
/// other 9, in both output forms.
#[test]
fn static_names_the_unchecked_csvs() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_cli_csvs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut copied = 0;
    for entry in std::fs::read_dir(&results).expect("results directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|x| x == "csv") {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).expect("CSV copied");
            copied += 1;
        }
    }
    assert_eq!(copied, 25, "the published tables");
    let run = |json: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_bmp-lint"));
        if json {
            cmd.arg("--json");
        }
        let out = cmd
            .arg("--static")
            .arg(&dir)
            .output()
            .expect("bmp-lint runs");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        assert!(out.status.success(), "bmp-lint failed:\n{stdout}");
        stdout
    };

    let stdout = run(true);
    let report = json::parse(&stdout).unwrap();
    let fields = report.as_object("report").unwrap();
    assert_eq!(fields.get_u64("csvs_checked").unwrap(), 16, "{stdout}");
    let unchecked: Vec<&str> = fields
        .get("csvs_unchecked")
        .unwrap()
        .as_array("csvs_unchecked")
        .unwrap()
        .iter()
        .map(|v| v.as_string("csv").unwrap())
        .collect();
    assert_eq!(unchecked, UNCHECKED_CSVS, "{stdout}");

    let human = run(false);
    let line = format!(
        "checked 16 of 25 CSV table(s) against static identities; \
         no static checks, unchecked: {}",
        UNCHECKED_CSVS.join(", ")
    );
    assert!(human.contains(&line), "{human}");
}

/// An unknown option — including the retired `--store` — is a usage
/// error: exit 2 with the usage on stderr, so a script passing it fails
/// loudly instead of linting nothing.
#[test]
fn an_unknown_option_is_a_usage_error() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for args in [&["--store", dir.to_str().unwrap()][..], &["--frobnicate"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_bmp-lint"))
            .args(args)
            .output()
            .expect("bmp-lint runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("UTF-8 output");
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
}
