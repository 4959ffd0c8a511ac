//! `bmp-verify` end to end: every entry of a metrics document is
//! checked under the machine it was recorded with, so a
//! generation-predictor entry gets that predictor's static bounds.

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

#[test]
fn predictor_tagged_entries_use_their_own_machine() {
    let baseline = presets::baseline_4wide();
    let tage = presets::generation_machine("tage").unwrap();
    let mut doc = ExperimentMetrics::new("verify_cli", OPS, SEED);
    doc.workloads
        .push(entry(&baseline, baseline.predictor.name()));
    doc.workloads.push(entry(&tage, "tage"));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("verify_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.json");
    std::fs::write(&path, doc.to_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_bmp-verify"))
        .arg("--json")
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "bmp-verify failed:\n{stdout}");
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
    // interval counts agree.
    let contributors = tage_entry
        .get("contributors")
        .unwrap()
        .as_object("contributors")
        .unwrap();
    let base = contributors.get("base").unwrap().as_object("base").unwrap();
    assert_eq!(
        base.get_i64("model").unwrap(),
        base.get_i64("point").unwrap()
    );
}
