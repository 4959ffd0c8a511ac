//! `bmp-verify`: static bounds on the five penalty contributors,
//! checked against recorded results — no simulation.
//!
//! For every metrics document (written by `run_all` under
//! `BMP_METRICS=1`, default directory `results/metrics/`) this binary
//! regenerates each workload's trace from the registry, runs the
//! static pass (`bmp_analyze::staticpass`) under the machine the entry
//! was recorded with (its `predictor` tag), and prints, per
//! contributor, the guaranteed lower bound, point estimate, upper
//! bound, and the recorded model total. The BMP6xx lint family checks
//! the same documents from the same bounds, and the run ends with the
//! median point-estimate error of the static mean penalty against the
//! *simulator's* recorded mean penalty (the headline number in
//! `docs/STATIC_ANALYSIS.md`).
//!
//! Exit status: 0 when no BMP6xx error fired, 1 when one did, 2 on
//! usage errors (unreadable paths, no documents found).

use std::io::Write;
use std::process::ExitCode;

use bmp_analyze::staticpass::{self, DocBounds, StaticBounds};
use bmp_analyze::{walk_inputs, AnalysisReport, Severity};
use bmp_core::json::Value;
use bmp_core::json_object;
use bmp_core::metrics::{ExperimentMetrics, WorkloadMetrics};

const USAGE: &str = "\
bmp-verify: static interval analysis — proven bounds on the five
penalty contributors, without simulation

USAGE:
    bmp-verify [OPTIONS] [PATH]

PATH is a metrics document or a directory of them (default:
results/metrics — produce one with `BMP_METRICS=1 run_all`).

OPTIONS:
    --json        machine-readable output (one JSON document)
    -h, --help    show this help

Exit status: 0 clean, 1 when a BMP6xx bound violation fired, 2 on
usage errors. See docs/STATIC_ANALYSIS.md for the derivations.";

/// Writes a line to stdout, swallowing broken-pipe errors.
fn out(line: &str) {
    let _ = writeln!(std::io::stdout(), "{line}");
}

/// The static view of one workload of one document, plus the recorded
/// numbers it is compared against.
struct WorkloadView {
    doc: String,
    workload: String,
    /// The entry's predictor tag (empty for the baseline in v1
    /// documents).
    predictor: String,
    bounds: StaticBounds,
    /// Recorded model totals in `contributor_rows` order, when the
    /// document carries a model section for the same interval count.
    observed: Option<[i64; 8]>,
    /// Simulator mean penalty (resolution + refill per branch).
    sim_mean_penalty: Option<f64>,
    /// Static point estimate of the same mean.
    static_mean_penalty: Option<f64>,
}

impl WorkloadView {
    fn build(doc: &ExperimentMetrics, w: &WorkloadMetrics, b: StaticBounds) -> Self {
        let observed = w
            .model
            .as_ref()
            .filter(|m| m.intervals == b.intervals)
            .map(|m| {
                [
                    m.refill as i64,
                    m.base as i64,
                    m.ilp as i64,
                    m.fu_latency as i64,
                    m.short_dmiss as i64,
                    m.carryover,
                    m.resolution as i64,
                    m.resolution as i64 + m.refill as i64,
                ]
            });
        let sim_mean_penalty = w.mean_penalty();
        let static_mean_penalty = b.mean_penalty_point();
        Self {
            doc: doc.name.clone(),
            workload: w.workload.clone(),
            predictor: w.predictor.clone(),
            bounds: b,
            observed,
            sim_mean_penalty,
            static_mean_penalty,
        }
    }

    /// The `--json` entry: bounds per contributor (plus the recorded
    /// model total when there is one) and the mean penalties, rounded
    /// to 4 decimals.
    fn to_value(&self) -> Value {
        let rows = self.bounds.contributor_rows().into_iter().enumerate();
        let contributors = rows.map(|(j, (name, b))| {
            let model = self.observed.map(|o| o[j]);
            let bound = json_object! { "lo": b.lo, "point": b.point, "hi": b.hi, "model"?: model };
            (name.to_owned(), bound)
        });
        let mean_penalty = self
            .static_mean_penalty
            .zip(self.sim_mean_penalty)
            .map(|(s, m)| {
                json_object! { "static": Value::rounded(s, 4), "sim": Value::rounded(m, 4) }
            });
        json_object! {
            "experiment": self.doc.as_str(),
            "workload": self.workload.as_str(),
            "predictor"?: (!self.predictor.is_empty()).then_some(self.predictor.as_str()),
            "intervals": self.bounds.intervals,
            "contributors": Value::Object(contributors.collect()),
            "mean_penalty"?: mean_penalty,
        }
    }

    /// Relative error of the static mean-penalty point estimate
    /// against the simulator's recorded mean penalty.
    fn rel_err_vs_sim(&self) -> Option<f64> {
        match (self.static_mean_penalty, self.sim_mean_penalty) {
            (Some(s), Some(m)) if m > 0.0 => Some((s - m).abs() / m),
            _ => None,
        }
    }
}

fn render_view(v: &WorkloadView) {
    let tag = if v.predictor.is_empty() {
        String::new()
    } else {
        format!("[{}]", v.predictor)
    };
    out(&format!(
        "workload {}{tag}: {} instructions, {} branch intervals, frontend depth {}",
        v.workload, v.bounds.instructions, v.bounds.intervals, v.bounds.frontend_depth
    ));
    out(&format!(
        "  {:<14} {:>14} {:>14} {:>14} {:>14}",
        "contributor", "lower", "point", "upper", "model"
    ));
    for (i, (name, b)) in v.bounds.contributor_rows().iter().enumerate() {
        let observed = match &v.observed {
            Some(o) => o[i].to_string(),
            None => "-".to_owned(),
        };
        out(&format!(
            "  {:<14} {:>14} {:>14} {:>14} {:>14}",
            name, b.lo, b.point, b.hi, observed
        ));
    }
    match (v.static_mean_penalty, v.sim_mean_penalty) {
        (Some(s), Some(m)) if m > 0.0 => out(&format!(
            "  mean penalty: static point {s:.2}, simulated {m:.2} ({:+.1}% error)",
            (s - m) / m * 100.0
        )),
        (Some(s), _) => out(&format!(
            "  mean penalty: static point {s:.2} (no simulator record)"
        )),
        // An interval-free workload has nothing further to report.
        _ => {}
    }
}

fn render_json(views: &[WorkloadView], median: Option<f64>, report: &AnalysisReport) -> String {
    json_object! {
        "workloads": views.iter().map(WorkloadView::to_value).collect::<Value>(),
        "median_mean_penalty_err": median.map(|m| Value::rounded(m, 4)),
        "errors": report.error_count(),
        "diagnostics": report.to_value(),
    }
    .to_string()
}

fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

fn main() -> ExitCode {
    let mut json = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "-h" | "--help" => {
                out(USAGE);
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("bmp-verify: unknown option '{other}'\n\n{USAGE}");
                return ExitCode::from(2);
            }
            other => {
                if path.replace(other.to_owned()).is_some() {
                    eprintln!("bmp-verify: at most one PATH\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    let path = path.unwrap_or_else(|| "results/metrics".to_owned());

    let files = match walk_inputs(&path, "json") {
        Ok(files) => files,
        Err(e) => {
            eprintln!("bmp-verify: {e}");
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!(
            "bmp-verify: no metrics documents under '{path}' — generate \
             them with `BMP_METRICS=1 cargo run --release --bin run_all`"
        );
        return ExitCode::from(2);
    }

    let mut report = AnalysisReport::default();
    let mut views: Vec<WorkloadView> = Vec::new();

    for file in &files {
        let locus = file.path.display().to_string();
        let Ok(doc) = ExperimentMetrics::parse(&file.content) else {
            // Reported as BMP606.
            report.merge(staticpass::lint_metrics_doc(&locus, &file.content));
            continue;
        };
        // One static pass per entry, shared by the lint and the views.
        let bounds = DocBounds::new(&doc);
        report.merge(staticpass::lint_metrics(&locus, &bounds));
        if !json {
            out(&format!(
                "== {} (ops {}, seed {})",
                doc.name, doc.ops, doc.seed
            ));
        }
        for (i, w) in doc.workloads.iter().enumerate() {
            match bounds.get(i) {
                Some(b) => {
                    let view = WorkloadView::build(&doc, w, b.clone());
                    if !json {
                        render_view(&view);
                    }
                    views.push(view);
                }
                None => {
                    if !json {
                        out(&format!(
                            "workload {}: unregistered workload or predictor — \
                             static bounds unavailable",
                            w.workload
                        ));
                    }
                }
            }
        }
        if !json {
            out("");
        }
    }

    let errs: Vec<f64> = views
        .iter()
        .filter_map(WorkloadView::rel_err_vs_sim)
        .collect();
    let med = median(errs.clone());

    if json {
        out(&render_json(&views, med, &report));
    } else {
        if !report.is_clean() {
            out(&report.render_human());
        }
        match med {
            Some(m) => out(&format!(
                "median static-vs-simulated mean-penalty error over {} \
                 workload cells: {:.2}%",
                errs.len(),
                m * 100.0
            )),
            None => out("no simulator records to compare point estimates against"),
        }
        out(&format!(
            "checked {} document(s), {} workload cell(s); {} bound violation(s)",
            files.len(),
            views.len(),
            report.error_count()
        ));
    }

    if report.worst() == Some(Severity::Error) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
