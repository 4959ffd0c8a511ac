//! `bmp-lint`: run the model-consistency lint rules from the command
//! line.
//!
//! With no path option it sweeps every input the workspace generates:
//! each machine preset on its own, then every workload profile in the
//! SPEC-like table and every executed RV32IM kernel, checking trace
//! well-formedness and — by running the interval model, the CPI stack
//! and the simulator on each trace — result conservation; the kernels
//! also get the executed-trace provenance rules. Each path option runs
//! only its own pass. With `--static` it is the static-bounds tool: for
//! every metrics entry it prints the proven contributor bounds next to
//! the interval model's recorded totals, and ends with the median
//! model-vs-simulated mean-penalty error and the CSV tables no static
//! check covers. Exit status: 0 clean (warnings allowed), 1 when any
//! error-severity finding fires, 2 on usage errors.

use std::io::Write;
use std::process::ExitCode;

use bmp_analyze::staticpass::{self, DocBounds, StaticBounds};
use bmp_analyze::{analyze, lint_sim_result, walk_inputs, AnalysisReport, Diagnostic, Severity};
use bmp_core::json::Value;
use bmp_core::json_object;
use bmp_core::metrics::{ExperimentMetrics, ModelMetrics, WorkloadMetrics};
use bmp_sim::Simulator;
use bmp_trace::Trace;
use bmp_uarch::{presets, MachineConfig};
use bmp_workloads::{spec, WorkloadProfile};

const USAGE: &str = "\
bmp-lint: static model-consistency linter (BMP rule codes)

USAGE:
    bmp-lint [--json] [--ops N] [--journal PATH] [--metrics PATH] [--static PATH]

With no PATH option, lints every input the workspace generates: each
machine preset (BMP0xx), then every workload profile and executed
RV32IM kernel trace at --ops (BMP1xx, BMP2xx; BMP9xx on the kernels).
Each PATH option runs only its own pass.

OPTIONS:
    --json            render the report as one JSON object instead of text
    --ops N           trace length of the generated traces (default 2000)
    --journal PATH    lint a run journal (results/run_journal.json) with
                      the BMP4xx rules
    --metrics PATH    lint a metrics document (results/metrics/*.json) or
                      a whole metrics directory with the BMP5xx rules
    --static PATH     cross-check simulated results against statically
                      proven contributor bounds (BMP6xx). PATH is a
                      results directory (lints its *.csv tables and its
                      metrics/ subdirectory), a single CSV table, or a
                      single metrics document. Prints each metrics
                      entry's bounds next to the model's recorded
                      totals, the median model-vs-simulated mean
                      penalty error, and how many CSV tables the
                      static checks cover, naming the rest (with
                      --json: a \"workloads\" array,
                      \"median_mean_penalty_err\", \"csvs_checked\" and
                      \"csvs_unchecked\")
    -h, --help        show this help

Severities: errors make the exit status 1; warnings and infos do not.
See docs/ANALYZER.md for the BMP code catalogue.";

/// The machine presets the sweep lints, by stable name.
fn all_presets() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("baseline_4wide", presets::baseline_4wide()),
        ("wide_8way", presets::wide_8way()),
        ("alpha21264_like", presets::alpha21264_like()),
        ("pentium4_like", presets::pentium4_like()),
        ("test_tiny", presets::test_tiny()),
        ("perfect_branches", presets::perfect_branches()),
        (
            "deep_frontend_20",
            presets::deep_frontend(20).expect("valid preset"),
        ),
        ("scaled_latencies_2x", presets::scaled_latencies(2.0)),
        (
            "l1d_16k",
            presets::l1d_sized(16 * 1024).expect("valid preset"),
        ),
    ]
}

/// Parsed command line.
struct Options {
    json: bool,
    ops: usize,
    journal: Option<String>,
    metrics: Option<String>,
    statics: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        ops: 2000,
        journal: None,
        metrics: None,
        statics: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a {what}"))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--journal" => opts.journal = Some(value("path")?),
            "--metrics" => opts.metrics = Some(value("path")?),
            "--static" => opts.statics = Some(value("path")?),
            "--ops" => {
                let v = value("count")?;
                opts.ops = v
                    .parse::<usize>()
                    .map_err(|_| format!("--ops: '{v}' is not a count"))?;
                if opts.ops == 0 {
                    return Err("--ops must be positive".to_owned());
                }
            }
            "-h" | "--help" => {
                out(USAGE);
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

/// Prefixes every diagnostic locus with the target it was found in, so
/// one merged report stays attributable.
fn scoped(target: &str, mut report: AnalysisReport) -> AnalysisReport {
    for d in &mut report.diagnostics {
        d.locus = format!("{target}: {}", d.locus);
    }
    report
}

/// One generated trace: well-formedness, the executed-trace provenance
/// rules when `executed`, and model- and simulator-side conservation on
/// `simulator`'s machine.
fn lint_trace(
    target: &str,
    trace: &Trace,
    simulator: &Simulator,
    executed: bool,
) -> AnalysisReport {
    let reference = simulator.config();
    let mut report = analyze(reference, Some(trace));
    if executed {
        report.merge(AnalysisReport::new(bmp_analyze::lint_executed_trace(trace)));
    }
    let result = simulator.run(trace);
    report.merge(AnalysisReport::new(lint_sim_result(&result, reference)));
    scoped(target, report)
}

/// One workload profile: `BMP100` when the profile fails its own
/// `validate()`, otherwise its generated trace through [`lint_trace`].
fn lint_profile(profile: &WorkloadProfile, ops: usize, simulator: &Simulator) -> AnalysisReport {
    let target = format!("profile {}", profile.name);
    if let Err(e) = profile.validate() {
        let d = Diagnostic::error(
            "BMP100",
            "profile",
            format!("profile does not validate: {e}"),
        );
        return scoped(&target, AnalysisReport::new(vec![d]));
    }
    lint_trace(&target, &profile.generate(ops, 1), simulator, false)
}

/// Writes a line to stdout, swallowing broken-pipe errors so
/// `bmp-lint | head` exits cleanly instead of panicking.
fn out(line: &str) {
    let _ = writeln!(std::io::stdout(), "{line}");
}

/// One metrics entry's static bounds beside the numbers recorded for
/// it: the `--static` table.
struct BoundTable<'a> {
    entry: &'a WorkloadMetrics,
    bounds: &'a StaticBounds,
    /// The entry's model section, when it covers the same intervals as
    /// the bounds.
    model: Option<&'a ModelMetrics>,
}

impl<'a> BoundTable<'a> {
    fn new(entry: &'a WorkloadMetrics, bounds: &'a StaticBounds) -> Self {
        let model = entry
            .model
            .as_ref()
            .filter(|m| m.intervals == bounds.intervals);
        Self {
            entry,
            bounds,
            model,
        }
    }

    /// The recorded model totals in `contributor_rows` order.
    fn model_totals(&self) -> Option<[i64; 8]> {
        self.model.map(|m| {
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
        })
    }

    /// The model's and the simulator's mean penalty (resolution +
    /// refill per misprediction), when both are recorded.
    fn mean_penalties(&self) -> Option<(f64, f64)> {
        let m = self.model.filter(|m| m.intervals > 0)?;
        let model = (m.resolution as f64 + m.refill as f64) / m.intervals as f64;
        let sim = self.entry.mean_penalty().filter(|&sim| sim > 0.0)?;
        Some((model, sim))
    }

    /// Relative error of the model's mean penalty against the
    /// simulator's.
    fn rel_err(&self) -> Option<f64> {
        self.mean_penalties()
            .map(|(model, sim)| (model - sim).abs() / sim)
    }

    /// The `--json` entry; mean penalties rounded to 4 decimals.
    fn to_value(&self, experiment: &str) -> Value {
        let totals = self.model_totals();
        let rows = self.bounds.contributor_rows().into_iter().enumerate();
        let contributors = rows.map(|(j, (name, b))| {
            let model = totals.map(|t| t[j]);
            (
                name.to_owned(),
                json_object! { "lo": b.lo, "hi": b.hi, "model"?: model },
            )
        });
        let mean_penalty = self.mean_penalties().map(|(model, sim)| {
            json_object! { "model": Value::rounded(model, 4), "sim": Value::rounded(sim, 4) }
        });
        let predictor = &self.entry.predictor;
        json_object! {
            "experiment": experiment,
            "workload": self.entry.workload.as_str(),
            "predictor"?: (!predictor.is_empty()).then_some(predictor.as_str()),
            "intervals": self.bounds.intervals,
            "contributors": Value::Object(contributors.collect()),
            "mean_penalty"?: mean_penalty,
        }
    }

    fn render(&self) {
        let (w, b) = (self.entry, self.bounds);
        let tag = if w.predictor.is_empty() {
            String::new()
        } else {
            format!("[{}]", w.predictor)
        };
        out(&format!(
            "workload {}{tag}: {} instructions, {} branch intervals, frontend depth {}",
            w.workload, b.instructions, b.intervals, b.frontend_depth
        ));
        out(&format!(
            "  {:<16} {:>14} {:>14} {:>14}",
            "contributor", "lower", "upper", "model"
        ));
        let totals = self.model_totals();
        for (j, (name, bound)) in b.contributor_rows().iter().enumerate() {
            let model = totals.map_or("-".to_owned(), |t| t[j].to_string());
            out(&format!(
                "  {name:<16} {:>14} {:>14} {model:>14}",
                bound.lo, bound.hi
            ));
        }
        match (self.mean_penalties(), w.mean_penalty()) {
            (Some((model, sim)), _) => out(&format!(
                "  mean penalty: model {model:.2}, simulated {sim:.2} ({:+.1}%)",
                (model - sim) / sim * 100.0
            )),
            (None, Some(sim)) => out(&format!(
                "  mean penalty: simulated {sim:.2} (no model section)"
            )),
            // Nothing recorded to compare.
            (None, None) => {}
        }
    }
}

/// Median of `xs` (`None` when empty).
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bmp-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut report = AnalysisReport::default();
    let mut targets = 0usize;
    // Per metrics entry under `--static`: a bound table (kept for
    // `--json`, printed otherwise) and the model's mean-penalty error
    // against the simulator.
    let mut entries = 0usize;
    let mut tables: Vec<Value> = Vec::new();
    let mut errs: Vec<f64> = Vec::new();
    // Under `--static`: how many CSV tables the static checks cover,
    // and the names of the ones none does.
    let mut csvs_checked = 0usize;
    let mut csvs_unchecked: Vec<String> = Vec::new();

    // Run journals (BMP4xx) and metrics documents (BMP5xx): one file or
    // a directory of them. The path must be readable — a missing input
    // is a usage error, not a lint finding.
    let text_passes = [
        (
            &opts.journal,
            "journal",
            bmp_analyze::lint_journal_text as fn(&str) -> _,
        ),
        (&opts.metrics, "metrics", bmp_analyze::lint_metrics_text),
    ];
    for (path, kind, lint) in text_passes {
        let Some(path) = path else { continue };
        let files = match walk_inputs(path, "json") {
            Ok(files) => files,
            Err(e) => {
                eprintln!("bmp-lint: {e}");
                return ExitCode::from(2);
            }
        };
        for file in files {
            targets += 1;
            report.merge(scoped(
                &format!("{kind} {}", file.path.display()),
                AnalysisReport::new(lint(&file.content)),
            ));
        }
    }

    // Static cross-checks (BMP6xx). A directory is treated as a results
    // tree: its CSV tables plus a `metrics/` subdirectory; single files
    // route by extension.
    if let Some(path) = &opts.statics {
        let p = std::path::Path::new(path);
        // (is_metrics, source) pairs: a results directory contributes
        // its CSV tables and, when present, its metrics/ subdirectory.
        let mut jobs: Vec<(bool, bmp_analyze::WalkedFile)> = Vec::new();
        let mut collect = |is_metrics: bool, path: &str, ext: &str| match walk_inputs(path, ext) {
            Ok(files) => {
                jobs.extend(files.into_iter().map(|f| (is_metrics, f)));
                true
            }
            Err(e) => {
                eprintln!("bmp-lint: {e}");
                false
            }
        };
        let ok = if p.is_dir() {
            let metrics_dir = p.join("metrics");
            collect(false, path, "csv")
                && (!metrics_dir.is_dir()
                    || collect(true, &metrics_dir.display().to_string(), "json"))
        } else {
            collect(p.extension().is_some_and(|x| x == "json"), path, "")
        };
        if !ok {
            return ExitCode::from(2);
        }
        for (is_metrics, file) in jobs {
            let locus = file.path.display().to_string();
            targets += 1;
            if !is_metrics {
                if staticpass::csv_checked(&file.content) {
                    csvs_checked += 1;
                } else {
                    let name = file.path.file_name().unwrap_or(file.path.as_os_str());
                    csvs_unchecked.push(name.to_string_lossy().into_owned());
                }
                report.merge(staticpass::lint_csv(&locus, &file.content));
                continue;
            }
            let Ok(doc) = ExperimentMetrics::parse(&file.content) else {
                // Reported as BMP606.
                report.merge(staticpass::lint_metrics_doc(&locus, &file.content));
                continue;
            };
            // One static pass per entry, shared by the lint and the tables.
            let bounds = DocBounds::new(&doc);
            report.merge(staticpass::lint_metrics(&locus, &bounds));
            if !opts.json {
                out(&format!(
                    "== {} (ops {}, seed {})",
                    doc.name, doc.ops, doc.seed
                ));
            }
            for (i, w) in doc.workloads.iter().enumerate() {
                let Some(b) = bounds.get(i) else {
                    if !opts.json {
                        out(&format!(
                            "workload {}: unregistered workload or predictor — \
                             static bounds unavailable",
                            w.workload
                        ));
                    }
                    continue;
                };
                let table = BoundTable::new(w, b);
                entries += 1;
                errs.extend(table.rel_err());
                if opts.json {
                    tables.push(table.to_value(&doc.name));
                } else {
                    table.render();
                }
            }
            if !opts.json {
                out("");
            }
        }
    }

    // With no path option, the sweep over every generated input: each
    // machine preset on its own, then every workload profile's and
    // executed kernel's trace on the baseline machine.
    if opts.journal.is_none() && opts.metrics.is_none() && opts.statics.is_none() {
        for (name, cfg) in &all_presets() {
            targets += 1;
            report.merge(scoped(&format!("preset {name}"), analyze(cfg, None)));
        }
        let simulator = Simulator::new(presets::baseline_4wide());
        for profile in &spec::all_profiles() {
            targets += 1;
            report.merge(lint_profile(profile, opts.ops, &simulator));
        }
        for name in bmp_isa::NAMES {
            targets += 1;
            let trace = bmp_isa::kernel_trace(name, opts.ops, 1).expect("registered kernel");
            report.merge(lint_trace(
                &format!("kernel {name}"),
                &trace,
                &simulator,
                true,
            ));
        }
    }

    let cells = errs.len();
    let median_err = median(errs);
    if opts.json {
        let mut value = report.to_value();
        if let (Some(_), Value::Object(fields)) = (&opts.statics, &mut value) {
            let median_err = median_err.map(|m| Value::rounded(m, 4)).into();
            fields.push(("workloads".to_owned(), Value::Array(tables)));
            fields.push(("median_mean_penalty_err".to_owned(), median_err));
            fields.push(("csvs_checked".to_owned(), csvs_checked.into()));
            let unchecked = csvs_unchecked.into_iter().map(Value::from).collect();
            fields.push(("csvs_unchecked".to_owned(), unchecked));
        }
        out(&value.to_string());
    } else {
        let mut human = report.render_human();
        if entries > 0 {
            human.push_str(&match median_err {
                Some(m) => format!(
                    "median model-vs-simulated mean-penalty error over {cells} \
                     workload cell(s): {:.2}%\n",
                    m * 100.0
                ),
                None => "no entry records both a model section and a simulated \
                         penalty\n"
                    .to_owned(),
            });
        }
        if csvs_checked + csvs_unchecked.len() > 0 {
            human.push_str(&format!(
                "checked {csvs_checked} of {} CSV table(s) against static identities",
                csvs_checked + csvs_unchecked.len()
            ));
            if !csvs_unchecked.is_empty() {
                human.push_str(&format!(
                    "; no static checks, unchecked: {}",
                    csvs_unchecked.join(", ")
                ));
            }
            human.push('\n');
        }
        human.push_str(&format!(
            "linted {targets} target(s); worst severity: {}",
            report.worst().map_or("none".to_owned(), |s| s.to_string())
        ));
        out(&human);
    }

    if report.worst() == Some(Severity::Error) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_invalid_profile_is_bmp100_and_not_generated() {
        let profile = WorkloadProfile {
            load_frac: 1.5,
            ..WorkloadProfile::default()
        };
        let simulator = Simulator::new(presets::baseline_4wide());
        let report = lint_profile(&profile, 100, &simulator);
        assert_eq!(report.diagnostics.len(), 1, "{}", report.render_human());
        let d = &report.diagnostics[0];
        assert_eq!((d.code, d.severity), ("BMP100", Severity::Error));
        assert_eq!(d.locus, "profile default: profile");
    }

    /// The provenance rules run on executed traces only, and their
    /// findings name the kernel.
    #[test]
    fn executed_traces_get_the_provenance_rules() {
        let mut ops = bmp_isa::kernel_trace("isort", 500, 1)
            .expect("registered kernel")
            .ops()
            .to_vec();
        // Dropping an op after a non-branch breaks straight-line
        // continuity (BMP901).
        let i = (1..ops.len())
            .find(|&i| ops[i - 1].branch_info().is_none())
            .expect("a non-branch op");
        ops.remove(i);
        let trace = Trace::from_ops_unchecked(ops);
        let simulator = Simulator::new(presets::baseline_4wide());
        let provenance = |r: &AnalysisReport| {
            r.diagnostics
                .iter()
                .filter(|d| d.code.starts_with("BMP9"))
                .map(|d| d.locus.clone())
                .collect::<Vec<_>>()
        };
        let executed = lint_trace("kernel isort", &trace, &simulator, true);
        let loci = provenance(&executed);
        assert!(!loci.is_empty(), "{}", executed.render_human());
        assert!(
            loci.iter().all(|l| l.starts_with("kernel isort: ")),
            "{loci:?}"
        );
        let synthetic = lint_trace("profile x", &trace, &simulator, false);
        assert!(provenance(&synthetic).is_empty());
    }
}
