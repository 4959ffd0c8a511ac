//! `bmp-lint`: run the model-consistency lint rules from the command
//! line.
//!
//! With no arguments it sweeps every machine preset and every workload
//! profile in the SPEC-like table, checking machine balance, trace
//! well-formedness and — by running the interval model, the CPI stack
//! and the reference simulator on each generated trace — result
//! conservation. With `--static` it is also the static-bounds tool:
//! for every metrics entry it prints the proven contributor bounds next
//! to the interval model's recorded totals, and ends with the median
//! model-vs-simulated mean-penalty error and the CSV tables no
//! registered header checks. Exit status: 0 clean
//! (warnings allowed), 1 when any error-severity finding fires, 2 on
//! usage errors.

use std::io::Write;
use std::process::ExitCode;

use bmp_analyze::staticpass::{self, DocBounds, StaticBounds};
use bmp_analyze::{analyze, lint_sim_result, walk_inputs, AnalysisReport, Severity};
use bmp_core::json::Value;
use bmp_core::json_object;
use bmp_core::metrics::{ExperimentMetrics, ModelMetrics, WorkloadMetrics};
use bmp_sim::Simulator;
use bmp_uarch::{presets, MachineConfig};
use bmp_workloads::spec;

const USAGE: &str = "\
bmp-lint: static model-consistency linter (BMP rule codes)

USAGE:
    bmp-lint [OPTIONS]

OPTIONS:
    --json            render the report as one JSON object instead of text
    --preset NAME     lint only the named machine preset
    --profile NAME    lint only the named workload profile (skips the
                      preset pass unless --preset is also given)
    --journal PATH    lint a run journal (results/run_journal.json) with
                      the BMP4xx rules; given alone, skips the other
                      passes like --profile does
    --metrics PATH    lint a metrics document (results/metrics/*.json) or
                      a whole metrics directory with the BMP5xx rules;
                      given alone, skips the other passes too
    --static PATH     cross-check simulated results against statically
                      proven contributor bounds (BMP6xx). PATH is a
                      results directory (lints its *.csv tables and its
                      metrics/ subdirectory), a single CSV table, or a
                      single metrics document. Prints each metrics
                      entry's bounds next to the model's recorded
                      totals, the median model-vs-simulated mean
                      penalty error, and how many CSV tables a
                      registered header checks, naming the rest (with
                      --json: a \"workloads\" array,
                      \"median_mean_penalty_err\", \"csvs_checked\" and
                      \"csvs_unchecked\"); given alone, skips the other
                      passes too
    --kernels         execute every bmp-isa RV32IM kernel and lint the
                      recorded trace: well-formedness (BMP1xx),
                      executed-trace provenance (BMP9xx), and model /
                      simulator conservation on the baseline machine;
                      given alone, skips the other passes too
    --ops N           trace length per workload profile (default 2000)
    --no-traces       lint machine presets only; skip workload traces
    --list            list preset and profile names, then exit
    -h, --help        show this help

Severities: errors make the exit status 1; warnings and infos do not.
See docs/ANALYZER.md for the BMP code catalogue.";

/// The machine presets swept by default, by stable CLI name.
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
    preset: Option<String>,
    profile: Option<String>,
    journal: Option<String>,
    metrics: Option<String>,
    statics: Option<String>,
    kernels: bool,
    ops: usize,
    no_traces: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        preset: None,
        profile: None,
        journal: None,
        metrics: None,
        statics: None,
        kernels: false,
        ops: 2000,
        no_traces: false,
        list: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--kernels" => opts.kernels = true,
            "--no-traces" => opts.no_traces = true,
            "--list" => opts.list = true,
            "--preset" => {
                opts.preset = Some(
                    it.next()
                        .ok_or_else(|| "--preset needs a name".to_owned())?
                        .clone(),
                );
            }
            "--profile" => {
                opts.profile = Some(
                    it.next()
                        .ok_or_else(|| "--profile needs a name".to_owned())?
                        .clone(),
                );
            }
            "--journal" => {
                opts.journal = Some(
                    it.next()
                        .ok_or_else(|| "--journal needs a path".to_owned())?
                        .clone(),
                );
            }
            "--metrics" => {
                opts.metrics = Some(
                    it.next()
                        .ok_or_else(|| "--metrics needs a path".to_owned())?
                        .clone(),
                );
            }
            "--static" => {
                opts.statics = Some(
                    it.next()
                        .ok_or_else(|| "--static needs a path".to_owned())?
                        .clone(),
                );
            }
            "--ops" => {
                let v = it.next().ok_or_else(|| "--ops needs a count".to_owned())?;
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

/// Writes a line to stdout, swallowing broken-pipe errors so
/// `bmp-lint --list | head` exits cleanly instead of panicking.
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

    let machines = all_presets();
    let profiles = spec::all_profiles();

    if opts.list {
        out("presets:");
        for (name, _) in &machines {
            out(&format!("  {name}"));
        }
        out("profiles:");
        for p in &profiles {
            out(&format!("  {}", p.name));
        }
        return ExitCode::SUCCESS;
    }

    let machines: Vec<_> = match &opts.preset {
        Some(want) => {
            let selected: Vec<_> = machines.into_iter().filter(|(n, _)| n == want).collect();
            if selected.is_empty() {
                eprintln!("bmp-lint: unknown preset '{want}' (try --list)");
                return ExitCode::from(2);
            }
            selected
        }
        None => machines,
    };
    let profiles: Vec<_> = match &opts.profile {
        Some(want) => {
            let selected: Vec<_> = profiles.into_iter().filter(|p| &p.name == want).collect();
            if selected.is_empty() {
                eprintln!("bmp-lint: unknown profile '{want}' (try --list)");
                return ExitCode::from(2);
            }
            selected
        }
        None => profiles,
    };

    let mut report = AnalysisReport::default();
    let mut targets = 0usize;
    // Per metrics entry under `--static`: a bound table (kept for
    // `--json`, printed otherwise) and the model's mean-penalty error
    // against the simulator.
    let mut entries = 0usize;
    let mut tables: Vec<Value> = Vec::new();
    let mut errs: Vec<f64> = Vec::new();
    // Under `--static`: how many CSV tables a registered header checks,
    // and the names of the ones none does.
    let mut csvs_checked = 0usize;
    let mut csvs_unchecked: Vec<String> = Vec::new();

    // Pass 0: a run journal, when asked for. The path must be readable
    // — a missing journal is a usage error, not a lint finding.
    if let Some(path) = &opts.journal {
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
                &format!("journal {}", file.path.display()),
                AnalysisReport::new(bmp_analyze::lint_journal_text(&file.content)),
            ));
        }
    }

    // Pass 0b: metrics documents. `--metrics` accepts one file or a
    // directory of them (`results/metrics/`).
    if let Some(path) = &opts.metrics {
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
                &format!("metrics {}", file.path.display()),
                AnalysisReport::new(bmp_analyze::lint_metrics_text(&file.content)),
            ));
        }
    }

    // Pass 0c: static cross-checks (BMP6xx). A directory is treated as
    // a results tree: its CSV tables plus a `metrics/` subdirectory;
    // single files route by extension.
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

    // Pass 0d: the executed-kernel suite (BMP1xx + BMP9xx + model and
    // simulator conservation). Each kernel is functionally executed at
    // the requested length and its recorded trace must carry the full
    // provenance fingerprint — the rules synthetic traces cannot pass.
    if opts.kernels {
        let reference = presets::baseline_4wide();
        let simulator = Simulator::new(reference.clone());
        for name in bmp_isa::NAMES {
            targets += 1;
            let target = format!("kernel {name}");
            let trace = bmp_isa::kernel_trace(name, opts.ops, 1).expect("registered kernel");
            report.merge(scoped(&target, analyze(&reference, Some(&trace))));
            report.merge(scoped(
                &target,
                AnalysisReport::new(bmp_analyze::lint_executed_trace(&trace)),
            ));
            let result = simulator.run(&trace);
            report.merge(scoped(
                &target,
                AnalysisReport::new(lint_sim_result(&result, &reference)),
            ));
        }
    }

    // Pass 1: every selected machine preset on its own. A bare
    // `--profile` (or `--journal` / `--metrics` / `--kernels`) request
    // means "lint this target", so the preset sweep only runs when
    // presets were not narrowed away.
    let narrowed = opts.profile.is_some()
        || opts.journal.is_some()
        || opts.metrics.is_some()
        || opts.statics.is_some()
        || opts.kernels;
    if !narrowed || opts.preset.is_some() {
        for (name, cfg) in &machines {
            targets += 1;
            report.merge(scoped(&format!("preset {name}"), analyze(cfg, None)));
        }
    }

    // Pass 2: every selected workload profile — trace well-formedness,
    // then model- and simulator-side conservation on the reference
    // (baseline) machine.
    if !opts.no_traces
        && ((opts.journal.is_none()
            && opts.metrics.is_none()
            && opts.statics.is_none()
            && !opts.kernels)
            || opts.profile.is_some())
    {
        let reference = presets::baseline_4wide();
        let simulator = Simulator::new(reference.clone());
        for profile in &profiles {
            targets += 1;
            let target = format!("profile {}", profile.name);
            if let Err(e) = profile.validate() {
                report.merge(scoped(
                    &target,
                    AnalysisReport::new(vec![bmp_analyze::Diagnostic::error(
                        "BMP100",
                        "profile",
                        format!("profile does not validate: {e}"),
                    )]),
                ));
                continue;
            }
            let trace = profile.generate(opts.ops, 1);
            report.merge(scoped(&target, analyze(&reference, Some(&trace))));

            let result = simulator.run(&trace);
            report.merge(scoped(
                &target,
                AnalysisReport::new(lint_sim_result(&result, &reference)),
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
                    "; no registered header, unchecked: {}",
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
