//! The benchmark's command line: the parent that runs passes and
//! reports, and the child that runs one pass.
//!
//! Every pass runs in a fresh child process (this binary re-executed
//! with `--pass`), one at a time, so each pays the cold-process costs a
//! `run_all` user pays, its peak RSS is its own, and nothing a pass
//! leaves in a static can speed up the next.
//!
//! The child prints `ready` once set up, with the wall-clock time since
//! the parent spawned it (`setup_s`, timed in the child so the parent's
//! own wake-up is not counted). It then times its pass and reports it,
//! with its digest, checks and, when traced, its spans, as
//! tab-separated lines.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use bmp_bench::Scale;
use bmp_core::json::{escape_string, fmt_f64};

use crate::calibrate::{calibrate, REFERENCE_S};
use crate::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::span::Tracer;
use crate::stats::Summary;
use crate::workloads::{default_ops, setup};

/// Measured passes per run at least, whatever `--seconds` says; in a
/// traced run half of them are traced.
const MIN_PASSES: usize = 4;
/// Set-up-only children timed per run.
const SETUP_SAMPLES: usize = 21;

const USAGE: &str = "usage: bmp-benchmark --workload <suite|sweep|model|kernels> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Where passes write scratch output and traced runs write spans.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Entry point of the `bmp-benchmark` binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--pass") {
        return match args.as_slice() {
            [_, workload, seed, mode, spawned] => {
                match (seed.parse(), Mode::parse(mode), spawned.parse()) {
                    (Ok(seed), Some(mode), Ok(spawned)) => child(workload, seed, mode, spawned),
                    _ => usage(),
                }
            }
            _ => usage(),
        };
    }
    match Options::parse(&args) {
        Some(opts) => parent(&opts),
        None => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// The parent's command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Option<Self> {
        let mut opts = Self {
            workload: String::new(),
            seed: 42,
            seconds: 15.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next()?;
            match flag.as_str() {
                "--workload" => opts.workload.clone_from(value),
                "--seed" => opts.seed = value.parse().ok()?,
                "--seconds" => opts.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0)?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        WORKLOADS.contains(&opts.workload.as_str()).then_some(opts)
    }
}

/// What a child process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The warm-up pass: untimed for the report, runs the output checks.
    Check,
    /// A measured pass without spans.
    Plain,
    /// A measured pass recording spans.
    Traced,
    /// Set up, report `ready` and exit.
    Setup,
}

impl Mode {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "check" => Mode::Check,
            "plain" => Mode::Plain,
            "traced" => Mode::Traced,
            "setup" => Mode::Setup,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Check => "check",
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Setup => "setup",
        }
    }
}

/// `VmHWM` of this process in MB, or 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn one_line(s: &str) -> String {
    s.replace(['\n', '\t'], " ")
}

/// Nanoseconds since the Unix epoch: a clock parent and child share.
fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

fn child(workload: &str, seed: u64, mode: Mode, spawned_ns: u128) -> ExitCode {
    let scale = Scale {
        ops: default_ops(workload),
        seed,
    };
    let Some(prepared) = setup(workload, scale, &out_dir()) else {
        return usage();
    };
    let mut w = std::io::stdout().lock();
    let mut report = || -> std::io::Result<()> {
        writeln!(w, "ready\t{}", unix_ns().saturating_sub(spawned_ns))?;
        w.flush()?;
        if mode == Mode::Setup {
            return Ok(());
        }
        let tracer = Tracer::new(mode == Mode::Traced);
        let before = calibrate();
        let out = prepared.run(&tracer, mode == Mode::Check);
        let rss_mb = peak_rss_mb();
        writeln!(w, "calib_s\t{}", (before + calibrate()) / 2.0)?;
        writeln!(w, "pass_s\t{}", out.pass_s)?;
        writeln!(w, "rss_mb\t{rss_mb}")?;
        writeln!(w, "digest\t{:016x}", out.digest)?;
        writeln!(w, "attempted\t{}", out.attempted)?;
        for f in &out.failures {
            writeln!(w, "fail\t{}", one_line(f))?;
        }
        for n in &out.notes {
            writeln!(w, "note\t{}", one_line(n))?;
        }
        if mode == Mode::Traced {
            for (name, v) in &out.layers {
                writeln!(w, "layer\t{name}\t{v}")?;
            }
            for s in tracer.spans() {
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "span\t{parent}\t{}\t{}\t{}",
                    s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        writeln!(w, "done")?;
        w.flush()
    };
    match report() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot report to the parent: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One child's report.
#[derive(Debug, Default)]
struct PassRecord {
    setup_s: f64,
    pass_s: f64,
    calib_s: f64,
    rss_mb: f64,
    digest: String,
    attempted: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    layers: Vec<(String, f64)>,
    spans: Vec<(Option<usize>, String, u64, u64)>,
}

impl PassRecord {
    /// Converts this pass's host seconds to seconds on the reference
    /// host (see [`crate::calibrate`]).
    fn host_factor(&self) -> f64 {
        if self.calib_s > 0.0 {
            REFERENCE_S / self.calib_s
        } else {
            1.0
        }
    }

    fn read(&mut self, line: &str) -> Result<bool, String> {
        let bad = || format!("malformed line from the pass: {line:?}");
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["done"] => return Ok(true),
            ["calib_s", v] => self.calib_s = num(v)?,
            ["pass_s", v] => self.pass_s = num(v)?,
            ["rss_mb", v] => self.rss_mb = num(v)?,
            ["digest", v] => self.digest = (*v).to_string(),
            ["attempted", v] => self.attempted = v.parse().map_err(|_| bad())?,
            ["fail", msg] => self.failures.push((*msg).to_string()),
            ["note", msg] => self.notes.push((*msg).to_string()),
            ["layer", name, v] => self.layers.push(((*name).to_string(), num(v)?)),
            ["span", parent, name, start, end] => self.spans.push((
                parent.parse().ok(),
                (*name).to_string(),
                start.parse().map_err(|_| bad())?,
                end.parse().map_err(|_| bad())?,
            )),
            _ => return Err(bad()),
        }
        Ok(false)
    }
}

/// Spawns one child in `mode` and collects its report.
fn spawn(opts: &Options, mode: Mode) -> Result<PassRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--pass",
        &opts.workload,
        &opts.seed.to_string(),
        mode.name(),
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::piped());
    // Settings such as BMP_THREADS or BMP_REFERENCE_ENGINE would
    // silently change the program being measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BMP_") {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd
        .arg(unix_ns().to_string())
        .spawn()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut rec = PassRecord::default();
    let mut lines = BufReader::new(stdout).lines();
    let read = (|| -> Result<(), String> {
        let ready = lines.next().and_then(Result::ok);
        match ready.as_deref().and_then(|l| l.strip_prefix("ready\t")) {
            Some(ns) => rec.setup_s = ns.parse::<f64>().map_err(|_| "bad ready line")? * 1e-9,
            None => return Err("the pass did not finish setting up".into()),
        }
        if mode == Mode::Setup {
            return Ok(());
        }
        for line in lines {
            let line = line.map_err(|e| format!("cannot read the pass's report: {e}"))?;
            if rec.read(&line)? {
                return Ok(());
            }
        }
        Err("the pass ended without reporting".into())
    })();
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for a pass: {e}"))?;
    read?;
    if !status.success() {
        return Err(format!("a {} pass exited with {status}", mode.name()));
    }
    Ok(rec)
}

/// Every pass of one run.
#[derive(Debug, Default)]
struct Run {
    warmup: PassRecord,
    passes: Vec<(Mode, PassRecord)>,
    setup_s: Vec<f64>,
    /// Operations of the parent itself: children spawned, digests
    /// compared and the span file written.
    own_ops: u64,
    failures: Vec<String>,
}

impl Run {
    fn spawn(&mut self, opts: &Options, mode: Mode) -> Result<PassRecord, String> {
        self.own_ops += 1;
        spawn(opts, mode)
    }

    /// The warm-up pass, measured passes until `opts.seconds` have
    /// passed, then [`SETUP_SAMPLES`] set-up-only children.
    fn collect(&mut self, opts: &Options) -> Result<(), String> {
        self.warmup = self.spawn(opts, Mode::Check)?;
        let start = Instant::now();
        while self.passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
            let mode = if opts.trace && self.passes.len().is_multiple_of(2) {
                Mode::Traced
            } else {
                Mode::Plain
            };
            let rec = self.spawn(opts, mode)?;
            self.passes.push((mode, rec));
        }
        // Set-up is timed only on back-to-back set-up-only children: a
        // spawn right after a multi-second pass is slower by a varying
        // amount, and mixing the two makes the median jump between runs.
        for _ in 0..SETUP_SAMPLES {
            let rec = self.spawn(opts, Mode::Setup)?;
            self.setup_s.push(rec.setup_s);
        }
        Ok(())
    }

    fn check_digests(&mut self) {
        for (i, (_, rec)) in self.passes.iter().enumerate() {
            self.own_ops += 1;
            if rec.digest != self.warmup.digest {
                self.failures.push(format!(
                    "pass {} digest {} differs from the warm-up's {}",
                    i + 1,
                    rec.digest,
                    self.warmup.digest
                ));
            }
        }
    }

    fn records(&self) -> impl Iterator<Item = &PassRecord> {
        std::iter::once(&self.warmup).chain(self.passes.iter().map(|(_, r)| r))
    }

    fn measured(&self, mode: Mode) -> impl Iterator<Item = &PassRecord> {
        self.passes
            .iter()
            .filter(move |(m, _)| *m == mode)
            .map(|(_, r)| r)
    }

    fn attempted(&self) -> u64 {
        self.own_ops + self.records().map(|r| r.attempted).sum::<u64>()
    }

    fn failed(&self) -> u64 {
        (self.failures.len() + self.records().map(|r| r.failures.len()).sum::<usize>()) as u64
    }

    /// The run's median host-speed factor, for set-ups (which are too
    /// short to calibrate on their own).
    fn host_factor(&self) -> f64 {
        let f: Vec<f64> = self.records().map(PassRecord::host_factor).collect();
        Summary::of(&f).map_or(1.0, |s| s.median)
    }

    /// End-to-end metrics from the untraced passes.
    fn end_to_end(&self) -> Vec<(Metric, Vec<f64>)> {
        let plain: Vec<&PassRecord> = self.measured(Mode::Plain).collect();
        END_TO_END
            .iter()
            .map(|m| {
                let values = match m.name {
                    "pass_s" => plain.iter().map(|r| r.pass_s * r.host_factor()).collect(),
                    "setup_s" => {
                        let f = self.host_factor();
                        self.setup_s.iter().map(|s| s * f).collect()
                    }
                    "peak_rss_mb" => plain.iter().map(|r| r.rss_mb).collect(),
                    other => unreachable!("no source for end-to-end metric {other}"),
                };
                (*m, values)
            })
            .collect()
    }

    /// Per-layer metrics from the traced passes.
    fn per_layer(&self) -> Vec<(Metric, Vec<f64>)> {
        let traced: Vec<&PassRecord> = self.measured(Mode::Traced).collect();
        let median_pass = |mode| {
            let v: Vec<f64> = self
                .measured(mode)
                .map(|r| r.pass_s * r.host_factor())
                .collect();
            Summary::of(&v).map(|s| s.median)
        };
        let overhead = match (median_pass(Mode::Traced), median_pass(Mode::Plain)) {
            (Some(t), Some(p)) => vec![100.0 * (t / p - 1.0)],
            _ => Vec::new(),
        };
        PER_LAYER
            .iter()
            .map(|m| {
                let values = if m.name == "tracing.overhead_pct" {
                    overhead.clone()
                } else {
                    traced
                        .iter()
                        .filter_map(|r| r.layers.iter().find(|(n, _)| n == m.name))
                        .map(|(_, v)| *v)
                        .collect()
                };
                (*m, values)
            })
            .collect()
    }
}

fn parent(opts: &Options) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("error: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    let mut run = Run::default();
    if let Err(e) = run.collect(opts) {
        run.failures.push(e);
    }
    run.check_digests();
    if opts.trace {
        run.own_ops += 1;
        if let Err(e) = write_spans(opts, &run) {
            run.failures.push(format!("cannot write the spans: {e}"));
        }
    }

    let metrics = if opts.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let correct = run.failed() == 0 && metrics.iter().all(|(_, v)| !v.is_empty());
    print_report(opts, &run);
    println!(
        "{}",
        result_line(correct, run.attempted(), run.failed(), &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(opts: &Options, run: &Run) {
    println!(
        "workload {}  seed {}  {} measured passes after 1 warm-up, one at a time, 1 thread each",
        opts.workload,
        opts.seed,
        run.passes.len()
    );
    println!("digest {}", run.warmup.digest);
    let wall: Vec<f64> = run.measured(Mode::Plain).map(|r| r.pass_s).collect();
    if let Some(w) = Summary::of(&wall) {
        println!(
            "host: untraced passes took {:.6} s of wall time (median); times below are \
             scaled by {:.4}, the reference calibration time over this host's",
            w.median,
            run.host_factor()
        );
    }
    for note in &run.warmup.notes {
        println!("{note}");
    }
    println!(
        "{:<26} {:>9} {:>4} {:>14} {:>14} {:>14}",
        "metric", "unit", "n", "median", "q1", "q3"
    );
    let mut metrics = run.end_to_end();
    if opts.trace {
        metrics.extend(run.per_layer());
    }
    for (m, values) in &metrics {
        match Summary::of(values) {
            Some(s) => println!(
                "{:<26} {:>9} {:>4} {:>14.6} {:>14.6} {:>14.6}",
                m.name, m.unit, s.n, s.median, s.q1, s.q3
            ),
            None => println!("{:<26} {:>9} {:>4}", m.name, m.unit, 0),
        }
    }
    println!(
        "operations: {} attempted, {} failed",
        run.attempted(),
        run.failed()
    );
    for f in run.records().flat_map(|r| &r.failures).chain(&run.failures) {
        println!("FAILED: {f}");
    }
}

/// The last line of the report: one JSON object, each metric its median.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, Vec<f64>)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .filter_map(|(m, values)| {
            let s = Summary::of(values)?;
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape_string(m.name),
                fmt_f64(s.median),
                escape_string(m.unit)
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// Writes every traced pass's spans to `out/trace-<workload>-<seed>.json`.
fn write_spans(opts: &Options, run: &Run) -> std::io::Result<()> {
    let mut items = Vec::new();
    for (pass, (_, rec)) in run.passes.iter().enumerate() {
        for (id, (parent, name, start, end)) in rec.spans.iter().enumerate() {
            items.push(format!(
                "{{\"pass\": {}, \"id\": {id}, \"parent\": {}, \"name\": {}, \
                 \"start_ns\": {start}, \"end_ns\": {end}}}",
                pass + 1,
                parent.map_or("null".to_string(), |p| p.to_string()),
                escape_string(name)
            ));
        }
    }
    let path = out_dir().join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    bmp_core::io::write_atomic(&path, format!("[\n{}\n]\n", items.join(",\n")).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = Options::parse(&args("--workload sweep --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            o,
            Options {
                workload: "sweep".into(),
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(Options::parse(&args("--workload nope")).is_none());
        assert!(Options::parse(&args("--workload suite --trace 2")).is_none());
        assert!(Options::parse(&args("--workload suite --seed")).is_none());
    }

    #[test]
    fn result_line_reports_medians() {
        let m = END_TO_END[0];
        let line = result_line(true, 3, 0, &[(m, vec![3.0, 1.0, 2.0])]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"pass_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert!(bmp_core::json::parse(&line).is_ok());
    }
}
