//! The four workloads. Each one is set up, then runs one pass: a fixed
//! amount of work through the repository's public functions, every
//! layer call wrapped in a span.
//!
//! | workload  | one pass                                                        |
//! |-----------|-----------------------------------------------------------------|
//! | `suite`   | the `run_all` sequence: every experiment, CSV + journal writes, the static surrogate, the timing report |
//! | `sweep`   | 3 traces × 60 machine configs through the event engine          |
//! | `model`   | 12 profiles × 2 seeds × 2 predictors through the interval model and the static bounds, no simulation |
//! | `kernels` | 5 executed RV32IM kernels, 5 simulations and 1 analysis each     |
//!
//! A pass in check mode (the warm-up pass, whose times are never
//! reported) also verifies its outputs: engine equivalence, static
//! bounds, provenance lints and, at the default scale, the committed
//! `results/*.csv`. Every pass returns a digest of its results, which
//! must not change between passes of one run.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use bmp_analyze::staticpass::bounds;
use bmp_analyze::StaticBounds;
use bmp_bench::engine::{experiment_fingerprint, ExperimentOutcome, OutcomeKind, RunPolicy};
use bmp_bench::{surrogate, Engine, FaultPlan, PhaseReport, Scale};
use bmp_core::journal::{ExperimentRecord, RunJournal, RunStatus};
use bmp_core::validate::ValidationReport;
use bmp_core::{cpi, ModelMetrics, PenaltyAnalysis, PenaltyModel};
use bmp_sim::{RunPhases, SimResult, Simulator};
use bmp_trace::{SuperblockMap, Trace};
use bmp_uarch::{presets, MachineConfig};
use bmp_workloads::{spec, WorkloadProfile};

use crate::span::{self_seconds, self_times, Span, Tracer};
use crate::stats::Summary;

/// Trace length per workload. `kernels` runs five 1M-op traces where
/// the others run 200k-op ones, which keeps its pass about as long as
/// theirs.
pub fn default_ops(workload: &str) -> usize {
    if workload == "kernels" {
        1_000_000
    } else {
        Scale::default().ops
    }
}

/// What one pass reports back.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Wall time of the timed pass interval.
    pub pass_s: f64,
    /// FNV-1a digest of the pass's results.
    pub digest: u64,
    /// Operations attempted: one experiment in `suite`, one layer call
    /// elsewhere, plus one per output check.
    pub attempted: u64,
    /// One message per failed operation or check.
    pub failures: Vec<String>,
    /// Per-layer metric values (see [`crate::catalog::PER_LAYER`]).
    pub layers: Vec<(&'static str, f64)>,
    /// Deterministic accuracy figures, from check mode only.
    pub notes: Vec<String>,
}

impl PassOutput {
    fn attempt(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failures.push(e);
        }
    }
}

/// A workload, set up and ready to run passes.
#[derive(Debug)]
pub enum Prepared {
    /// See the module docs.
    Suite(Box<Suite>),
    /// See the module docs.
    Sweep(Sweep),
    /// See the module docs.
    Model(Model),
    /// See the module docs.
    Kernels(Kernels),
}

/// Sets up `workload` at `scale`; the `suite` writes its CSVs under a
/// directory of its own in `out`. `None` for an unknown name.
pub fn setup(workload: &str, scale: Scale, out: &Path) -> Option<Prepared> {
    let baseline = presets::baseline_4wide();
    let generations = || {
        presets::GENERATIONS
            .iter()
            .map(|g| presets::generation_machine(g).expect("every generation has a machine"))
    };
    let profiles = |names: &[&'static str]| {
        names
            .iter()
            .map(|&n| (n, spec::by_name(n).expect("registered profile")))
            .collect()
    };
    Some(match workload {
        "suite" => Prepared::Suite(Box::new(Suite {
            engine: Engine::new(1),
            scale,
            dir: out.join(format!("suite-{}", std::process::id())),
        })),
        "sweep" => {
            let mut sims = Vec::new();
            for machine in generations() {
                for window in [16, 32, 64, 128, 256] {
                    for depth in [5, 10, 20] {
                        let cfg = machine
                            .to_builder()
                            .window_size(window)
                            .rob_size(2 * window)
                            .frontend_depth(depth)
                            .build()
                            .expect("sweep configs are valid");
                        sims.push(Simulator::new(cfg));
                    }
                }
            }
            Prepared::Sweep(Sweep {
                scale,
                profiles: profiles(&["twolf", "gcc", "mcf"]),
                sims,
                baseline: Simulator::new(baseline),
            })
        }
        "model" => Prepared::Model(Model {
            scale,
            profiles: profiles(&spec::NAMES),
            machines: ["gshare", "tage"]
                .iter()
                .map(|g| {
                    let cfg = presets::generation_machine(g).expect("known generation");
                    (PenaltyModel::new(cfg.clone()), cfg)
                })
                .collect(),
        }),
        "kernels" => Prepared::Kernels(Kernels {
            scale,
            sims: std::iter::once(baseline.clone())
                .chain(generations())
                .map(Simulator::new)
                .collect(),
            model: PenaltyModel::new(baseline),
        }),
        _ => return None,
    })
}

impl Prepared {
    /// Runs one pass; `tracer` records its spans when enabled, and
    /// `check` adds the output checks.
    pub fn run(&self, tracer: &Tracer, check: bool) -> PassOutput {
        match self {
            Prepared::Suite(s) => s.run(tracer, check),
            Prepared::Sweep(s) => s.run(tracer, check),
            Prepared::Model(m) => m.run(tracer, check),
            Prepared::Kernels(k) => k.run(tracer, check),
        }
    }
}

/// FNV-1a over the fields a pass must reproduce exactly.
#[derive(Debug, Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn u64s(&mut self, values: &[u64]) {
        for v in values {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn sim(&mut self, r: &SimResult) {
        let h = &r.hierarchy;
        self.u64s(&[
            r.cycles,
            r.instructions,
            r.branch_stats.predictions(),
            r.branch_stats.mispredictions(),
            h.l1i.misses(),
            h.l1d.accesses(),
            h.l1d.misses(),
            h.l2.misses(),
            h.short_dmisses,
            h.long_dmisses,
            r.resolution_total(),
            r.events.len() as u64,
            r.slots.used,
        ]);
    }

    fn analysis(&mut self, a: &PenaltyAnalysis) {
        let sum = |f: fn(&bmp_core::PenaltyBreakdown) -> u64| a.breakdowns.iter().map(f).sum();
        self.u64s(&[
            a.breakdowns.len() as u64,
            sum(|b| b.resolution),
            sum(|b| b.local_resolution),
            sum(|b| b.base),
            sum(|b| b.ilp),
            sum(|b| b.fu_latency),
            sum(|b| b.short_dmiss),
            a.breakdowns.iter().map(|b| b.carryover).sum::<i64>() as u64,
        ]);
    }

    fn bounds(&mut self, b: &StaticBounds) {
        let p = b.penalty;
        self.u64s(&[b.intervals, p.lo as u64, p.point as u64, p.hi as u64]);
    }

    fn finish(&self) -> u64 {
        bmp_uarch::fp::fnv1a(&self.0)
    }
}

/// Sums over the simulations of one pass.
#[derive(Debug, Default)]
struct SimTotals {
    runs: u64,
    execute_ns: u64,
    assemble_ns: u64,
    cycles: u64,
    instructions: u64,
    mispredicts: u64,
    l1d_misses: u64,
    long_dmisses: u64,
}

impl SimTotals {
    fn add(&mut self, r: &SimResult, phases: RunPhases) {
        self.runs += 1;
        self.execute_ns += phases.execute_ns;
        self.assemble_ns += phases.assemble_ns;
        self.counts(r);
    }

    fn counts(&mut self, r: &SimResult) {
        self.cycles += r.cycles;
        self.instructions += r.instructions;
        self.mispredicts += r.branch_stats.mispredictions();
        self.l1d_misses += r.hierarchy.l1d.misses();
        self.long_dmisses += r.hierarchy.long_dmisses;
    }
}

/// Work counts of one pass, turned into the per-layer metrics by
/// [`Work::layers`].
#[derive(Debug, Default)]
struct Work {
    generate_calls: u64,
    generate_ops: u64,
    kernel_calls: u64,
    kernel_ops: u64,
    analyze_calls: u64,
    analyze_ops: u64,
    static_calls: u64,
    regions: u64,
    region_ops: u64,
    sim: SimTotals,
}

/// Time per layer in one pass, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct LayerTimes {
    generate: f64,
    kernel: f64,
    compile: f64,
    superblock: f64,
    sim: f64,
    analyze: f64,
    statics: f64,
}

impl LayerTimes {
    fn from_spans(spans: &[Span], self_ns: &[u64]) -> Self {
        let s = |name| self_seconds(spans, self_ns, name);
        Self {
            generate: s("workloads.generate"),
            kernel: s("isa.kernel_trace"),
            compile: s("trace.compile"),
            superblock: s("trace.superblock"),
            sim: s("sim.run"),
            analyze: s("core.analyze"),
            statics: s("analyze.static_bounds"),
        }
    }

    fn total(&self) -> f64 {
        self.generate
            + self.kernel
            + self.compile
            + self.superblock
            + self.sim
            + self.analyze
            + self.statics
    }
}

fn per_op(seconds: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        seconds * 1e9 / ops as f64
    }
}

impl Work {
    fn superblock(&mut self, sb: &SuperblockMap) {
        self.regions += sb.stats().regions;
        self.region_ops += sb.len() as u64;
    }

    /// The per-layer metrics other than the `bench.*` ones, from layer
    /// times `t` and the spans of the pass.
    fn layers(&self, t: LayerTimes, spans: &[Span], self_ns: &[u64]) -> Vec<(&'static str, f64)> {
        let sim = &self.sim;
        let pass_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "pass")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let unspanned = self_seconds(spans, self_ns, "pass");
        // Rates need every run's counts and engine phases, which only a
        // pass calling the engine itself sees. The suite's counts cover
        // its baseline cells alone, so it reports no rates.
        let rate = |x: f64| if sim.execute_ns == 0 { 0.0 } else { x };
        vec![
            ("workloads.generate_s", t.generate),
            ("workloads.generate_calls", self.generate_calls as f64),
            ("workloads.ns_per_op", per_op(t.generate, self.generate_ops)),
            ("isa.kernel_trace_s", t.kernel),
            ("isa.kernel_trace_calls", self.kernel_calls as f64),
            ("isa.ns_per_op", per_op(t.kernel, self.kernel_ops)),
            ("trace.compile_s", t.compile),
            ("trace.superblock_s", t.superblock),
            (
                "trace.mean_region_len",
                if self.regions == 0 {
                    0.0
                } else {
                    self.region_ops as f64 / self.regions as f64
                },
            ),
            ("sim.run_s", t.sim),
            ("sim.execute_s", sim.execute_ns as f64 * 1e-9),
            ("sim.assemble_s", sim.assemble_ns as f64 * 1e-9),
            ("sim.runs", sim.runs as f64),
            ("sim.mips", rate(sim.instructions as f64 / t.sim / 1e6)),
            ("sim.ns_per_cycle", rate(per_op(t.sim, sim.cycles))),
            ("sim.cycles", sim.cycles as f64),
            ("sim.instructions", sim.instructions as f64),
            ("branch.mispredicts", sim.mispredicts as f64),
            ("cache.l1d_misses", sim.l1d_misses as f64),
            ("cache.long_dmisses", sim.long_dmisses as f64),
            ("core.analyze_s", t.analyze),
            ("core.analyze_calls", self.analyze_calls as f64),
            ("core.ns_per_op", per_op(t.analyze, self.analyze_ops)),
            ("analyze.static_bounds_s", t.statics),
            ("analyze.static_calls", self.static_calls as f64),
            (
                "tracing.coverage_pct",
                if pass_ns == 0 {
                    0.0
                } else {
                    100.0 * (1.0 - unspanned * 1e9 / pass_ns as f64)
                },
            ),
        ]
    }
}

/// `bench.*` metrics for the workloads that do not run the harness.
const NO_BENCH: [(&str, f64); 8] = [
    ("bench.run_all_s", 0.0),
    ("bench.unattributed_s", 0.0),
    ("bench.io_s", 0.0),
    ("bench.surrogate_s", 0.0),
    ("bench.cells", 0.0),
    ("bench.cells_requested", 0.0),
    ("bench.memo_hit_ratio", 0.0),
    ("bench.sims_computed", 0.0),
];

/// Median of `values` ×100, or `None` when empty.
fn median_pct(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| 100.0 * s.median)
}

/// The interval model's aggregate resolution error against one
/// simulation, computed as experiment E-F10 does.
fn model_error(analysis: &PenaltyAnalysis, sim: &SimResult) -> Option<f64> {
    let measured: Vec<(usize, u64)> = sim
        .mispredicts
        .iter()
        .map(|m| (m.branch_idx, m.resolution()))
        .collect();
    ValidationReport::from_pairs(analysis, &measured).aggregate_relative_error()
}

/// Completes the output of a pass timed from `t0` that called every
/// layer itself (all but the `suite`).
fn finish(
    mut out: PassOutput,
    t0: Instant,
    digest: &Digest,
    work: &Work,
    tr: &Tracer,
) -> PassOutput {
    out.pass_s = t0.elapsed().as_secs_f64();
    out.digest = digest.finish();
    let spans = tr.spans();
    let self_ns = self_times(&spans);
    out.layers = work.layers(LayerTimes::from_spans(&spans, &self_ns), &spans, &self_ns);
    out.layers.extend(NO_BENCH);
    out
}

/// The `suite` workload: the `run_all` sequence on one thread.
#[derive(Debug)]
pub struct Suite {
    engine: Engine,
    scale: Scale,
    dir: PathBuf,
}

/// Phase-counter and cache snapshots of the suite's context.
fn snapshot(engine: &Engine) -> (PhaseReport, bmp_bench::engine::CacheReport) {
    (engine.ctx().phase_report(), engine.ctx().cache_stats())
}

/// Seconds per layer between two phase snapshots.
fn phase_delta(a: &PhaseReport, b: &PhaseReport) -> LayerTimes {
    let s = |x: u64, y: u64| (y - x) as f64 * 1e-9;
    LayerTimes {
        generate: s(a.trace_nanos, b.trace_nanos),
        kernel: 0.0,
        compile: s(a.compile_nanos, b.compile_nanos),
        superblock: s(a.superblock_nanos, b.superblock_nanos),
        sim: s(a.sim_nanos, b.sim_nanos),
        analyze: s(a.analysis_nanos, b.analysis_nanos),
        statics: 0.0,
    }
}

/// Where the committed golden CSVs live.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results")
}

impl Suite {
    fn run(&self, tr: &Tracer, check: bool) -> PassOutput {
        let ctx = self.engine.ctx();
        let scale = self.scale;
        // `run_all`'s defaults: two attempts per experiment, no faults.
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(2, &faults);
        let journal_path = self.dir.join("run_journal.json");
        let journal = Mutex::new(RunJournal::new(scale.ops as u64, scale.seed));
        // Write failures, keyed by the experiment whose outputs failed.
        let write_errors: Mutex<Vec<(&str, String)>> = Mutex::new(Vec::new());
        // What `run_all` does as each experiment settles: persist the
        // CSV, then the journal with the CSV's content hash.
        let on_done = |o: &ExperimentOutcome| {
            tr.span("bench.io", || {
                let mut record = ExperimentRecord {
                    name: o.name.to_string(),
                    status: RunStatus::Completed,
                    fingerprint: experiment_fingerprint(o.name, scale),
                    attempts: o.attempts,
                    error: None,
                    metrics: None,
                    csv_fnv: None,
                };
                let mut errors = write_errors.lock().expect("error log poisoned");
                match &o.kind {
                    OutcomeKind::Skipped => return,
                    OutcomeKind::Completed(table) => {
                        match bmp_bench::save_under(&self.dir, table) {
                            Ok(_) => {
                                let fnv = bmp_uarch::fp::fnv1a(table.to_csv().as_bytes());
                                record.csv_fnv = Some(format!("{fnv:016x}"));
                            }
                            Err(e) => {
                                errors.push((o.name, format!("cannot write its CSV: {e}")));
                                record.status = RunStatus::Failed;
                            }
                        }
                    }
                    OutcomeKind::Failed(e) => {
                        record.status = RunStatus::Failed;
                        record.error = Some(e.to_string());
                    }
                }
                let mut j = journal.lock().expect("journal poisoned");
                j.upsert(record);
                j.experiments.sort_by(|a, b| a.name.cmp(&b.name));
                let written = std::fs::create_dir_all(&self.dir)
                    .and_then(|()| bmp_bench::write_atomic(&journal_path, j.to_json().as_bytes()));
                if let Err(e) = written {
                    errors.push((o.name, format!("cannot write the journal: {e}")));
                }
            });
        };

        let t0 = Instant::now();
        let (snaps, report, timings_written) = tr.span("pass", || {
            let s0 = snapshot(&self.engine);
            // Executed kernel traces first, so the trace phase splits
            // between the two generators; `run_all` then finds them in
            // the cache, exactly as it would after computing them itself.
            tr.span("isa.kernel_trace", || {
                for k in bmp_isa::NAMES {
                    ctx.kernel_trace(k, scale);
                }
            });
            let s1 = snapshot(&self.engine);
            let mut report = tr.span("bench.run_all", || {
                self.engine.run_all_tolerant(scale, &policy, &on_done)
            });
            let s2 = snapshot(&self.engine);
            report.surrogate = tr.span("bench.surrogate", || surrogate::collect(ctx, scale));
            let s3 = snapshot(&self.engine);
            let written = tr.span("bench.io", || {
                std::fs::create_dir_all(&self.dir).and_then(|()| {
                    bmp_bench::write_atomic(
                        &self.dir.join("bench_timings.json"),
                        report.to_json(scale).as_bytes(),
                    )
                })
            });
            ([s0, s1, s2, s3], report, written)
        });
        let pass_s = t0.elapsed().as_secs_f64();

        let mut out = PassOutput {
            pass_s,
            ..PassOutput::default()
        };
        let mut digest = Digest::default();
        let write_errors = write_errors.into_inner().expect("error log poisoned");
        for o in &report.outcomes {
            let result = match &o.kind {
                OutcomeKind::Completed(table) => {
                    digest.bytes(table.to_csv().as_bytes());
                    match write_errors.iter().find(|(name, _)| *name == o.name) {
                        Some((_, e)) => Err(format!("{}: {e}", o.name)),
                        None => Ok(()),
                    }
                }
                OutcomeKind::Failed(e) => Err(format!("{}: {e}", o.name)),
                OutcomeKind::Skipped => Err(format!("{}: skipped", o.name)),
            };
            out.attempt(result);
        }
        out.attempt(timings_written.map_err(|e| format!("cannot write the timing report: {e}")));
        let outside: Vec<&str> = report
            .surrogate
            .iter()
            .filter(|r| !r.within_bounds)
            .map(|r| r.workload)
            .collect();
        out.attempt(if outside.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "simulated penalty outside the static bounds on {outside:?}"
            ))
        });
        out.digest = digest.finish();

        // Baseline cells of every profile and kernel: all cache hits now.
        let cfg = presets::baseline_4wide();
        let baseline = Simulator::new(cfg.clone());
        let mut work = Work::default();
        let mut errors = Vec::new();
        let profiles = spec::NAMES
            .iter()
            .map(|n| (true, ctx.named_trace(n, scale)));
        let kernels = bmp_isa::NAMES
            .iter()
            .map(|n| (false, ctx.kernel_trace(n, scale)));
        for (synthetic, trace) in profiles.chain(kernels) {
            let res = ctx.sim(&baseline, &trace);
            work.sim.counts(&res);
            work.superblock(&ctx.superblock(&trace, cfg.caches.l1i().line_bytes()));
            if check && synthetic {
                errors.extend(model_error(&ctx.analyze(&cfg, &trace), &res));
            }
        }

        let [(p0, c0), (p1, c1), (p2, c2), (p3, c3)] = &snaps;
        work.kernel_calls = c1.trace_misses - c0.trace_misses;
        // Kernel traces always fill their op budget exactly.
        work.kernel_ops = work.kernel_calls * scale.ops as u64;
        work.generate_calls = c3.trace_misses - c1.trace_misses;
        work.analyze_calls = c2.analysis_misses - c1.analysis_misses;
        work.static_calls = c3.static_misses - c2.static_misses;
        work.sim.runs = c3.sim_misses - c1.sim_misses;
        // With metrics collection off, `run_all` computes no static
        // bounds and the surrogate no model analyses, so the shared
        // analysis-phase counter splits cleanly between the two.
        let in_run_all = phase_delta(p1, p2);
        let in_surrogate = phase_delta(p2, p3);
        let spans = tr.spans();
        let self_ns = self_times(&spans);
        let t = LayerTimes {
            kernel: phase_delta(p0, p1).generate,
            statics: in_surrogate.analyze,
            analyze: in_run_all.analyze,
            ..phase_delta(p1, p3)
        };
        out.layers = work.layers(t, &spans, &self_ns);
        let run_all_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "bench.run_all")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        out.layers.extend([
            ("bench.run_all_s", run_all_ns as f64 * 1e-9),
            (
                "bench.unattributed_s",
                self_seconds(&spans, &self_ns, "bench.run_all") - in_run_all.total(),
            ),
            ("bench.io_s", self_seconds(&spans, &self_ns, "bench.io")),
            (
                "bench.surrogate_s",
                self_seconds(&spans, &self_ns, "bench.surrogate") - in_surrogate.total(),
            ),
            ("bench.cells", report.cells as f64),
            ("bench.cells_requested", report.cells_requested as f64),
            ("bench.memo_hit_ratio", c3.hit_rate()),
            ("bench.sims_computed", c3.sim_misses as f64),
        ]);

        if check {
            if let Some(e) = median_pct(&errors) {
                out.notes.push(format!("model_err_pct {e}"));
            }
            if let Some(e) = surrogate::median_rel_err(&report.surrogate) {
                out.notes.push(format!("surrogate_err_pct {}", 100.0 * e));
            }
            self.check_golden(&report.outcomes, &mut out);
        }
        out
    }

    /// At the default scale, every CSV the pass wrote must equal the
    /// committed one byte for byte.
    fn check_golden(&self, outcomes: &[ExperimentOutcome], out: &mut PassOutput) {
        if self.scale != Scale::default() {
            return;
        }
        let golden = golden_dir();
        if !golden.is_dir() {
            out.notes
                .push("golden CSVs not found; byte comparison skipped".into());
            return;
        }
        for o in outcomes {
            let file = format!("{}.csv", o.name);
            let same = match (
                std::fs::read(self.dir.join(&file)),
                std::fs::read(golden.join(&file)),
            ) {
                (Ok(ours), Ok(theirs)) if ours == theirs => Ok(()),
                (Ok(_), Ok(_)) => Err(format!("{file} differs from results/{file}")),
                (Err(e), _) | (_, Err(e)) => Err(format!("{file}: {e}")),
            };
            out.attempt(same);
        }
    }
}

impl Drop for Suite {
    fn drop(&mut self) {
        // Scratch output only; a leftover directory is harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The `sweep` workload: engine-dominated.
#[derive(Debug)]
pub struct Sweep {
    scale: Scale,
    profiles: Vec<(&'static str, WorkloadProfile)>,
    sims: Vec<Simulator>,
    baseline: Simulator,
}

impl Sweep {
    fn run(&self, tr: &Tracer, check: bool) -> PassOutput {
        let mut out = PassOutput::default();
        let mut digest = Digest::default();
        let mut work = Work::default();
        let line_bytes = self.baseline.config().caches.l1i().line_bytes();
        let t0 = Instant::now();
        tr.span("pass", || {
            for (name, profile) in &self.profiles {
                let trace = tr.span("workloads.generate", || {
                    profile.generate(self.scale.ops, self.scale.seed)
                });
                let ct = tr.span("trace.compile", || trace.compile());
                let sb = tr.span("trace.superblock", || SuperblockMap::build(&ct, line_bytes));
                out.attempted += 3;
                work.generate_calls += 1;
                work.generate_ops += trace.len() as u64;
                work.superblock(&sb);
                for sim in &self.sims {
                    let run = tr.span("sim.run", || sim.try_run_compiled_phased(&ct, &sb));
                    out.attempt(match run {
                        Ok((r, phases)) => {
                            digest.sim(&r);
                            work.sim.add(&r, phases);
                            Ok(())
                        }
                        Err(e) => Err(format!("{name} on {}: {e}", sim.config())),
                    });
                }
                if check {
                    out.attempt(engines_agree(&self.baseline, &trace, &ct, &sb, name));
                }
            }
        });
        finish(out, t0, &digest, &work, tr)
    }
}

/// The event engine and the frozen reference engine must produce the
/// same `SimResult` on `trace`.
fn engines_agree(
    sim: &Simulator,
    trace: &Trace,
    ct: &bmp_trace::CompiledTrace,
    sb: &SuperblockMap,
    name: &str,
) -> Result<(), String> {
    let event = sim
        .try_run_compiled_with(ct, sb)
        .map_err(|e| e.to_string())?;
    let reference = sim.try_run_reference(trace).map_err(|e| e.to_string())?;
    if event == reference {
        Ok(())
    } else {
        Err(format!("{name}: event and reference engines disagree"))
    }
}

/// The `model` workload: the interval model and the static bounds, no
/// simulation.
#[derive(Debug)]
pub struct Model {
    scale: Scale,
    profiles: Vec<(&'static str, WorkloadProfile)>,
    machines: Vec<(PenaltyModel, MachineConfig)>,
}

impl Model {
    fn run(&self, tr: &Tracer, check: bool) -> PassOutput {
        let mut out = PassOutput::default();
        let mut digest = Digest::default();
        let mut work = Work::default();
        let t0 = Instant::now();
        tr.span("pass", || {
            for (name, profile) in &self.profiles {
                for seed in [self.scale.seed, self.scale.seed.wrapping_add(1)] {
                    let trace = tr.span("workloads.generate", || {
                        profile.generate(self.scale.ops, seed)
                    });
                    out.attempted += 1;
                    work.generate_calls += 1;
                    work.generate_ops += trace.len() as u64;
                    for (model, cfg) in &self.machines {
                        let analysis = tr.span("core.analyze", || model.analyze(&trace));
                        let bounds =
                            tr.span("analyze.static_bounds", || bounds::compute(cfg, &trace));
                        out.attempted += 2;
                        work.analyze_calls += 1;
                        work.analyze_ops += trace.len() as u64;
                        work.static_calls += 1;
                        digest.analysis(&analysis);
                        digest.bounds(&bounds);
                        if check {
                            let m =
                                ModelMetrics::from_analysis(&analysis, cpi::predict(&trace, cfg));
                            let errors = bounds.check_model(&m);
                            out.attempt(match errors.first() {
                                None => Ok(()),
                                Some(e) => Err(format!("{name} seed {seed} on {cfg}: {e}")),
                            });
                        }
                    }
                }
            }
        });
        finish(out, t0, &digest, &work, tr)
    }
}

/// The `kernels` workload: executed traces through the same engine.
#[derive(Debug)]
pub struct Kernels {
    scale: Scale,
    /// The baseline machine first, then the predictor generations.
    sims: Vec<Simulator>,
    model: PenaltyModel,
}

impl Kernels {
    fn run(&self, tr: &Tracer, check: bool) -> PassOutput {
        let mut out = PassOutput::default();
        let mut digest = Digest::default();
        let mut work = Work::default();
        let mut errors = Vec::new();
        let line_bytes = self.sims[0].config().caches.l1i().line_bytes();
        let t0 = Instant::now();
        tr.span("pass", || {
            for name in bmp_isa::NAMES {
                let trace = tr
                    .span("isa.kernel_trace", || {
                        bmp_isa::kernel_trace(name, self.scale.ops, self.scale.seed)
                    })
                    .expect("every name in bmp_isa::NAMES builds");
                let ct = tr.span("trace.compile", || trace.compile());
                let sb = tr.span("trace.superblock", || SuperblockMap::build(&ct, line_bytes));
                out.attempted += 3;
                work.kernel_calls += 1;
                work.kernel_ops += trace.len() as u64;
                work.superblock(&sb);
                let mut baseline = None;
                for (i, sim) in self.sims.iter().enumerate() {
                    let run = tr.span("sim.run", || sim.try_run_compiled_phased(&ct, &sb));
                    out.attempt(match run {
                        Ok((r, phases)) => {
                            digest.sim(&r);
                            work.sim.add(&r, phases);
                            if check && i == 0 {
                                baseline = Some(r);
                            }
                            Ok(())
                        }
                        Err(e) => Err(format!("{name} on {}: {e}", sim.config())),
                    });
                }
                let analysis = tr.span("core.analyze", || self.model.analyze(&trace));
                out.attempted += 1;
                work.analyze_calls += 1;
                work.analyze_ops += trace.len() as u64;
                digest.analysis(&analysis);
                if check {
                    out.attempt(engines_agree(&self.sims[0], &trace, &ct, &sb, name));
                    let findings = bmp_analyze::lint_executed_trace(&trace);
                    out.attempt(match findings.first() {
                        None => Ok(()),
                        Some(d) => Err(format!("{name}: {} {}", d.code, d.message)),
                    });
                    if let Some(r) = &baseline {
                        errors.extend(model_error(&analysis, r));
                    }
                }
            }
        });
        if let Some(e) = median_pct(&errors) {
            out.notes.push(format!("model_err_pct {e}"));
        }
        finish(out, t0, &digest, &work, tr)
    }
}
