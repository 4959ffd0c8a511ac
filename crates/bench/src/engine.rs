//! The parallel, fault-tolerant experiment engine: the one run layer
//! behind `run_all`. It runs the registry (or a [`defs_named`]
//! selection) as one job per experiment over a [`ThreadPool`], and holds
//! each cached artifact only while an experiment still needs it:
//!
//! 1. **Leases** — every experiment that will run declares its grid of
//!    typed [`Cell`]s (see [`crate::grid`]): exactly the traces'
//!    simulations, interval-model analyses and branch-site classes its
//!    table reads. Before the run the engine counts, for every artifact
//!    those cells read or build (trace, superblock map, simulation,
//!    functional pass, analysis), the experiments that lease it.
//! 2. **Experiments** — each job runs its experiment (isolated, retried
//!    on failure). The table body computes each artifact it reads into
//!    the shared [`Ctx`] cache, or finds it there. There is no barrier
//!    between jobs: a body that needs an artifact another worker is
//!    computing waits for it in the cache.
//! 3. **Report** — `on_done` sees the settled experiment while its
//!    artifacts are still cached (the metrics recorder reads them there).
//! 4. **Release** — the job ends its leases; an artifact no pending
//!    experiment holds leaves the cache.
//!
//! Three sets of artifacts take no lease and stay cached: those the
//! surrogate reads after the run ([`crate::surrogate`]), those the
//! [`Ctx`] held before the run, and those of the schedule's last
//! experiment. The experiments that read none of the kept traces run
//! first, before the kept artifacts accumulate; the order is otherwise
//! the registry's.
//!
//! Results are **merged by stable experiment index, never by completion
//! order**, and every artifact is a pure function of its cache key, so
//! the produced tables are byte-identical for any thread count — the
//! determinism test in `tests/determinism.rs` locks this down.
//!
//! Every thread count runs the same schedule; with `BMP_THREADS=1` (see
//! [`threads_from_env`]) the jobs run inline, in order, on the calling
//! thread.

use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use bmp_analyze::StaticBounds;
use bmp_core::json::Value;
use bmp_core::json_object;
use bmp_core::store::DiskStore;
use bmp_core::{FunctionalOutcome, PenaltyAnalysis, PenaltyModel};
use bmp_sim::{SimResult, Simulator};
use bmp_uarch::MachineConfig;
use bmp_workloads::{spec, WorkloadProfile};

use crate::artifacts::{cache_key, Memo, MemoStats};
use crate::error::CellError;
use crate::fault::FaultPlan;
use crate::grid::Cell;
use crate::pool::ThreadPool;
use crate::{experiments, Scale, Table};

/// A synthesized trace, in the compiled form every consumer reads, plus
/// its content key, so downstream simulation and analysis lookups can
/// address results as `(machine key, trace key)`.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    key: u64,
    trace: Arc<CompiledTrace>,
}

impl TraceHandle {
    /// The content key addressing this trace in the cache.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The shared compiled trace.
    pub fn trace(&self) -> &Arc<CompiledTrace> {
        &self.trace
    }
}

impl Deref for TraceHandle {
    type Target = CompiledTrace;

    fn deref(&self) -> &Self::Target {
        &self.trace
    }
}

/// Which simulator engine a [`Ctx`] routes its simulations through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The event-driven engine over the cached [`CompiledTrace`]s
    /// (default).
    EventDriven,
    /// The retained reference engine, chosen explicitly by the
    /// engine-equivalence tests and by `bmp-profile` for its A/B timing.
    Reference,
}

use bmp_trace::CompiledTrace;

/// The cache key of `profile`'s trace at `scale`.
pub(crate) fn profile_trace_key(profile: &WorkloadProfile, scale: Scale) -> u64 {
    cache_key(
        "trace",
        &[profile.fingerprint(), scale.ops as u64, scale.seed],
    )
}

/// The cache key of the executed trace of kernel `name` at `scale`.
pub(crate) fn kernel_trace_key(name: &str, scale: Scale) -> u64 {
    let name = bmp_uarch::fp::fnv1a(name.as_bytes());
    cache_key("isa-trace", &[name, scale.ops as u64, scale.seed])
}

/// The cache key of the superblock map of trace `trace` at an L1I line
/// of `line_bytes`.
pub(crate) fn superblock_key(trace: u64, line_bytes: u32) -> u64 {
    cache_key("superblock", &[trace, u64::from(line_bytes)])
}

/// The cache key of `sim`'s run over trace `trace`.
pub(crate) fn sim_key(sim: &Simulator, trace: u64) -> u64 {
    cache_key("sim", &[sim.fingerprint(), trace])
}

/// The cache key of `cfg`'s functional pass over trace `trace`.
pub(crate) fn functional_key(cfg: &MachineConfig, trace: u64) -> u64 {
    let cfg = FunctionalOutcome::config_fingerprint(cfg);
    cache_key("functional", &[cfg, trace])
}

/// The cache key of `cfg`'s interval-model analysis of trace `trace`.
pub(crate) fn analysis_key(cfg: &MachineConfig, trace: u64) -> u64 {
    cache_key("analysis", &[cfg.fingerprint(), trace])
}

/// One artifact of a [`Ctx`] memo, by kind and cache key: the unit a
/// run leases to its consumers and releases after the last of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Held {
    /// A compiled trace.
    Trace(u64),
    /// A superblock map.
    Superblock(u64),
    /// A simulation result.
    Sim(u64),
    /// A functional pass.
    Functional(u64),
    /// An interval-model analysis.
    Analysis(u64),
}

/// Wall-clock nanoseconds accumulated per artifact phase, across all
/// threads (a sum of per-computation durations, not elapsed time).
#[derive(Debug, Default)]
struct PhaseNanos {
    trace: AtomicU64,
    compile: AtomicU64,
    superblock: AtomicU64,
    sim: AtomicU64,
    analysis: AtomicU64,
}

impl PhaseNanos {
    /// Runs `f`, adding its wall-clock time to `counter`.
    fn time<T>(counter: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        counter.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// A snapshot of the per-phase compute time spent by a [`Ctx`], summed
/// over the threads: what attributes a run to trace synthesis, trace
/// compilation, simulation and analysis (the run report, `bmp-profile`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Nanoseconds synthesizing traces.
    pub trace_nanos: u64,
    /// Nanoseconds compiling traces to structure-of-arrays form (and,
    /// under the reference engine, rebuilding them for it).
    pub compile_nanos: u64,
    /// Nanoseconds in the superblock segmentation pass.
    pub superblock_nanos: u64,
    /// Nanoseconds simulating.
    pub sim_nanos: u64,
    /// Nanoseconds in interval-model analysis.
    pub analysis_nanos: u64,
}

impl PhaseReport {
    /// The time spent between an earlier snapshot `start` of the same
    /// context and this one.
    pub(crate) fn since(&self, start: &PhaseReport) -> PhaseReport {
        PhaseReport {
            trace_nanos: self.trace_nanos - start.trace_nanos,
            compile_nanos: self.compile_nanos - start.compile_nanos,
            superblock_nanos: self.superblock_nanos - start.superblock_nanos,
            sim_nanos: self.sim_nanos - start.sim_nanos,
            analysis_nanos: self.analysis_nanos - start.analysis_nanos,
        }
    }

    /// Whole milliseconds per phase, by phase name.
    fn millis(&self) -> [(&'static str, u64); 5] {
        let ms = |nanos: u64| nanos / 1_000_000;
        [
            ("trace", ms(self.trace_nanos)),
            ("compile", ms(self.compile_nanos)),
            ("superblock", ms(self.superblock_nanos)),
            ("sim", ms(self.sim_nanos)),
            ("analysis", ms(self.analysis_nanos)),
        ]
    }
}

/// The shared experiment context: the content-addressed cache every
/// experiment draws traces, simulation results and analyses from.
///
/// Each trace is held once, compiled: synthesis yields the
/// array-of-structs [`bmp_trace::Trace`], which is compiled and dropped
/// at once, and the simulator, the interval model and every experiment
/// read the [`CompiledTrace`].
///
/// All methods are `&self` and thread-safe; concurrent requests for the
/// same artifact collapse into one computation (see [`Memo`]).
#[derive(Debug)]
pub struct Ctx {
    traces: Memo<CompiledTrace>,
    superblocks: Memo<bmp_trace::SuperblockMap>,
    sims: Memo<SimResult>,
    functional: Memo<FunctionalOutcome>,
    analyses: Memo<PenaltyAnalysis>,
    statics: Memo<StaticBounds>,
    engine: EngineChoice,
    phases: PhaseNanos,
    /// Optional persistent tier under the `sims` memo (see
    /// `bmp_core::store` and `docs/STORE.md`): set once after
    /// construction, consulted before computing and written after. The
    /// in-memory memo stays the first tier, so in-flight collapse and
    /// determinism are untouched.
    store: OnceLock<Arc<DiskStore>>,
    /// Simulations served from the persistent tier (decode included).
    store_hits: AtomicU64,
}

impl Default for Ctx {
    fn default() -> Self {
        Self::new()
    }
}

impl Ctx {
    /// A fresh, empty context on the event-driven engine.
    pub fn new() -> Self {
        Self::with_engine(EngineChoice::EventDriven)
    }

    /// A fresh, empty context with an explicit engine choice.
    pub fn with_engine(engine: EngineChoice) -> Self {
        Self {
            traces: Memo::default(),
            superblocks: Memo::default(),
            sims: Memo::default(),
            functional: Memo::default(),
            analyses: Memo::default(),
            statics: Memo::default(),
            engine,
            phases: PhaseNanos::default(),
            store: OnceLock::new(),
            store_hits: AtomicU64::new(0),
        }
    }

    /// Attaches the persistent artifact store (first call wins; later
    /// calls are ignored so a shared `Ctx` can be wired defensively).
    /// From then on every simulation consults the store before
    /// computing and persists its result after.
    pub fn set_store(&self, store: Arc<DiskStore>) {
        let _ = self.store.set(store);
    }

    /// Simulations served from the persistent tier so far.
    pub fn store_hits(&self) -> u64 {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// The attached store's counters, or `None` without a store.
    fn store_report(&self) -> Option<StoreReport> {
        let store = self.store.get()?;
        let s = store.stats();
        Some(StoreReport {
            gets: s.gets(),
            hits: s.hits(),
            puts: s.puts(),
            quarantined: s.quarantined(),
            live_bytes: store.live_bytes(),
            sim_hits: self.store_hits(),
        })
    }

    /// The engine this context routes simulations through.
    pub fn engine(&self) -> EngineChoice {
        self.engine
    }

    /// The per-phase compute-time snapshot.
    pub fn phase_report(&self) -> PhaseReport {
        PhaseReport {
            trace_nanos: self.phases.trace.load(Ordering::Relaxed),
            compile_nanos: self.phases.compile.load(Ordering::Relaxed),
            superblock_nanos: self.phases.superblock.load(Ordering::Relaxed),
            sim_nanos: self.phases.sim.load(Ordering::Relaxed),
            analysis_nanos: self.phases.analysis.load(Ordering::Relaxed),
        }
    }

    /// The trace synthesized by `profile` at `scale`, cached by
    /// `(profile fingerprint, ops, seed)`.
    pub fn trace(&self, profile: &WorkloadProfile, scale: Scale) -> TraceHandle {
        let key = profile_trace_key(profile, scale);
        self.keyed_trace(key, || profile.generate(scale.ops, scale.seed))
    }

    /// The trace for the SPEC-like profile `name` at `scale`.
    ///
    /// # Panics
    ///
    /// Panics (with a structured [`CellError`] payload, so the
    /// fault-tolerant run layer reports it as `unknown-profile` rather
    /// than an opaque panic) if `name` is not one of [`spec::NAMES`].
    pub fn named_trace(&self, name: &str, scale: Scale) -> TraceHandle {
        match spec::by_name(name) {
            Some(profile) => self.trace(&profile, scale),
            None => std::panic::panic_any(CellError::unknown_profile(name)),
        }
    }

    /// The *executed* trace of the RV32IM kernel `name` at `scale`
    /// (see `bmp_isa`), cached by `(kernel name, ops, seed)`.
    ///
    /// Generation goes through [`bmp_isa::kernel_trace`] — the exact
    /// function the analyzers (`bmp-lint --static`, `bmp-lint --kernels`) use
    /// to rebuild kernel traces from recorded `(name, ops, seed)`
    /// journals — so a kernel cell's trace is bit-identical wherever it
    /// is regenerated.
    ///
    /// # Panics
    ///
    /// Panics (with a structured [`CellError`] payload) if `name` is
    /// not one of [`bmp_isa::NAMES`].
    pub fn kernel_trace(&self, name: &str, scale: Scale) -> TraceHandle {
        self.keyed_trace(kernel_trace_key(name, scale), || {
            bmp_isa::kernel_trace(name, scale.ops, scale.seed)
                .unwrap_or_else(|| std::panic::panic_any(CellError::unknown_kernel(name)))
        })
    }

    /// A trace from an arbitrary synthesis closure, addressed by `key`
    /// (build it with [`cache_key`] from the synthesis parameters). The
    /// synthesized trace is compiled and dropped: the cache keeps the
    /// compiled form only. Synthesis and compilation are timed in their
    /// own phases.
    pub fn keyed_trace<F>(&self, key: u64, synth: F) -> TraceHandle
    where
        F: FnOnce() -> bmp_trace::Trace,
    {
        let trace = self.traces.get_or_compute(key, || {
            let trace = PhaseNanos::time(&self.phases.trace, synth);
            PhaseNanos::time(&self.phases.compile, || trace.compile())
        });
        TraceHandle { key, trace }
    }

    /// The superblock segmentation of `trace` for an L1I line of
    /// `line_bytes`, cached by `(trace key, line_bytes)`.
    /// The map is config-*family* dependent only through the line size,
    /// so one artifact serves every machine sharing an I-cache geometry
    /// — across the experiment registry that collapses hundreds of
    /// per-config builds into one per `(workload, line size)`.
    pub fn superblock(
        &self,
        trace: &TraceHandle,
        line_bytes: u32,
    ) -> Arc<bmp_trace::SuperblockMap> {
        let key = superblock_key(trace.key, line_bytes);
        self.superblocks.get_or_compute(key, || {
            PhaseNanos::time(&self.phases.superblock, || {
                bmp_trace::SuperblockMap::build(trace, line_bytes)
            })
        })
    }

    /// The result of running `sim` over `trace`, cached by
    /// `(config + options fingerprint, trace key)` and routed through
    /// this context's [`EngineChoice`]: the event-driven engine runs the
    /// cached compiled trace, the reference engine runs the original
    /// scan-everything loop over a short-lived array-of-structs copy
    /// ([`CompiledTrace::to_trace`]). Both produce bit-identical results. A
    /// metrics run asks for the same key as a plain run: its per-interval
    /// records are derived from the result afterwards
    /// ([`SimResult::interval_records`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`](bmp_sim::SimError) as payload when
    /// the cycle-budget watchdog fires; the memo classifies it as a
    /// [`CellErrorKind::Budget`](crate::error::CellErrorKind::Budget)
    /// [`CellError`].
    pub fn sim(&self, sim: &Simulator, trace: &TraceHandle) -> Arc<SimResult> {
        let key = sim_key(sim, trace.key);
        self.sims.get_or_compute(key, || {
            self.stored_sim(key, || {
                // Resolve the superblock map, or rebuild the reference
                // engine's trace, *outside* the sim timer so they are
                // attributed to their own phases, not the simulation
                // phase — and so every later config sharing the map pays
                // nothing at all.
                let res = match self.engine {
                    EngineChoice::EventDriven => {
                        let sb = self.superblock(trace, sim.config().caches.l1i().line_bytes());
                        PhaseNanos::time(&self.phases.sim, || sim.try_run_compiled_with(trace, &sb))
                    }
                    EngineChoice::Reference => {
                        let aos = PhaseNanos::time(&self.phases.compile, || trace.to_trace());
                        PhaseNanos::time(&self.phases.sim, || sim.try_run_reference(&aos))
                    }
                };
                res.unwrap_or_else(|e| std::panic::panic_any(e))
            })
        })
    }

    /// The persistent tier around one simulation: consult the store for
    /// a verified record of `key` first; on a miss (or a codec-skewed
    /// record, which is retired so it is never consulted again) compute
    /// and persist. Runs inside the memo's in-flight collapse, so per
    /// process each key is read/written at most once. A failed `put` is
    /// deliberately non-fatal — the store degrades to a recompute cache,
    /// results stay correct.
    fn stored_sim<F>(&self, key: u64, compute: F) -> SimResult
    where
        F: FnOnce() -> SimResult,
    {
        let Some(store) = self.store.get() else {
            return compute();
        };
        if let Some(bytes) = store.get(key) {
            match crate::codec::decode_sim_result(&bytes) {
                Ok(res) => {
                    self.store_hits.fetch_add(1, Ordering::Relaxed);
                    return res;
                }
                Err(_) => store.quarantine_key(key),
            }
        }
        let res = compute();
        let _ = store.put(key, &crate::codec::encode_sim_result(&res));
        res
    }

    /// The functional pass of `cfg`'s predictors and caches over
    /// `trace` — the miss-event stream and the per-load latencies —
    /// cached by `(trace key, FunctionalOutcome::config_fingerprint)`.
    /// The pass reads no timing parameter, so every depth, width,
    /// window and latency point of one trace shares it. Timed under the
    /// analysis phase.
    pub fn functional(&self, cfg: &MachineConfig, trace: &TraceHandle) -> Arc<FunctionalOutcome> {
        let key = functional_key(cfg, trace.key);
        self.functional.get_or_compute(key, || {
            PhaseNanos::time(&self.phases.analysis, || {
                FunctionalOutcome::compute(&**trace, cfg)
            })
        })
    }

    /// The interval-model analysis of `trace` under `cfg`, cached by
    /// `(config fingerprint, trace key)`, over the cached
    /// [`functional`](Ctx::functional) pass.
    pub fn analyze(&self, cfg: &MachineConfig, trace: &TraceHandle) -> Arc<PenaltyAnalysis> {
        let key = analysis_key(cfg, trace.key);
        self.analyses.get_or_compute(key, || {
            // Resolved outside the timer: the pass times itself.
            let outcome = self.functional(cfg, trace);
            PhaseNanos::time(&self.phases.analysis, || {
                PenaltyModel::new(cfg.clone()).analyze_with(&**trace, &outcome)
            })
        })
    }

    /// The static bounds of `trace` under `cfg` (see
    /// `bmp_analyze::staticpass`), cached by `(config fingerprint,
    /// trace key)`: the local terms of the cached
    /// [`analysis`](Ctx::analyze), aggregated.
    pub fn static_bounds(&self, cfg: &MachineConfig, trace: &TraceHandle) -> Arc<StaticBounds> {
        let key = cache_key("static", &[cfg.fingerprint(), trace.key]);
        self.statics.get_or_compute(key, || {
            let a = self.analyze(cfg, trace);
            StaticBounds::from_breakdowns(cfg, a.instructions, a.breakdowns.iter().copied())
        })
    }

    /// Whether `artifact` is cached.
    fn holds(&self, artifact: Held) -> bool {
        match artifact {
            Held::Trace(key) => self.traces.contains(key),
            Held::Superblock(key) => self.superblocks.contains(key),
            Held::Sim(key) => self.sims.contains(key),
            Held::Functional(key) => self.functional.contains(key),
            Held::Analysis(key) => self.analyses.contains(key),
        }
    }

    /// Drops the cache's reference to `artifact`.
    fn release(&self, artifact: Held) {
        match artifact {
            Held::Trace(key) => self.traces.release(key),
            Held::Superblock(key) => self.superblocks.release(key),
            Held::Sim(key) => self.sims.release(key),
            Held::Functional(key) => self.functional.release(key),
            Held::Analysis(key) => self.analyses.release(key),
        }
    }

    /// Cache statistics, for the timing report.
    pub fn cache_stats(&self) -> CacheReport {
        let bytes = |s: &MemoStats| HeldBytes {
            now: s.held_bytes(),
            peak: s.peak_bytes(),
        };
        CacheReport {
            trace_bytes: bytes(self.traces.stats()),
            superblock_bytes: bytes(self.superblocks.stats()),
            sim_bytes: bytes(self.sims.stats()),
            functional_bytes: bytes(self.functional.stats()),
            analysis_bytes: bytes(self.analyses.stats()),
            trace_hits: self.traces.stats().hits(),
            trace_misses: self.traces.stats().misses(),
            superblock_hits: self.superblocks.stats().hits(),
            superblock_misses: self.superblocks.stats().misses(),
            sim_hits: self.sims.stats().hits(),
            sim_misses: self.sims.stats().misses(),
            functional_hits: self.functional.stats().hits(),
            functional_misses: self.functional.stats().misses(),
            analysis_hits: self.analyses.stats().hits(),
            analysis_misses: self.analyses.stats().misses(),
            static_hits: self.statics.stats().hits(),
            static_misses: self.statics.stats().misses(),
        }
    }
}

/// One experiment in the registry: its stable name, the grid cells its
/// table reads, and the function producing the table.
pub struct ExperimentDef {
    /// Stable identifier; matches the produced table's `id`.
    pub name: &'static str,
    /// Produces the experiment's table from the shared context.
    pub run: fn(&Ctx, Scale) -> Table,
    /// Every cell the table reads: the experiment's grid (see
    /// [`crate::grid`]).
    pub cells: fn() -> Vec<Cell>,
}

/// Every experiment of the reconstructed evaluation, in the canonical
/// order `run_all` reports them (E-T1 … E-F11, E-X1 … E-X11).
pub fn experiment_defs() -> Vec<ExperimentDef> {
    use experiments as ex;
    vec![
        ex::TABLE1_CONFIG,
        ex::TABLE2_BENCHMARKS,
        ex::FIG1_INTERVAL_PROFILE,
        ex::FIG2_PENALTY_PER_BENCHMARK,
        ex::FIG3_PENALTY_VS_INTERVAL,
        ex::FIG4_INTERVAL_DISTRIBUTION,
        ex::FIG5_CONTRIBUTOR_BREAKDOWN,
        ex::FIG6_PIPELINE_DEPTH,
        ex::FIG7_FU_LATENCY,
        ex::FIG8_ILP,
        ex::FIG9_L1D_MISSES,
        ex::FIG10_MODEL_VALIDATION,
        ex::FIG11_PENALTY_DISTRIBUTION,
        ex::EX1_PREDICTOR_STUDY,
        ex::EX2_WINDOW_SWEEP,
        ex::EX3_CLOSED_FORM,
        ex::EX4_PREFETCH_STUDY,
        ex::EX5_OCCUPANCY_STUDY,
        ex::EX6_REPLACEMENT_STUDY,
        ex::EX7_INDIRECT_STUDY,
        ex::EX8_WARMUP_STUDY,
        ex::EX_PREDICTOR_GENERATIONS,
        ex::EX_H2P_CONTRIBUTORS,
        ex::EX_ISA_CONTRIBUTORS,
        ex::EX_ISA_VS_SYNTHETIC,
    ]
}

/// The registry entries named in `names`, in registry order (not argument
/// order; repeats select once) — the selection behind `run_all --only`.
///
/// # Errors
///
/// Lists every name that is not in the registry.
pub fn defs_named(names: &[&str]) -> Result<Vec<ExperimentDef>, String> {
    let defs = experiment_defs();
    let unknown: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !defs.iter().any(|d| d.name == *n))
        .collect();
    if !unknown.is_empty() {
        return Err(format!("unknown experiment(s): {}", unknown.join(", ")));
    }
    Ok(defs
        .into_iter()
        .filter(|d| names.contains(&d.name))
        .collect())
}

/// The heap bytes one memo holds ([`crate::artifacts::HeapBytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeldBytes {
    /// Held now (at the end of a run: what stays cached).
    pub now: u64,
    /// The high-water mark.
    pub peak: u64,
}

/// Cache hit/miss counters and held bytes per artifact kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheReport {
    /// Bytes held by compiled traces.
    pub trace_bytes: HeldBytes,
    /// Bytes held by superblock maps.
    pub superblock_bytes: HeldBytes,
    /// Bytes held by simulation results.
    pub sim_bytes: HeldBytes,
    /// Bytes held by functional passes.
    pub functional_bytes: HeldBytes,
    /// Bytes held by interval-model analyses.
    pub analysis_bytes: HeldBytes,
    /// Trace lookups served from the cache.
    pub trace_hits: u64,
    /// Trace synthesis computations, each followed by the trace's
    /// compilation.
    pub trace_misses: u64,
    /// Superblock-map lookups served from the cache.
    pub superblock_hits: u64,
    /// Superblock segmentation passes.
    pub superblock_misses: u64,
    /// Simulation lookups served from the cache.
    pub sim_hits: u64,
    /// Simulation runs.
    pub sim_misses: u64,
    /// Functional-pass lookups served from the cache.
    pub functional_hits: u64,
    /// Functional passes (predictor and cache walks) computed.
    pub functional_misses: u64,
    /// Analysis lookups served from the cache.
    pub analysis_hits: u64,
    /// Interval-model analysis computations.
    pub analysis_misses: u64,
    /// Static-bounds lookups served from the cache.
    pub static_hits: u64,
    /// Static-bounds aggregations (each over a cached analysis).
    pub static_misses: u64,
}

impl CacheReport {
    /// Overall hit fraction across all artifact kinds.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.trace_hits
            + self.superblock_hits
            + self.sim_hits
            + self.functional_hits
            + self.analysis_hits
            + self.static_hits;
        let total = hits
            + self.trace_misses
            + self.superblock_misses
            + self.sim_misses
            + self.functional_misses
            + self.analysis_misses
            + self.static_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The persistent store's counters at the end of a run (see
/// `docs/STORE.md`); reported only when `BMP_STORE` attached a store.
#[derive(Debug, Clone, Copy)]
pub struct StoreReport {
    /// Store lookups attempted.
    pub gets: u64,
    /// Lookups that returned a verified record.
    pub hits: u64,
    /// Records written.
    pub puts: u64,
    /// Records moved to quarantine (at open or on a failed read).
    pub quarantined: u64,
    /// Bytes of live records.
    pub live_bytes: u64,
    /// Simulations served from the store, decode included
    /// ([`Ctx::store_hits`]).
    pub sim_hits: u64,
}

/// How one experiment ended under the fault-tolerant run layer.
#[derive(Debug)]
pub enum OutcomeKind {
    /// The experiment produced its table (possibly after retries).
    Completed(Table),
    /// The experiment was skipped: the resume journal showed a matching
    /// completed record with its CSV still on disk.
    Skipped,
    /// Every attempt failed; the last structured error is attached.
    Failed(CellError),
}

/// One experiment's result under [`Engine::run_tolerant`].
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// The experiment's stable registry name.
    pub name: &'static str,
    /// Index in the run's definition slice (stable merge order).
    pub index: usize,
    /// Attempts consumed (0 for skipped, ≥ 1 otherwise).
    pub attempts: u32,
    /// Wall-clock milliseconds across all attempts.
    pub millis: u128,
    /// What happened.
    pub kind: OutcomeKind,
}

impl ExperimentOutcome {
    /// The table of a completed outcome.
    pub fn table(&self) -> Option<&Table> {
        match &self.kind {
            OutcomeKind::Completed(t) => Some(t),
            _ => None,
        }
    }

    /// The error of a failed outcome.
    pub fn error(&self) -> Option<&CellError> {
        match &self.kind {
            OutcomeKind::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// Retry/skip/panic-injection policy for a tolerant run.
#[derive(Debug)]
pub struct RunPolicy<'a> {
    /// Attempts per experiment (minimum 1; retried work recomputes
    /// through the content-addressed cache, so a successful retry is
    /// byte-identical to a first-try success).
    pub attempts: u32,
    /// Experiment names to skip (from a `--resume` journal).
    pub skip: HashSet<String>,
    /// Panic-injection schedule consulted before each attempt.
    pub faults: &'a FaultPlan,
}

impl<'a> RunPolicy<'a> {
    /// A policy with `attempts` tries, no skips and no faults.
    pub fn with_attempts(attempts: u32, faults: &'a FaultPlan) -> Self {
        Self {
            attempts: attempts.max(1),
            skip: HashSet::new(),
            faults,
        }
    }
}

/// Content fingerprint of one experiment at one scale — the identity a
/// `run_journal.json` record is trusted by on `--resume`: a completed
/// record only short-circuits a re-run when its fingerprint matches the
/// current `(name, ops, seed)`.
pub fn experiment_fingerprint(name: &str, scale: Scale) -> u64 {
    cache_key(
        "experiment",
        &[
            bmp_uarch::fp::fnv1a(name.as_bytes()),
            scale.ops as u64,
            scale.seed,
        ],
    )
}

/// Everything a run reports: per-experiment outcomes in stable order,
/// and the wall-clock, phase, cache and store accounting.
#[derive(Debug)]
pub struct TolerantReport {
    /// Per-experiment outcomes, merged by stable experiment index.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Distinct cells the experiments that ran declare.
    pub cells: usize,
    /// Cells the experiments that ran declare, before deduplication.
    pub cells_requested: usize,
    /// Compute time per phase over the run, summed over the workers.
    pub phases: PhaseReport,
    /// Wall-clock milliseconds of the whole run.
    pub total_millis: u128,
    /// Worker threads used.
    pub threads: usize,
    /// Cache accounting at the end of the run.
    pub cache: CacheReport,
    /// Persistent-store accounting at the end of the run, when a store
    /// is attached.
    pub store: Option<StoreReport>,
    /// Per-workload sim-vs-model surrogate comparison (empty unless
    /// filled in by `run_all` after the run; see [`crate::surrogate`]).
    pub surrogate: Vec<crate::surrogate::SurrogateRow>,
}

impl TolerantReport {
    /// Outcomes that ultimately failed.
    pub fn failures(&self) -> impl Iterator<Item = &ExperimentOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.kind, OutcomeKind::Failed(_)))
    }

    /// Renders the partial-results summary: counts, per-experiment
    /// status lines for anything that was retried, skipped or failed,
    /// the store accounting (with a store attached) and the surrogate
    /// table.
    pub fn to_summary(&self) -> String {
        let (mut completed, mut skipped, mut failed) = (0usize, 0usize, 0usize);
        for o in &self.outcomes {
            match o.kind {
                OutcomeKind::Completed(_) => completed += 1,
                OutcomeKind::Skipped => skipped += 1,
                OutcomeKind::Failed(_) => failed += 1,
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "\n## Run report ({} threads, {} shared cells from {} requests, total {} ms)\n\n\
             {completed} completed, {skipped} skipped (resume), {failed} failed\n",
            self.threads, self.cells, self.cells_requested, self.total_millis
        ));
        for o in &self.outcomes {
            match &o.kind {
                OutcomeKind::Completed(_) if o.attempts > 1 => {
                    out.push_str(&format!(
                        "  {:<28} completed after {} attempts\n",
                        o.name, o.attempts
                    ));
                }
                OutcomeKind::Skipped => {
                    out.push_str(&format!("  {:<28} skipped (journal match)\n", o.name));
                }
                OutcomeKind::Failed(e) => {
                    out.push_str(&format!(
                        "  {:<28} FAILED after {} attempts: {e}\n",
                        o.name, o.attempts
                    ));
                }
                OutcomeKind::Completed(_) => {}
            }
        }
        let phases = self
            .phases
            .millis()
            .map(|(phase, ms)| format!("{phase} {ms}"));
        out.push_str(&format!("phases ms (CPU sum): {}\n", phases.join(", ")));
        let c = &self.cache;
        out.push_str(&format!(
            "cache: {} traces, {} sims, {} functional passes ({} reused), {} analyses, \
             {} static bounds computed; hit rate {:.1}%\n",
            c.trace_misses,
            c.sim_misses,
            c.functional_misses,
            c.functional_hits,
            c.analysis_misses,
            c.static_misses,
            c.hit_rate() * 100.0
        ));
        let mib = |bytes: u64| bytes as f64 / f64::from(1 << 20);
        let mb = |b: HeldBytes| format!("{:.1}/{:.1}", mib(b.now), mib(b.peak));
        out.push_str(&format!(
            "cache held MiB (end/peak): traces {}, superblocks {}, sims {}, \
             functional passes {}, analyses {}\n",
            mb(c.trace_bytes),
            mb(c.superblock_bytes),
            mb(c.sim_bytes),
            mb(c.functional_bytes),
            mb(c.analysis_bytes)
        ));
        if let Some(s) = &self.store {
            out.push_str(&format!(
                "store: {} gets, {} hits, {} puts, {} quarantined, \
                 {} live bytes; {} sims served from the store\n",
                s.gets, s.hits, s.puts, s.quarantined, s.live_bytes, s.sim_hits
            ));
        }
        if !self.surrogate.is_empty() {
            out.push_str(
                "\n## Static surrogate (mean penalty per misprediction, baseline machine)\n\n",
            );
            out.push_str(&format!(
                "  {:<10} {:>12} {:>10} {:>10} {:>8}  bounds\n",
                "workload", "mispredicts", "simulated", "model", "err"
            ));
            for r in &self.surrogate {
                out.push_str(&format!(
                    "  {:<10} {:>12} {:>10.2} {:>10.2} {:>7.1}%  {}\n",
                    r.workload,
                    r.mispredicts,
                    r.sim_mean_penalty,
                    r.model_mean_penalty,
                    r.rel_err * 100.0,
                    if r.within_bounds { "ok" } else { "VIOLATED" }
                ));
            }
            if let Some(m) = crate::surrogate::median_rel_err(&self.surrogate) {
                out.push_str(&format!("  median error {:.1}%\n", m * 100.0));
            }
        }
        out
    }

    /// Renders the machine-readable timing report written to
    /// `results/bench_timings.json` (trailing newline). The `"store"`
    /// object appears only with a store attached.
    pub fn to_json(&self, scale: Scale) -> String {
        let millis = |ms: u128| u64::try_from(ms).unwrap_or(u64::MAX);
        let c = &self.cache;
        let store = self.store.map(|s| {
            json_object! {
                "gets": s.gets, "hits": s.hits, "puts": s.puts, "quarantined": s.quarantined,
                "live_bytes": s.live_bytes, "sim_hits": s.sim_hits,
            }
        });
        let surrogate = self.surrogate.iter().map(|r| {
            json_object! {
                "workload": r.workload, "mispredicts": r.mispredicts,
                "sim_mean_penalty": Value::rounded(r.sim_mean_penalty, 4),
                "model_mean_penalty": Value::rounded(r.model_mean_penalty, 4),
                "rel_err": Value::rounded(r.rel_err, 4), "within_bounds": r.within_bounds,
            }
        });
        let phases = (self.phases.millis()).map(|(phase, ms)| (format!("{phase}_ms"), ms.into()));
        let experiments = self.outcomes.iter().map(|o| {
            let status = match o.kind {
                OutcomeKind::Completed(_) => "completed",
                OutcomeKind::Skipped => "skipped",
                OutcomeKind::Failed(_) => "failed",
            };
            json_object! {
                "name": o.name, "status": status, "attempts": o.attempts, "millis": millis(o.millis),
            }
        });
        let report = json_object! {
            "ops": scale.ops,
            "seed": scale.seed,
            "threads": self.threads,
            "cells": self.cells,
            "cells_requested": self.cells_requested,
            "phases": Value::Object(phases.into()),
            "total_millis": millis(self.total_millis),
            "cache": json_object! {
                "trace_hits": c.trace_hits, "trace_misses": c.trace_misses,
                "superblock_hits": c.superblock_hits, "superblock_misses": c.superblock_misses,
                "sim_hits": c.sim_hits, "sim_misses": c.sim_misses,
                "functional_hits": c.functional_hits, "functional_misses": c.functional_misses,
                "analysis_hits": c.analysis_hits, "analysis_misses": c.analysis_misses,
                "static_hits": c.static_hits, "static_misses": c.static_misses,
                "trace_bytes": c.trace_bytes.now, "trace_peak_bytes": c.trace_bytes.peak,
                "superblock_bytes": c.superblock_bytes.now,
                "superblock_peak_bytes": c.superblock_bytes.peak,
                "sim_bytes": c.sim_bytes.now, "sim_peak_bytes": c.sim_bytes.peak,
                "functional_bytes": c.functional_bytes.now,
                "functional_peak_bytes": c.functional_bytes.peak,
                "analysis_bytes": c.analysis_bytes.now,
                "analysis_peak_bytes": c.analysis_bytes.peak,
            },
            "store"?: store,
            "surrogate": surrogate.collect::<Value>(),
            "experiments": experiments.collect::<Value>(),
        };
        format!("{report}\n")
    }
}

/// The engine: a pool plus a shared context.
#[derive(Debug)]
pub struct Engine {
    pool: ThreadPool,
    ctx: Ctx,
}

impl Engine {
    /// An engine running on `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: ThreadPool::new(threads),
            ctx: Ctx::new(),
        }
    }

    /// An engine on `threads` workers with an explicit simulator engine
    /// choice — `bmp-profile` uses this to run the same suite through
    /// both engines in one process.
    pub fn with_engine(threads: usize, choice: EngineChoice) -> Self {
        Self {
            pool: ThreadPool::new(threads),
            ctx: Ctx::with_engine(choice),
        }
    }

    /// The shared context (for reuse after a run).
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// Runs every experiment under the fault-tolerant layer: panics are
    /// isolated per experiment, failed experiments are retried up to
    /// `policy.attempts` times, skipped names short-circuit, and
    /// `on_done` is invoked from the worker thread the moment each
    /// experiment settles (for incremental CSV saves and journal writes).
    pub fn run_all_tolerant(
        &self,
        scale: Scale,
        policy: &RunPolicy<'_>,
        on_done: &(dyn Fn(&ExperimentOutcome) + Sync),
    ) -> TolerantReport {
        self.run_tolerant(&experiment_defs(), scale, policy, on_done)
    }

    /// Runs `defs` through the lease schedule (see the module docs)
    /// under the fault-tolerant layer (see
    /// [`run_all_tolerant`](Self::run_all_tolerant)).
    ///
    /// Determinism contract: because every artifact is a pure function
    /// of its cache key, a retried experiment recomputes exactly the
    /// same table a first-try success would have produced — fault
    /// schedules change *which* experiments fail, never the bytes of
    /// the tables that survive.
    pub fn run_tolerant(
        &self,
        defs: &[ExperimentDef],
        scale: Scale,
        policy: &RunPolicy<'_>,
        on_done: &(dyn Fn(&ExperimentOutcome) + Sync),
    ) -> TolerantReport {
        let start = Instant::now();
        let phases = self.ctx.phase_report();
        let schedule = Schedule::new(defs, &policy.skip, &self.ctx, scale);
        // Each job runs its experiment, reports it and ends its leases.
        // The pool job itself never panics — failure is data here.
        let mut outcomes = self.pool.map(defs.len(), |job| {
            let i = schedule.order[job];
            let outcome = self.attempt(&defs[i], i, scale, policy);
            on_done(&outcome);
            schedule.end_leases(i, &self.ctx);
            outcome
        });
        outcomes.sort_unstable_by_key(|o| o.index);

        TolerantReport {
            outcomes,
            cells: schedule.cells,
            cells_requested: schedule.requested,
            phases: self.ctx.phase_report().since(&phases),
            total_millis: start.elapsed().as_millis(),
            threads: self.pool.threads(),
            cache: self.ctx.cache_stats(),
            store: self.ctx.store_report(),
            surrogate: Vec::new(),
        }
    }

    /// Runs experiment `def` (index `index`) with its retry budget, or
    /// skips it.
    fn attempt(
        &self,
        def: &ExperimentDef,
        index: usize,
        scale: Scale,
        policy: &RunPolicy<'_>,
    ) -> ExperimentOutcome {
        if policy.skip.contains(def.name) {
            return ExperimentOutcome {
                name: def.name,
                index,
                attempts: 0,
                millis: 0,
                kind: OutcomeKind::Skipped,
            };
        }
        let t0 = Instant::now();
        let mut attempts = 0u32;
        let kind = loop {
            attempts += 1;
            let result = catch_unwind(AssertUnwindSafe(|| {
                if policy.faults.fires(def.name) {
                    std::panic::panic_any(CellError::panic(def.name, "injected panic fault"));
                }
                (def.run)(&self.ctx, scale)
            }));
            match result {
                Ok(table) => break OutcomeKind::Completed(table),
                Err(payload) => {
                    let err = CellError::from_panic_payload(def.name, payload);
                    if attempts >= policy.attempts.max(1) {
                        break OutcomeKind::Failed(err);
                    }
                }
            }
        };
        ExperimentOutcome {
            name: def.name,
            index,
            attempts,
            millis: t0.elapsed().as_millis(),
            kind,
        }
    }
}

/// One run's execution order and leases (see the module docs).
struct Schedule {
    /// Definition indices in execution order.
    order: Vec<usize>,
    /// Distinct cells declared.
    cells: usize,
    /// Cells declared, before deduplication.
    requested: usize,
    /// Per definition: the artifacts it leases.
    leases: Vec<Vec<Held>>,
    /// Per leased artifact: the experiments still holding it.
    holders: Mutex<HashMap<Held, usize>>,
}

impl Schedule {
    /// Counts the leases of every experiment in `defs` that is not
    /// skipped. Three sets of artifacts take no lease and stay cached:
    /// those the surrogate reads, those `ctx` held before the run, and
    /// those of the last pending experiment in the order — no experiment
    /// is scheduled after it, and a repeat run on the same `ctx` finds
    /// them.
    fn new(defs: &[ExperimentDef], skip: &HashSet<String>, ctx: &Ctx, scale: Scale) -> Self {
        let declared: Vec<Vec<Cell>> = defs
            .iter()
            .map(|d| match skip.contains(d.name) {
                true => Vec::new(),
                false => (d.cells)(),
            })
            .collect();
        let reads: Vec<HashSet<Held>> = declared
            .iter()
            .map(|cells| cells.iter().flat_map(|c| c.reads(scale)).collect())
            .collect();
        let mut kept: HashSet<Held> = crate::surrogate::cells()
            .iter()
            .flat_map(|c| c.reads(scale))
            .collect();
        kept.extend(reads.iter().flatten().filter(|&&h| ctx.holds(h)));

        // Experiments that read no kept trace run first, before the kept
        // artifacts accumulate; the order is otherwise the registry's.
        let mut order: Vec<usize> = (0..defs.len()).collect();
        order.sort_by_key(|&i| {
            reads[i]
                .iter()
                .any(|h| matches!(h, Held::Trace(_)) && kept.contains(h))
        });
        let last = order.iter().rev().find(|&&i| !skip.contains(defs[i].name));
        if let Some(&last) = last {
            kept.extend(reads[last].iter().copied());
        }
        let distinct: HashSet<u64> = declared.iter().flatten().map(Cell::key).collect();
        let leases: Vec<Vec<Held>> = reads
            .into_iter()
            .map(|r| r.into_iter().filter(|h| !kept.contains(h)).collect())
            .collect();
        let mut holders = HashMap::new();
        for &h in leases.iter().flatten() {
            *holders.entry(h).or_insert(0) += 1;
        }
        Self {
            order,
            cells: distinct.len(),
            requested: declared.iter().map(Vec::len).sum(),
            leases,
            holders: Mutex::new(holders),
        }
    }

    /// Ends experiment `i`'s leases: every artifact no other pending
    /// experiment holds leaves the cache.
    fn end_leases(&self, i: usize, ctx: &Ctx) {
        let mut holders = self.holders.lock().expect("lease table poisoned");
        for h in &self.leases[i] {
            let n = holders.get_mut(h).expect("every lease is counted");
            *n -= 1;
            if *n == 0 {
                ctx.release(*h);
            }
        }
    }
}

/// Worker count from the environment: `BMP_THREADS` when set and not
/// empty, otherwise the machine's available parallelism.
///
/// # Errors
///
/// Names the variable when it is not a positive integer.
pub fn threads_from_env() -> Result<usize, String> {
    let threads = crate::scale::env_count("BMP_THREADS")?;
    Ok(threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CellErrorKind;
    use bmp_core::json::{self, ObjectExt};
    use bmp_uarch::presets;

    #[test]
    fn registry_covers_all_experiments_once() {
        let defs = experiment_defs();
        assert_eq!(defs.len(), 25);
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 25, "registry names must be unique");
    }

    #[test]
    fn ctx_shares_traces_and_sims() {
        let ctx = Ctx::new();
        let scale = Scale {
            ops: 2_000,
            seed: 9,
        };
        let a = ctx.named_trace("gzip", scale);
        let b = ctx.named_trace("gzip", scale);
        assert!(Arc::ptr_eq(a.trace(), b.trace()));
        assert_eq!(a.key(), b.key());
        let sim = Simulator::new(presets::baseline_4wide());
        let r1 = ctx.sim(&sim, &a);
        let r2 = ctx.sim(&sim, &b);
        assert!(Arc::ptr_eq(&r1, &r2));
        let stats = ctx.cache_stats();
        assert_eq!(stats.trace_misses, 1);
        assert_eq!(stats.trace_hits, 1);
        assert_eq!(stats.sim_misses, 1);
        assert_eq!(stats.sim_hits, 1);
    }

    #[test]
    fn different_scales_do_not_collide() {
        let ctx = Ctx::new();
        let a = ctx.named_trace(
            "gzip",
            Scale {
                ops: 1_000,
                seed: 1,
            },
        );
        let b = ctx.named_trace(
            "gzip",
            Scale {
                ops: 1_000,
                seed: 2,
            },
        );
        assert_ne!(a.key(), b.key());
        assert!(!Arc::ptr_eq(a.trace(), b.trace()));
    }

    /// The CSV of `name` from a fault-free, single-attempt run.
    fn clean_csv(name: &str, scale: Scale) -> String {
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        let defs = defs_named(&[name]).unwrap();
        let report = Engine::new(2).run_tolerant(&defs, scale, &policy, &|_| {});
        report.outcomes[0]
            .table()
            .expect("a clean run completes")
            .to_csv()
    }

    #[test]
    fn tolerant_run_isolates_an_injected_failure() {
        let scale = Scale {
            ops: 2_000,
            seed: 3,
        };
        let faults = FaultPlan::parse("panic:exp=fig8_ilp").unwrap();
        let policy = RunPolicy::with_attempts(2, &faults);
        let engine = Engine::new(2);
        let defs =
            defs_named(&["table1_config", "fig8_ilp", "fig4_interval_distribution"]).unwrap();
        let seen = std::sync::Mutex::new(Vec::new());
        let report = engine.run_tolerant(&defs, scale, &policy, &|o| {
            seen.lock().unwrap().push(o.name);
        });
        assert_eq!(report.outcomes.len(), 3);
        let failed: Vec<_> = report.failures().collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "fig8_ilp");
        assert_eq!(failed[0].attempts, 2, "the retry budget was consumed");
        assert_eq!(failed[0].error().unwrap().message, "injected panic fault");
        for o in &report.outcomes {
            if o.name != "fig8_ilp" {
                assert!(
                    matches!(o.kind, OutcomeKind::Completed(_)),
                    "{} must survive its sibling's failure",
                    o.name
                );
            }
        }
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(
            seen,
            ["fig4_interval_distribution", "fig8_ilp", "table1_config"],
            "on_done fires once per experiment"
        );
        assert!(report.to_summary().contains("FAILED after 2 attempts"));
    }

    #[test]
    fn tolerant_retry_is_deterministic() {
        let scale = Scale {
            ops: 2_000,
            seed: 3,
        };
        let names = ["fig4_interval_distribution"];
        let clean = clean_csv(names[0], scale);

        // times=1: the first attempt panics, the retry succeeds — and
        // produces byte-identical CSV to the clean run.
        let faults = FaultPlan::parse("panic:exp=fig4_interval_distribution:times=1").unwrap();
        let policy = RunPolicy::with_attempts(2, &faults);
        let report =
            Engine::new(2).run_tolerant(&defs_named(&names).unwrap(), scale, &policy, &|_| {});
        let o = &report.outcomes[0];
        assert_eq!(o.attempts, 2);
        let table = o.table().expect("completion after retry");
        assert_eq!(table.to_csv(), clean);
    }

    #[test]
    fn tolerant_run_skips_journaled_names() {
        let scale = Scale {
            ops: 2_000,
            seed: 3,
        };
        let faults = FaultPlan::none();
        let mut policy = RunPolicy::with_attempts(1, &faults);
        policy.skip.insert("table1_config".to_string());
        let defs = defs_named(&["table1_config", "fig8_ilp"]).unwrap();
        let report = Engine::new(1).run_tolerant(&defs, scale, &policy, &|_| {});
        assert!(matches!(report.outcomes[0].kind, OutcomeKind::Skipped));
        assert_eq!(report.outcomes[0].attempts, 0);
        assert!(matches!(report.outcomes[1].kind, OutcomeKind::Completed(_)));
    }

    #[test]
    fn an_all_skipped_run_fans_out_nothing() {
        let scale = Scale {
            ops: 2_000,
            seed: 3,
        };
        let faults = FaultPlan::none();
        let mut policy = RunPolicy::with_attempts(1, &faults);
        let defs = experiment_defs();
        policy.skip = defs.iter().map(|d| d.name.to_string()).collect();
        let report = Engine::new(2).run_tolerant(&defs, scale, &policy, &|_| {});
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o.kind, OutcomeKind::Skipped)));
        assert_eq!((report.cells, report.cells_requested), (0, 0));
        assert_eq!(report.cache.sim_misses, 0);
        assert_eq!(report.cache.trace_misses, 0);
    }

    /// Misses per memo: traces, superblocks, sims, functional passes,
    /// analyses, static bounds.
    fn misses(c: &CacheReport) -> [u64; 6] {
        [
            c.trace_misses,
            c.superblock_misses,
            c.sim_misses,
            c.functional_misses,
            c.analysis_misses,
            c.static_misses,
        ]
    }

    /// Over the whole registry plus the surrogate, as `run_all` runs
    /// them, the functional pass runs once per distinct
    /// `(trace key, functional fingerprint)` pair the analysis cells and
    /// the surrogate's baseline static bounds request — at 1 and 2
    /// threads, with metrics off and on (metrics adds CPI stacks, but
    /// no pair).
    #[test]
    fn one_functional_pass_per_trace_and_functional_config() {
        use crate::grid::{Artifact, Point};
        let scale = Scale {
            ops: 1_000,
            seed: 3,
        };
        let defs = experiment_defs();
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        for metrics in [false, true] {
            for threads in [1, 2] {
                let engine = Engine {
                    pool: ThreadPool::new(threads),
                    ctx: Ctx::with_engine(EngineChoice::EventDriven),
                };
                let ctx = engine.ctx();
                let on_done = |o: &ExperimentOutcome| {
                    if metrics && o.table().is_some() {
                        crate::metrics::collect_experiment(ctx, &defs[o.index], scale);
                    }
                };
                let report = engine.run_tolerant(&defs, scale, &policy, &on_done);
                assert_eq!(report.failures().count(), 0);
                crate::surrogate::collect(ctx, scale);

                let pair = |p: &Point| {
                    let cfg = p.machine.config();
                    let key = p.workload.trace_key(scale);
                    (key, FunctionalOutcome::config_fingerprint(&cfg))
                };
                let pairs: HashSet<_> = defs
                    .iter()
                    .flat_map(|d| (d.cells)())
                    .chain(crate::surrogate::cells())
                    .filter(|c| c.artifact == Artifact::Analysis)
                    .map(|c| pair(&c.point))
                    .collect();

                let c = ctx.cache_stats();
                let at = format!("metrics {metrics}, {threads} threads");
                assert_eq!(c.functional_misses, pairs.len() as u64, "{at}");
                assert!(
                    c.functional_misses < c.analysis_misses + c.static_misses,
                    "{at}: passes are shared across timing configurations"
                );
            }
        }
    }

    /// The surrogate's model penalties and static bounds read analyses
    /// the registry's cells already computed: after a full run it
    /// simulates, analyses, runs no functional pass and no knock-out
    /// sweep of its own (the analysis phase clock does not move).
    #[test]
    fn surrogate_reads_only_cached_analyses() {
        let scale = Scale {
            ops: 1_000,
            seed: 3,
        };
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        let engine = Engine::new(2);
        let report = engine.run_tolerant(&experiment_defs(), scale, &policy, &|_| {});
        assert_eq!(report.failures().count(), 0);
        let before = engine.ctx().cache_stats();
        let analysis_nanos = engine.ctx().phase_report().analysis_nanos;
        let rows = crate::surrogate::collect(engine.ctx(), scale);
        assert!(!rows.is_empty());
        assert_eq!(engine.ctx().phase_report().analysis_nanos, analysis_nanos);
        let after = engine.ctx().cache_stats();
        assert_eq!(after.analysis_misses, before.analysis_misses);
        assert_eq!(after.functional_misses, before.functional_misses);
        assert_eq!(after.sim_misses, before.sim_misses);
        assert!(after.static_misses > before.static_misses);
    }

    #[test]
    fn every_grid_holds_exactly_what_its_table_reads() {
        use crate::grid::Artifact;
        let scale = Scale {
            ops: 1_000,
            seed: 3,
        };
        for def in experiment_defs() {
            let ctx = Ctx::with_engine(EngineChoice::EventDriven);
            for cell in (def.cells)() {
                match cell.artifact {
                    Artifact::Sim => drop(cell.point.sim(&ctx, scale)),
                    Artifact::Analysis => drop(cell.point.analysis(&ctx, scale)),
                    Artifact::Classes => drop(cell.point.trace(&ctx, scale)),
                }
            }
            let from_cells = misses(&ctx.cache_stats());
            (def.run)(&ctx, scale);
            assert_eq!(
                misses(&ctx.cache_stats()),
                from_cells,
                "{}: the body computed work its cells did not declare",
                def.name
            );
            let alone = Ctx::with_engine(EngineChoice::EventDriven);
            (def.run)(&alone, scale);
            assert_eq!(
                misses(&alone.cache_stats()),
                from_cells,
                "{}: the cells computed work the body never reads",
                def.name
            );
        }
    }

    #[test]
    fn unknown_profile_is_a_structured_error() {
        let ctx = Ctx::new();
        let scale = Scale { ops: 100, seed: 1 };
        let named = catch_unwind(AssertUnwindSafe(|| drop(ctx.named_trace("ghost", scale))));
        let kernel = catch_unwind(AssertUnwindSafe(|| drop(ctx.kernel_trace("ghost", scale))));
        for caught in [named, kernel] {
            assert_eq!(
                caught
                    .unwrap_err()
                    .downcast_ref::<CellError>()
                    .map(|e| e.kind),
                Some(CellErrorKind::UnknownProfile),
                "the panic carries the structured payload"
            );
        }
    }

    #[test]
    fn a_tripped_cycle_budget_is_a_budget_error() {
        let ctx = Ctx::new();
        let trace = ctx.named_trace("gzip", Scale { ops: 500, seed: 1 });
        let sim = Simulator::with_options(
            presets::baseline_4wide(),
            bmp_sim::SimOptions::with_max_cycles(50),
        );
        let caught = catch_unwind(AssertUnwindSafe(|| drop(ctx.sim(&sim, &trace))));
        let err = caught
            .unwrap_err()
            .downcast::<CellError>()
            .expect("the panic carries a CellError");
        assert_eq!(err.kind, CellErrorKind::Budget, "{err}");
        assert!(err.message.contains("cycle budget exceeded"), "{err}");
    }

    #[test]
    fn defs_named_selects_in_registry_order() {
        let defs = defs_named(&[
            "fig4_interval_distribution",
            "table1_config",
            "table1_config",
        ])
        .unwrap();
        // Registry order, not argument order; a repeat selects once.
        let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, ["table1_config", "fig4_interval_distribution"]);
        let err = defs_named(&["fig8_ilp", "nope", ""]).err().unwrap();
        assert!(err.contains("nope"), "{err}");
        assert!(!err.contains("fig8_ilp"), "{err}");
    }

    #[test]
    fn all_runs_at_tiny_scale() {
        let scale = Scale {
            ops: 5_000,
            seed: 3,
        };
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        let report = Engine::new(1).run_all_tolerant(scale, &policy, &|_| {});
        assert_eq!(report.outcomes.len(), 25);
        for o in &report.outcomes {
            let t = o.table().expect("every experiment completes");
            assert_eq!(o.name, t.id, "registry name matches table id");
            assert!(!t.rows.is_empty(), "table {} is empty", t.id);
            assert!(!t.headers.is_empty());
        }
        let json = json::parse(&report.to_json(scale)).expect("the timing report parses");
        let json = json.as_object("timings").unwrap();
        assert_eq!(json.get_u64("threads"), Ok(1));
        assert_eq!(json.get_u64("ops"), Ok(5_000));
        let experiments = json.get_array("experiments").unwrap();
        assert_eq!(experiments.len(), report.outcomes.len());
        for (e, o) in experiments.iter().zip(&report.outcomes) {
            let e = e.as_object("experiment").unwrap();
            assert_eq!(e.get_string("name"), Ok(o.name));
            assert_eq!(e.get_string("status"), Ok("completed"));
        }
        assert!(json.get("store").is_none(), "no store, no store object");
        assert!(!report.to_summary().contains("store:"));
    }

    /// The report publishes the compute time of each phase over the run,
    /// summed over the workers. No phase timer nests in another on one
    /// thread, so the phases add up to at most the workers' wall time.
    #[test]
    fn the_report_publishes_the_runs_phases() {
        let scale = Scale {
            ops: 2_000,
            seed: 3,
        };
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        let defs = defs_named(&["fig2_penalty_per_benchmark", "fig8_ilp"]).unwrap();
        for threads in [1, 2] {
            let engine = Engine::new(threads);
            let report = engine.run_tolerant(&defs, scale, &policy, &|_| {});
            assert_eq!(
                report.phases,
                engine.ctx().phase_report(),
                "a fresh context"
            );
            assert!(report.phases.sim_nanos > 0);
            let json = json::parse(&report.to_json(scale)).unwrap();
            let json = json.as_object("timings").unwrap();
            let phases = json.get_object("phases").unwrap();
            let keys = [
                "trace_ms",
                "compile_ms",
                "superblock_ms",
                "sim_ms",
                "analysis_ms",
            ];
            assert_eq!(phases.len(), keys.len());
            let sum: u64 = keys.iter().map(|k| phases.get_u64(k).unwrap()).sum();
            let threads = threads as u64;
            let total = json.get_u64("total_millis").unwrap();
            assert!(
                sum <= threads * total + threads,
                "{sum} ms > {threads} × {total} ms"
            );
            assert!(report.to_summary().contains("phases ms (CPU sum): trace "));
        }
    }

    #[test]
    fn store_counters_reach_the_report() {
        let dir = std::env::temp_dir().join(format!("bmp_engine_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale {
            ops: 1_000,
            seed: 3,
        };
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        let defs = defs_named(&["fig8_ilp"]).unwrap();
        let run = || {
            let (store, _) = DiskStore::open(&dir).expect("store opens");
            let engine = Engine::new(1);
            engine.ctx().set_store(Arc::new(store));
            engine.run_tolerant(&defs, scale, &policy, &|_| {})
        };
        let cold = run().store.expect("a store is attached");
        assert!(cold.puts > 0 && cold.live_bytes > 0);
        assert_eq!(cold.sim_hits, 0);
        // A second process over the same store serves every sim from it.
        let warm_report = run();
        let warm = warm_report.store.expect("a store is attached");
        assert_eq!(warm.sim_hits, cold.puts);
        assert_eq!(warm.puts, 0);
        assert!(warm_report
            .to_summary()
            .contains("sims served from the store"));
        let json = json::parse(&warm_report.to_json(scale)).unwrap();
        let store = json
            .as_object("timings")
            .unwrap()
            .get_object("store")
            .unwrap();
        assert_eq!(store.get_u64("sim_hits").unwrap(), warm.sim_hits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store filled by a plain run serves a metrics-collecting run
    /// completely: metrics derive their interval records from the same
    /// results, so they ask for the same keys and simulate nothing new.
    #[test]
    fn metrics_runs_reuse_a_plain_runs_stored_sims() {
        let dir = std::env::temp_dir().join(format!("bmp_engine_metrics_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale {
            ops: 1_000,
            seed: 3,
        };
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        let defs = defs_named(&["fig2_penalty_per_benchmark", "ex_isa_contributors"]).unwrap();
        let run = |metrics: bool| {
            let (store, _) = DiskStore::open(&dir).expect("store opens");
            let engine = Engine::new(1);
            let ctx = engine.ctx();
            ctx.set_store(Arc::new(store));
            let records = std::sync::atomic::AtomicU64::new(0);
            let on_done = |o: &ExperimentOutcome| {
                if metrics {
                    let doc = crate::metrics::collect_experiment(ctx, &defs[o.index], scale);
                    let n: u64 = doc.workloads.iter().map(|w| w.intervals.total()).sum();
                    records.fetch_add(n, Ordering::Relaxed);
                }
            };
            let report = engine.run_tolerant(&defs, scale, &policy, &on_done);
            assert_eq!(report.failures().count(), 0);
            let store = report.store.expect("a store is attached");
            (
                store,
                ctx.cache_stats(),
                ctx.phase_report(),
                records.into_inner(),
            )
        };
        let (plain, ..) = run(false);
        assert!(plain.puts > 0);
        let (store, cache, phases, records) = run(true);
        assert!(records > 0, "the metrics documents hold interval records");
        assert_eq!(
            store.sim_hits, cache.sim_misses,
            "every sim came from the store"
        );
        assert_eq!(store.puts, 0);
        assert_eq!(phases.sim_nanos, 0, "nothing was simulated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The miss counts of the whole registry plus the surrogate at
    /// 2,000 ops, seed 42: traces, superblock maps, simulations,
    /// functional passes, analyses, static bounds.
    const FULL_RUN_MISSES: [u64; 6] = [24, 24, 109, 44, 68, 17];

    /// A full run as `run_all` makes it, on `threads` workers, followed
    /// by the surrogate; the report's cache accounting covers both.
    fn full_run(threads: usize, scale: Scale) -> (Engine, TolerantReport) {
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        let engine = Engine::new(threads);
        let mut report = engine.run_all_tolerant(scale, &policy, &|_| {});
        assert_eq!(report.failures().count(), 0);
        report.surrogate = crate::surrogate::collect(engine.ctx(), scale);
        report.cache = engine.ctx().cache_stats();
        (engine, report)
    }

    /// Releasing artifacts after their last consumer computes nothing
    /// twice: the misses are the ones every artifact costs once, at any
    /// thread count.
    #[test]
    fn a_full_run_computes_each_artifact_once() {
        let scale = Scale {
            ops: 2_000,
            seed: 42,
        };
        for threads in [1, 8] {
            let (_, report) = full_run(threads, scale);
            assert_eq!(misses(&report.cache), FULL_RUN_MISSES, "{threads} threads");
        }
    }

    /// After a full run and the surrogate, each memo holds exactly the
    /// artifacts the surrogate declares, and the held bytes are theirs.
    #[test]
    fn a_full_run_keeps_only_the_surrogates_artifacts() {
        let scale = Scale {
            ops: 2_000,
            seed: 42,
        };
        let (engine, report) = full_run(1, scale);
        let ctx = engine.ctx();
        let kept: HashSet<Held> = crate::surrogate::cells()
            .iter()
            .flat_map(|c| c.reads(scale))
            .collect();
        assert!(kept.iter().all(|&h| ctx.holds(h)));
        let mut declared = [0; 5];
        for h in &kept {
            declared[match h {
                Held::Trace(_) => 0,
                Held::Superblock(_) => 1,
                Held::Sim(_) => 2,
                Held::Functional(_) => 3,
                Held::Analysis(_) => 4,
            }] += 1;
        }
        let held = [
            ctx.traces.len(),
            ctx.superblocks.len(),
            ctx.sims.len(),
            ctx.functional.len(),
            ctx.analyses.len(),
        ];
        assert_eq!(held, declared);
        let workloads = spec::NAMES.len() + bmp_isa::NAMES.len();
        assert_eq!(ctx.traces.len(), workloads);
        assert_eq!(ctx.statics.len(), workloads);

        let c = report.cache;
        let traces: u64 = crate::surrogate::cells()
            .iter()
            .filter(|cell| cell.artifact == crate::grid::Artifact::Sim)
            .map(|cell| cell.point.trace(ctx, scale).heap_bytes())
            .sum();
        assert_eq!(c.trace_bytes.now, traces);
        for b in [
            c.trace_bytes,
            c.superblock_bytes,
            c.sim_bytes,
            c.functional_bytes,
            c.analysis_bytes,
        ] {
            assert!(0 < b.now && b.now <= b.peak, "{b:?}");
        }
        assert!(
            c.sim_bytes.now < c.sim_bytes.peak,
            "released sims leave the count"
        );
        let json = json::parse(&report.to_json(scale)).unwrap();
        let cache = json
            .as_object("timings")
            .unwrap()
            .get_object("cache")
            .unwrap();
        assert_eq!(cache.get_u64("trace_bytes"), Ok(c.trace_bytes.now));
        assert_eq!(
            cache.get_u64("analysis_peak_bytes"),
            Ok(c.analysis_bytes.peak)
        );
    }

    /// An experiment whose first attempt panics still holds its leases,
    /// so the retry reads every artifact from the cache.
    #[test]
    fn a_retried_experiment_reads_its_cached_artifacts() {
        let scale = Scale {
            ops: 2_000,
            seed: 3,
        };
        // fig8 runs first and leases what it reads; fig9 keeps its own.
        let defs = defs_named(&["fig8_ilp", "fig9_l1d_misses"]).unwrap();
        let run = |spec: &str| {
            let faults = FaultPlan::parse(spec).unwrap();
            let policy = RunPolicy::with_attempts(2, &faults);
            let engine = Engine::new(1);
            let report = engine.run_tolerant(&defs, scale, &policy, &|_| {});
            assert_eq!(report.failures().count(), 0);
            let csvs: Vec<String> = report
                .outcomes
                .iter()
                .map(|o| o.table().unwrap().to_csv())
                .collect();
            (report.outcomes[0].attempts, csvs, misses(&report.cache))
        };
        let (_, clean_csvs, clean_misses) = run("");
        let (attempts, csvs, retried_misses) = run("panic:exp=fig8_ilp:times=1");
        assert_eq!(attempts, 2, "the first attempt panicked");
        assert_eq!(csvs, clean_csvs);
        assert_eq!(retried_misses, clean_misses, "the retry computed nothing");
    }

    /// A skipped experiment declares no cell and holds no lease: every
    /// artifact it would have read has one holder fewer.
    #[test]
    fn skipped_experiments_take_no_lease() {
        let scale = Scale {
            ops: 2_000,
            seed: 3,
        };
        // fig8 and fig9 read no trace the surrogate keeps, so they run
        // first and lease what they read; fig2 runs last.
        let names = ["fig2_penalty_per_benchmark", "fig8_ilp", "fig9_l1d_misses"];
        let defs = defs_named(&names).unwrap();
        let ctx = Ctx::new();
        let all = Schedule::new(&defs, &HashSet::new(), &ctx, scale);
        assert_eq!(all.order, [1, 2, 0]);
        let fig8 = 1;
        assert!(!all.leases[fig8].is_empty());
        let skip = HashSet::from(["fig8_ilp".to_string()]);
        let resumed = Schedule::new(&defs, &skip, &ctx, scale);
        assert!(resumed.leases[fig8].is_empty());
        let fig8_cells = (defs[fig8].cells)().len();
        assert_eq!(resumed.requested, all.requested - fig8_cells);
        let all_holders = all.holders.lock().unwrap();
        let resumed_holders = resumed.holders.lock().unwrap();
        for (h, &n) in all_holders.iter() {
            let fig8_holds = usize::from(all.leases[fig8].contains(h));
            let left = resumed_holders.get(h).copied().unwrap_or(0);
            assert_eq!(left, n - fig8_holds, "{h:?}");
        }
    }

    /// The persistent tier changes no table: a cold and a warm store run
    /// match a store-less run byte for byte.
    #[test]
    fn a_store_changes_no_table() {
        let dir = std::env::temp_dir().join(format!("bmp_engine_leases_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale {
            ops: 2_000,
            seed: 3,
        };
        let faults = FaultPlan::none();
        let policy = RunPolicy::with_attempts(1, &faults);
        let defs = defs_named(&["fig6_pipeline_depth", "fig8_ilp", "ex8_warmup_study"]).unwrap();
        let run = |store: bool| {
            let engine = Engine::new(2);
            if store {
                let (store, _) = DiskStore::open(&dir).expect("store opens");
                engine.ctx().set_store(Arc::new(store));
            }
            let report = engine.run_tolerant(&defs, scale, &policy, &|_| {});
            let csvs: Vec<String> = report
                .outcomes
                .iter()
                .map(|o| o.table().expect("completes").to_csv())
                .collect();
            (csvs, report.store.map_or(0, |s| s.sim_hits))
        };
        let (plain, _) = run(false);
        let (cold, cold_hits) = run(true);
        let (warm, warm_hits) = run(true);
        assert_eq!(cold, plain);
        assert_eq!(warm, plain);
        assert_eq!(cold_hits, 0);
        assert!(warm_hits > 0, "the warm run read the store");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
