//! Opt-in observability collection for the experiment harness.
//!
//! With `BMP_METRICS=1`, `run_all` writes one aggregated metrics file
//! per completed experiment under `results/metrics/` (schema:
//! [`bmp_core::metrics`], contract: `docs/OBSERVABILITY.md`). The
//! per-interval accounting records ([`bmp_core::accounting`]) are
//! derived from the cached simulation results after the fact
//! ([`SimResult::interval_records`]), so a metrics run simulates exactly
//! what a plain run does and its CSVs are byte-identical — the
//! golden-table tests pin this down.
//!
//! Collection is lock-free by construction: each experiment's
//! [`MetricsRecorder`] lives on the worker thread that ran the
//! experiment (the `on_done` callback of the tolerant engine), reads
//! only the already-thread-safe content-addressed caches, and writes
//! its own file. Nothing is shared between recorders, so aggregating
//! across the [`ThreadPool`](crate::pool::ThreadPool) needs no locks
//! and cannot perturb experiment timing.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use bmp_analyze::staticpass::classify;
use bmp_core::accounting::records_from_analysis;
use bmp_core::metrics::ClassPenalty;
use bmp_core::{cpi, ExperimentMetrics, ModelMetrics, PenaltyAnalysis, WorkloadMetrics};
use bmp_sim::SimResult;
use bmp_uarch::presets;

use crate::engine::{Ctx, ExperimentDef};
use crate::grid::{Artifact, Machine, Point, SimMode, Workload};
use crate::{write_atomic, Scale};

/// Whether metrics collection is on for this process: `BMP_METRICS=1`.
/// Read once and cached.
pub fn metrics_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("BMP_METRICS").is_ok_and(|v| v == "1"))
}

/// Per-experiment metrics accumulator.
///
/// One recorder is created per completed experiment, on the worker
/// thread that settles it; it owns its [`ExperimentMetrics`] document
/// outright (no sharing, no locks) and hands the finished document
/// back through [`finish`](MetricsRecorder::finish).
#[derive(Debug)]
pub struct MetricsRecorder {
    doc: ExperimentMetrics,
}

impl MetricsRecorder {
    /// A fresh recorder for the named experiment at `scale`.
    pub fn new(name: &str, scale: Scale) -> Self {
        Self {
            doc: ExperimentMetrics::new(name, scale.ops as u64, scale.seed),
        }
    }

    /// Aggregates the interval records of a simulation over a trace of
    /// `trace_len` ops into a workload entry tagged with the direction
    /// predictor it ran under (the v2 `predictor` field; per-predictor
    /// entries of the same workload coexist and are told apart by this
    /// tag).
    pub fn record_sim(
        &mut self,
        workload: &str,
        predictor: &str,
        result: &SimResult,
        trace_len: usize,
    ) {
        let mut w = WorkloadMetrics::from_records(
            workload,
            result.instructions,
            result.cycles,
            result.frontend_depth,
            result.mispredicts.len() as u64,
            &result.interval_records(trace_len),
        );
        w.predictor = predictor.to_string();
        self.doc.workloads.push(w);
    }

    /// Attaches the analytical model's view to the matching
    /// `(workload, predictor)` entry. A pair no simulation cell covered
    /// gets a model-only entry built from the analysis' own interval
    /// records, with `cycles` left 0 (the documented "no measured
    /// epoch" marker).
    pub fn record_model(
        &mut self,
        workload: &str,
        predictor: &str,
        analysis: &PenaltyAnalysis,
        stack: cpi::CpiStack,
    ) {
        let model = ModelMetrics::from_analysis(analysis, stack);
        if let Some(w) = self.entry_mut(workload, predictor) {
            w.model = Some(model);
            return;
        }
        let records = records_from_analysis(analysis);
        let mut w = WorkloadMetrics::from_records(
            workload,
            analysis.instructions as u64,
            0,
            analysis.frontend_depth,
            analysis.breakdowns.len() as u64,
            &records,
        );
        w.predictor = predictor.to_string();
        w.model = Some(model);
        self.doc.workloads.push(w);
    }

    /// Attaches a per-branch-class penalty attribution (the v2
    /// `branch_classes` field) to the matching `(workload, predictor)`
    /// entry; a pair without one gets a minimal entry carrying only the
    /// attribution.
    pub fn record_classes(&mut self, workload: &str, predictor: &str, classes: Vec<ClassPenalty>) {
        if let Some(w) = self.entry_mut(workload, predictor) {
            w.branch_classes = classes;
            return;
        }
        let mut w = WorkloadMetrics::from_records(workload, 0, 0, 0, 0, &[]);
        w.predictor = predictor.to_string();
        w.branch_classes = classes;
        self.doc.workloads.push(w);
    }

    fn entry_mut(&mut self, workload: &str, predictor: &str) -> Option<&mut WorkloadMetrics> {
        self.doc
            .workloads
            .iter_mut()
            .find(|w| w.workload == workload && w.predictor == predictor)
    }

    /// The finished document, workloads in `(name, predictor)` order
    /// (deterministic bytes regardless of cell declaration order).
    pub fn finish(mut self) -> ExperimentMetrics {
        self.doc
            .workloads
            .sort_by(|a, b| (&a.workload, &a.predictor).cmp(&(&b.workload, &b.predictor)));
        self.doc
    }
}

/// The per-branch-class penalty attribution at `point`: classifies
/// every static site of the cached trace and charges the cached
/// analysis's per-interval local resolutions (plus refills) under the
/// point's machine to the terminating site's class.
fn class_penalties(ctx: &Ctx, scale: Scale, point: &Point) -> Vec<ClassPenalty> {
    let cfg = point.machine.config();
    let trace = point.trace(ctx, scale);
    let analysis = ctx.analyze(&cfg, &trace);
    let profiles = classify::classify(&trace);
    classify::attribute(&profiles, &*trace, &analysis.breakdowns)
        .into_iter()
        .map(|a| ClassPenalty {
            class: a.class.label().to_string(),
            sites: a.sites,
            intervals: a.intervals,
            local_resolution: a.local_resolution,
            refill: a.refill,
        })
        .collect()
}

/// The cached analysis at `point` and the CPI stack built from it and
/// the cached functional pass.
fn model_view(ctx: &Ctx, scale: Scale, point: &Point) -> (Arc<PenaltyAnalysis>, cpi::CpiStack) {
    let cfg = point.machine.config();
    let trace = point.trace(ctx, scale);
    let analysis = ctx.analyze(&cfg, &trace);
    let outcome = ctx.functional(&cfg, &trace);
    let stack = cpi::predict_with(&*trace, &cfg, &outcome, &analysis.breakdowns);
    (analysis, stack)
}

/// Builds the metrics document for one settled experiment from its
/// declared cells and the warm [`Ctx`] cache, matching the cells' typed
/// fields (the rules are in `docs/OBSERVABILITY.md`): baseline sim cells
/// give the measured epoch (cold start preferred to warmup), baseline
/// analysis and classes cells the model section and the per-class
/// attribution, and generation cells one entry per predictor. Sweep
/// machines, timeline sims, the chain microbenchmark and fig9's custom
/// profile are never recorded.
///
/// Every simulation and analysis read here is a cache hit for a cell
/// the experiment computed.
pub fn collect_experiment(ctx: &Ctx, def: &ExperimentDef, scale: Scale) -> ExperimentMetrics {
    let mut recorder = MetricsRecorder::new(def.name, scale);
    let cells = (def.cells)();
    let has = |point: &Point, artifact| {
        cells
            .iter()
            .any(|c| c.artifact == artifact && c.point == *point)
    };
    let baseline_pred = presets::baseline_4wide().predictor.name();
    let mut workloads: Vec<Workload> = Vec::new();
    for c in &cells {
        let named = matches!(c.point.workload, Workload::Profile(_) | Workload::Kernel(_));
        if named && !workloads.contains(&c.point.workload) {
            workloads.push(c.point.workload);
        }
    }
    for workload in workloads {
        let name = workload.name();
        let base = Point::baseline(workload);
        let trace_len = base.trace(ctx, scale).len();
        let epoch = [SimMode::Cold, SimMode::Warmup]
            .into_iter()
            .map(|mode| base.clone().with_mode(mode))
            .find(|p| has(p, Artifact::Sim));
        if let Some(p) = epoch {
            recorder.record_sim(&name, baseline_pred, &p.sim(ctx, scale), trace_len);
        }
        if has(&base, Artifact::Analysis) {
            let (analysis, stack) = model_view(ctx, scale, &base);
            recorder.record_model(&name, baseline_pred, &analysis, stack);
        }
        if has(&base, Artifact::Classes) {
            recorder.record_classes(&name, baseline_pred, class_penalties(ctx, scale, &base));
        }
        for c in &cells {
            let Machine::Generation(pred) = c.point.machine else {
                continue;
            };
            if c.point.workload != workload || c.artifact != Artifact::Sim {
                continue;
            }
            recorder.record_sim(&name, pred, &c.point.sim(ctx, scale), trace_len);
            if has(&c.point, Artifact::Analysis) {
                let (analysis, stack) = model_view(ctx, scale, &c.point);
                recorder.record_model(&name, pred, &analysis, stack);
                recorder.record_classes(&name, pred, class_penalties(ctx, scale, &c.point));
            }
        }
    }
    recorder.finish()
}

/// The on-disk location of an experiment's metrics file relative to
/// the results directory — the path stored in the run journal.
pub fn relative_path(name: &str) -> String {
    format!("metrics/{name}.json")
}

/// Persists `doc` as `<results_dir>/metrics/<name>.json`, crash-safely
/// (see [`write_atomic`]).
///
/// # Errors
///
/// Returns the underlying I/O error when the metrics directory or the
/// file cannot be written.
pub fn save_metrics(results_dir: &Path, doc: &ExperimentMetrics) -> std::io::Result<PathBuf> {
    let dir = results_dir.join("metrics");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.json", doc.name));
    write_atomic(&path, doc.to_json().as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{experiment_defs, EngineChoice};
    use bmp_core::intervals::HISTOGRAM_BUCKETS;

    fn def(name: &str) -> ExperimentDef {
        experiment_defs()
            .into_iter()
            .find(|d| d.name == name)
            .expect("known experiment")
    }

    fn scale() -> Scale {
        Scale {
            ops: 2_000,
            seed: 42,
        }
    }

    #[test]
    fn collects_sim_and_model_sections() {
        let ctx = Ctx::with_engine(EngineChoice::EventDriven);
        let doc = collect_experiment(&ctx, &def("fig2_penalty_per_benchmark"), scale());
        assert_eq!(doc.name, "fig2_penalty_per_benchmark");
        assert!(!doc.workloads.is_empty());
        // Workloads are sorted and fully populated: a measured epoch,
        // interval records, and the model section.
        let names: Vec<&str> = doc.workloads.iter().map(|w| w.workload.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        for w in &doc.workloads {
            assert!(w.cycles > 0, "{}: simulated epoch present", w.workload);
            assert_eq!(w.length_histogram.len(), HISTOGRAM_BUCKETS);
            assert_eq!(
                w.intervals.bmiss, w.mispredicts,
                "{}: one branch interval per mispredict",
                w.workload
            );
            assert_eq!(
                w.length_histogram.iter().sum::<u64>(),
                w.intervals.total(),
                "{}: histogram covers every interval",
                w.workload
            );
            let m = w.model.as_ref().expect("model section");
            assert_eq!(
                m.local_resolution,
                m.base + m.ilp + m.fu_latency + m.short_dmiss
            );
        }
    }

    #[test]
    fn analysis_only_workloads_get_model_entries() {
        let ctx = Ctx::with_engine(EngineChoice::EventDriven);
        let doc = collect_experiment(&ctx, &def("fig4_interval_distribution"), scale());
        assert!(!doc.workloads.is_empty());
        for w in &doc.workloads {
            assert_eq!(w.cycles, 0, "{}: model-only marker", w.workload);
            assert!(w.model.is_some());
            assert!(w.intervals.total() > 0);
        }
    }

    #[test]
    fn kernel_cells_collect_sim_and_model() {
        let ctx = Ctx::with_engine(EngineChoice::EventDriven);
        let doc = collect_experiment(&ctx, &def("ex_isa_contributors"), scale());
        assert_eq!(doc.workloads.len(), bmp_isa::NAMES.len());
        for w in &doc.workloads {
            assert!(w.cycles > 0, "{}: kernel-sim epoch present", w.workload);
            assert!(
                w.model.is_some(),
                "{}: kernel-analysis model section present",
                w.workload
            );
            assert!(w.intervals.total() > 0);
        }
    }

    #[test]
    fn cell_free_experiments_produce_empty_documents() {
        let ctx = Ctx::with_engine(EngineChoice::EventDriven);
        // table1 has no cells; fig8 and fig6 have only sweep cells (fig6's
        // depth-5 point equals the baseline and is still not recorded).
        for name in ["table1_config", "fig8_ilp", "fig6_pipeline_depth"] {
            let doc = collect_experiment(&ctx, &def(name), scale());
            assert!(doc.workloads.is_empty(), "{name}");
            // Still a valid, round-trippable document.
            let back = ExperimentMetrics::parse(&doc.to_json()).unwrap();
            assert_eq!(back, doc);
        }
    }

    #[test]
    fn collection_is_engine_independent() {
        let event = collect_experiment(
            &Ctx::with_engine(EngineChoice::EventDriven),
            &def("table2_benchmarks"),
            scale(),
        );
        let reference = collect_experiment(
            &Ctx::with_engine(EngineChoice::Reference),
            &def("table2_benchmarks"),
            scale(),
        );
        assert_eq!(event, reference);
        assert_eq!(event.to_json(), reference.to_json());
    }

    #[test]
    fn save_metrics_round_trips() {
        let ctx = Ctx::with_engine(EngineChoice::EventDriven);
        let doc = collect_experiment(&ctx, &def("fig3_penalty_vs_interval"), scale());
        let tmp = std::env::temp_dir().join("bmp_bench_metrics_save_test");
        let path = save_metrics(&tmp, &doc).unwrap();
        assert!(path.ends_with(relative_path(&doc.name)));
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&tmp).ok();
        assert_eq!(ExperimentMetrics::parse(&body).unwrap(), doc);
    }
}
