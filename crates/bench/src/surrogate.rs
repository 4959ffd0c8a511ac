//! No-simulation surrogate for the timing report.
//!
//! The interval model (`bmp_core::PenaltyModel`) predicts each
//! workload's mean branch misprediction penalty from the trace alone —
//! no timing simulation. This module reads that prediction for every
//! SPEC-like workload *and* every executed RV32IM kernel
//! ([`bmp_isa::NAMES`]) from the shared [`Ctx`] cache (the analysis the
//! static bounds already aggregate, so collection adds no model work)
//! and compares it against the simulator's recorded mean penalty,
//! producing the per-cell sim-vs-model error table that `run_all`
//! appends to the run summary and to `results/bench_timings.json`.
//!
//! Every row also re-checks the *proven* envelope: the simulated
//! resolution/refill totals must sit inside the static bounds
//! ([`bmp_analyze::StaticBounds::check_sim`]); `within_bounds` is
//! false — and the summary flags the row — if they do not.
//!
//! What the surrogate reads is declared once, in `cells`: the engine
//! keeps those artifacts for the whole run, so collection after the
//! last experiment finds them all cached.

use bmp_workloads::spec;

use crate::engine::Ctx;
use crate::grid::{self, Artifact, Cell, Point, Workload};
use crate::Scale;

/// One workload's sim-vs-model comparison at the baseline machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateRow {
    /// Workload name — a statistical profile from [`spec::NAMES`] or an
    /// executed kernel from [`bmp_isa::NAMES`] (the sets are disjoint).
    pub workload: &'static str,
    /// Mispredicted branches the simulator recorded.
    pub mispredicts: u64,
    /// Simulator mean penalty (resolution + refill per misprediction).
    pub sim_mean_penalty: f64,
    /// The interval model's prediction of the same mean, computed
    /// without timing simulation.
    pub model_mean_penalty: f64,
    /// `|model − sim| / sim`.
    pub rel_err: f64,
    /// Whether the simulated totals sit inside the proven static bounds.
    pub within_bounds: bool,
}

/// The workloads the surrogate compares: every profile in
/// [`spec::NAMES`], then every executed kernel in [`bmp_isa::NAMES`].
fn workloads() -> impl Iterator<Item = (&'static str, Workload)> {
    let profiles = spec::NAMES.map(|n| (n, Workload::Profile(n)));
    let kernels = bmp_isa::NAMES.map(|n| (n, Workload::Kernel(n)));
    profiles.into_iter().chain(kernels)
}

/// The cells whose artifacts [`collect`] reads: the baseline simulation
/// and analysis of every compared workload.
pub(crate) fn cells() -> Vec<Cell> {
    let points = workloads().map(|(_, w)| Point::baseline(w));
    grid::cells(points, &[Artifact::Sim, Artifact::Analysis])
}

/// Collects the sim-vs-model error table for every workload in
/// [`spec::NAMES`] followed by every executed kernel in
/// [`bmp_isa::NAMES`], at the baseline 4-wide machine, drawing traces,
/// simulations, analyses and static bounds from the shared cache. Workloads whose
/// trace produced no mispredictions (no penalty to compare) are
/// omitted.
pub fn collect(ctx: &Ctx, scale: Scale) -> Vec<SurrogateRow> {
    workloads()
        .filter_map(|(name, workload)| {
            let point = Point::baseline(workload);
            let cfg = point.machine.config();
            let trace = point.trace(ctx, scale);
            let res = ctx.sim(&point.simulator(scale), &trace);
            let bounds = ctx.static_bounds(&cfg, &trace);
            let n = res.mispredicts.len() as u64;
            let sim_mean = res.mean_penalty()?;
            let model_mean = ctx.analyze(&cfg, &trace).mean_penalty()?;
            let within_bounds = bounds
                .check_sim(n, res.resolution_total(), res.refill_total())
                .is_empty();
            Some(SurrogateRow {
                workload: name,
                mispredicts: n,
                sim_mean_penalty: sim_mean,
                model_mean_penalty: model_mean,
                rel_err: (model_mean - sim_mean).abs() / sim_mean,
                within_bounds,
            })
        })
        .collect()
}

/// Median of the per-row relative errors (`None` on an empty table).
pub fn median_rel_err(rows: &[SurrogateRow]) -> Option<f64> {
    if rows.is_empty() {
        return None;
    }
    let mut errs: Vec<f64> = rows.iter().map(|r| r.rel_err).collect();
    errs.sort_by(|a, b| a.partial_cmp(b).expect("finite relative errors"));
    let n = errs.len();
    Some(if n % 2 == 1 {
        errs[n / 2]
    } else {
        (errs[n / 2 - 1] + errs[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_uarch::presets;

    const SCALE: Scale = Scale {
        ops: 2_000,
        seed: 42,
    };

    #[test]
    fn covers_every_workload_within_bounds() {
        let ctx = Ctx::new();
        let rows = collect(&ctx, SCALE);
        // Every registry workload and every executed kernel mispredicts
        // at least once at this scale, so no row is dropped, and the
        // proven bounds hold on executed traces as on synthetic ones.
        assert_eq!(rows.len(), spec::NAMES.len() + bmp_isa::NAMES.len());
        for row in &rows {
            assert!(row.mispredicts > 0, "{}: no mispredicts", row.workload);
            assert!(
                row.within_bounds,
                "{}: simulated totals escaped the proven bounds",
                row.workload
            );
            assert!(
                row.rel_err.is_finite() && row.rel_err >= 0.0,
                "{}: bad relative error {}",
                row.workload,
                row.rel_err
            );
        }
        assert!(median_rel_err(&rows).is_some());
    }

    #[test]
    fn rows_report_the_cached_model_penalty() {
        let ctx = Ctx::new();
        let cfg = presets::baseline_4wide();
        let rows = collect(&ctx, SCALE);
        let traces = spec::NAMES
            .iter()
            .map(|name| ctx.named_trace(name, SCALE))
            .chain(bmp_isa::NAMES.iter().map(|k| ctx.kernel_trace(k, SCALE)));
        for (row, trace) in rows.iter().zip(traces) {
            let model = ctx.analyze(&cfg, &trace).mean_penalty();
            assert_eq!(Some(row.model_mean_penalty), model, "{}", row.workload);
        }
    }

    #[test]
    fn collection_is_deterministic_and_cached() {
        let ctx = Ctx::new();
        let first = collect(&ctx, SCALE);
        let before = ctx.cache_stats();
        let second = collect(&ctx, SCALE);
        let after = ctx.cache_stats();
        assert_eq!(first, second);
        // The second pass is served entirely from the cache.
        assert_eq!(before.trace_misses, after.trace_misses);
        assert_eq!(before.sim_misses, after.sim_misses);
        assert_eq!(before.static_misses, after.static_misses);
        assert_eq!(before.functional_misses, after.functional_misses);
    }

    #[test]
    fn median_of_even_and_odd_tables() {
        let row = |e: f64| SurrogateRow {
            workload: "gzip",
            mispredicts: 1,
            sim_mean_penalty: 1.0,
            model_mean_penalty: 1.0,
            rel_err: e,
            within_bounds: true,
        };
        assert_eq!(median_rel_err(&[]), None);
        assert_eq!(median_rel_err(&[row(0.3)]), Some(0.3));
        assert_eq!(median_rel_err(&[row(0.75), row(0.25)]), Some(0.5));
        assert_eq!(median_rel_err(&[row(0.9), row(0.1), row(0.2)]), Some(0.2));
    }
}
