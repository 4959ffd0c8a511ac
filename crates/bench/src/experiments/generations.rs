//! The predictor-generation experiment family (E-X9, E-X10): three
//! decades of direction-predictor designs swept over the workload mix,
//! and the per-class contributor split that shows *which branches* pay
//! the penalty.
//!
//! E-X9 replays the paper's central claim against predictor history:
//! bimodal (mid-80s) → gshare (1993) → perceptron (2001) → TAGE (2006).
//! Better predictors slash MPKI, but the mean per-event penalty is a
//! property of the program and the window — it stays in a narrow band
//! across thirty years of predictor evolution.
//!
//! E-X10 crosses the interval model's five-contributor decomposition
//! with the per-site predictability classes of
//! `bmp_analyze::staticpass::classify`: hard-to-predict (H2P) sites are
//! few, but they terminate a disproportionate share of the
//! mispredicted-branch intervals. All of its cycle columns are exact
//! integers, so the analyzer can lint the additive identities
//! (`base + ilp + fu + dmiss = local`, `local + refill = total`) with
//! zero tolerance.

use std::collections::HashMap;

use bmp_analyze::staticpass::classify;
use bmp_core::tables;

use crate::engine::{Ctx, ExperimentDef};
use crate::grid::Artifact::{Analysis, Classes, Sim};
use crate::grid::{cells, profiles, Machine, Point, Workload};
use crate::table::{f2, f3};
use crate::{Scale, Table};

// The generation table lives in `bmp_uarch::presets` so the BMP6xx
// lints can rebuild the per-predictor machine from a recorded name.
use bmp_uarch::presets::GENERATIONS;

/// The workload mix of the family: the compressible/integer pair the
/// paper leans on (`gzip`, `gcc`) plus the two most branch-hostile
/// profiles of the suite (`twolf`, `crafty`).
pub const GENERATION_WORKLOADS: [&str; 4] = ["gzip", "gcc", "twolf", "crafty"];

/// E-X9's grid: the workload mix × the predictor generations.
fn generations_grid() -> impl Iterator<Item = (&'static str, &'static str, Point)> {
    GENERATION_WORKLOADS.into_iter().flat_map(|name| {
        GENERATIONS.into_iter().map(move |pred| {
            let point = Point::new(Workload::Profile(name), Machine::Generation(pred));
            (name, pred, point)
        })
    })
}

/// E-X9 in the registry: its table and the cells the table reads.
pub const EX_PREDICTOR_GENERATIONS: ExperimentDef = ExperimentDef {
    name: tables::EX_GENERATIONS.id,
    run: ex_predictor_generations,
    cells: || cells(generations_grid().map(|(.., p)| p), &[Sim, Analysis]),
};

/// E-X9: MPKI, penalty and IPC across four predictor generations. The
/// per-event penalty column is the experiment's point: it barely moves
/// while MPKI collapses, because the penalty is set by the interval
/// behaviour of the *surviving* mispredictions, not by the predictor.
pub fn ex_predictor_generations(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX_GENERATIONS.id,
        "Extension E-X9: four predictor generations over the workload mix",
        tables::EX_GENERATIONS.columns,
    );
    for (name, pred, point) in generations_grid() {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        let (base, ilp, fu, dmiss) = analysis
            .mean_contributions()
            .unwrap_or((0.0, 0.0, 0.0, 0.0));
        t.push_row(vec![
            name.to_owned(),
            pred.to_owned(),
            f3(res.branch_stats.miss_rate()),
            f2(res.branch_stats.mpki(res.instructions)),
            f2(res.mean_penalty().unwrap_or(0.0)),
            f2(base),
            f2(ilp),
            f2(fu),
            f2(dmiss),
            f3(res.ipc()),
        ]);
    }
    t
}

/// One class's integer contributor totals, accumulated from the
/// baseline analysis' per-misprediction breakdowns.
#[derive(Debug, Default, Clone, Copy)]
struct ClassTotals {
    intervals: u64,
    base: u64,
    ilp: u64,
    fu: u64,
    dmiss: u64,
    local: u64,
    refill: u64,
}

/// E-X10 in the registry: its table and the cells the table reads.
pub const EX_H2P_CONTRIBUTORS: ExperimentDef = ExperimentDef {
    name: tables::EX_H2P.id,
    run: ex_h2p_contributors,
    cells: || cells(profiles(&GENERATION_WORKLOADS), &[Analysis, Classes]),
};

/// E-X10: the five-contributor penalty split per branch class (H2P vs
/// the easy classes) under the baseline machine. Every mispredicted
/// interval's exact local-resolution decomposition is charged to the
/// class of the terminating branch's static site, so each row satisfies
/// `base + ilp + fu + dmiss = local` and `local + refill = total` as
/// integer identities — the BMP701 lint checks them with no epsilon.
pub fn ex_h2p_contributors(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX_H2P.id,
        "Extension E-X10: per-class five-contributor penalty split",
        tables::EX_H2P.columns,
    );
    for point in profiles(&GENERATION_WORKLOADS) {
        let trace = point.trace(ctx, scale);
        let profiles = classify::classify(&trace);
        let class_of: HashMap<u64, classify::BranchClass> =
            profiles.iter().map(|p| (p.pc, p.class)).collect();
        let mut sites: HashMap<classify::BranchClass, u64> = HashMap::new();
        for p in &profiles {
            *sites.entry(p.class).or_default() += 1;
        }
        let analysis = point.analysis(ctx, scale);
        let mut totals: HashMap<classify::BranchClass, ClassTotals> = HashMap::new();
        for b in &analysis.breakdowns {
            let class = class_of
                .get(&trace.pc(b.branch_idx))
                .copied()
                .unwrap_or(classify::BranchClass::Indirect);
            let e = totals.entry(class).or_default();
            e.intervals += 1;
            e.base += b.base;
            e.ilp += b.ilp;
            e.fu += b.fu_latency;
            e.dmiss += b.short_dmiss;
            e.local += b.local_resolution;
            e.refill += u64::from(b.frontend);
        }
        let mut classes: Vec<classify::BranchClass> =
            sites.keys().chain(totals.keys()).copied().collect();
        classes.sort_unstable();
        classes.dedup();
        for class in classes {
            let c = totals.get(&class).copied().unwrap_or_default();
            t.push_row(vec![
                point.workload.name(),
                class.label().to_owned(),
                sites.get(&class).copied().unwrap_or(0).to_string(),
                c.intervals.to_string(),
                c.base.to_string(),
                c.ilp.to_string(),
                c.fu.to_string(),
                c.dmiss.to_string(),
                c.local.to_string(),
                c.refill.to_string(),
                (c.local + c.refill).to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineChoice;

    fn tiny() -> Scale {
        Scale {
            ops: 3_000,
            seed: 7,
        }
    }

    #[test]
    fn generations_rows_cover_the_cross_product() {
        let ctx = Ctx::new();
        let t = ex_predictor_generations(&ctx, tiny());
        assert_eq!(t.rows.len(), GENERATION_WORKLOADS.len() * GENERATIONS.len());
        // Each benchmark block cycles through the generations in order,
        // with sane statistics. (Accuracy *ordering* is not asserted at
        // this scale: a 3k-op epoch leaves the history-based tables
        // cold, which is exactly the warmup effect E-X8 studies.)
        for (i, row) in t.rows.iter().enumerate() {
            assert_eq!(row[0], GENERATION_WORKLOADS[i / GENERATIONS.len()]);
            assert_eq!(row[1], GENERATIONS[i % GENERATIONS.len()]);
            let miss_rate: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0).contains(&miss_rate), "row {row:?}");
            let ipc: f64 = row[9].parse().unwrap();
            assert!(ipc > 0.0, "row {row:?}");
        }
    }

    #[test]
    fn h2p_split_is_an_exact_integer_identity() {
        let ctx = Ctx::new();
        let t = ex_h2p_contributors(&ctx, tiny());
        assert!(!t.rows.is_empty());
        let known = ["biased", "patterned", "mixed", "h2p", "indirect"];
        for row in &t.rows {
            assert!(known.contains(&row[1].as_str()), "class {}", row[1]);
            let v: Vec<u64> = row[2..].iter().map(|c| c.parse().unwrap()).collect();
            let (base, ilp, fu, dmiss) = (v[2], v[3], v[4], v[5]);
            let (local, refill, total) = (v[6], v[7], v[8]);
            assert_eq!(base + ilp + fu + dmiss, local, "row {row:?}");
            assert_eq!(local + refill, total, "row {row:?}");
        }
    }

    #[test]
    fn h2p_split_is_engine_independent() {
        let event = ex_h2p_contributors(&Ctx::with_engine(EngineChoice::EventDriven), tiny());
        let reference = ex_h2p_contributors(&Ctx::with_engine(EngineChoice::Reference), tiny());
        assert_eq!(event.rows, reference.rows);
    }
}
