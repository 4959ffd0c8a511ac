//! The execution-driven experiment family (E-X11): the five-contributor
//! penalty decomposition over *executed* RV32IM kernel traces, and the
//! head-to-head profile comparison against the statistical workloads.
//!
//! Every workload the original reconstruction ran was synthesized from
//! measured distributions, so the interval model had only ever been
//! validated on dependence structure drawn from its own generative
//! assumptions. The `bmp-isa` kernels close that loop: real programs,
//! functionally executed, with branch outcomes and producer distances
//! read off architectural state. The decomposition, both simulation
//! engines, and the static bounds run on these traces *unchanged* —
//! the only new code on the path is the executor that produced them.
//!
//! `ex_isa_contributors` is the E-X9-shaped table for the kernel suite:
//! per-kernel misprediction statistics and the four local contributor
//! means under the baseline machine. `ex_isa_vs_synthetic` puts each
//! executed kernel next to the statistical profiles on the axes the
//! generators actually control (mix, dependence distance, branch
//! behaviour, penalty), making the executed-vs-synthetic deltas that
//! `docs/ISA.md` discusses reproducible numbers rather than prose.

use bmp_core::tables;
use bmp_uarch::OpClass;

use crate::engine::{Ctx, ExperimentDef};
use crate::grid::Artifact::{Analysis, Sim};
use crate::grid::{cells, kernels, profiles, Point, Workload};
use crate::table::{f2, f3};
use crate::{Scale, Table};

/// The statistical profiles the comparison table puts next to the
/// kernels: the same four-workload mix the predictor-generation family
/// uses (compressible/integer pair plus the two most branch-hostile
/// profiles).
pub const ISA_COMPARISON_WORKLOADS: [&str; 4] = ["gzip", "gcc", "twolf", "crafty"];

/// E-X11a in the registry: its table and the cells the table reads.
pub const EX_ISA_CONTRIBUTORS: ExperimentDef = ExperimentDef {
    name: tables::EX_ISA.id,
    run: ex_isa_contributors,
    cells: || cells(kernels(), &[Sim, Analysis]),
};

/// E-X11a: per-kernel five-contributor split under the baseline
/// machine. Columns mirror `ex_predictor_generations` so the executed
/// rows read side-by-side with the synthetic ones.
pub fn ex_isa_contributors(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX_ISA.id,
        "Extension E-X11: five-contributor split over executed RV32IM kernels",
        tables::EX_ISA.columns,
    );
    for point in kernels() {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        let (base, ilp, fu, dmiss) = analysis
            .mean_contributions()
            .unwrap_or((0.0, 0.0, 0.0, 0.0));
        t.push_row(vec![
            point.workload.name(),
            point.trace(ctx, scale).len().to_string(),
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

/// E-X11b's grid: every executed kernel, then the comparison profiles,
/// on the baseline machine.
fn isa_vs_synthetic_grid() -> impl Iterator<Item = Point> {
    kernels().chain(profiles(&ISA_COMPARISON_WORKLOADS))
}

/// E-X11b in the registry: its table and the cells the table reads.
pub const EX_ISA_VS_SYNTHETIC: ExperimentDef = ExperimentDef {
    name: tables::EX_ISA_VS_SYNTHETIC.id,
    run: ex_isa_vs_synthetic,
    cells: || cells(isa_vs_synthetic_grid(), &[Sim, Analysis]),
};

/// One row of the comparison table, shared by both workload sources.
fn profile_row(ctx: &Ctx, scale: Scale, point: &Point) -> Vec<String> {
    let source = match point.workload {
        Workload::Kernel(_) => "executed",
        _ => "synthetic",
    };
    let res = point.sim(ctx, scale);
    // The trace statistics read the array-of-structs form, rebuilt for
    // the moment from the cached compiled trace.
    let stats = point.trace(ctx, scale).to_trace().stats();
    let branch_frac = stats.fraction(OpClass::Branch);
    let mem_frac = stats.fraction(OpClass::Load) + stats.fraction(OpClass::Store);
    let analysis = point.analysis(ctx, scale);
    vec![
        source.to_owned(),
        point.workload.name(),
        f3(branch_frac),
        f3(mem_frac),
        f2(stats.dep_distances().mean().unwrap_or(0.0)),
        f2(stats.avg_taken_run()),
        f3(res.branch_stats.miss_rate()),
        f2(res.mean_penalty().unwrap_or(0.0)),
        f2(analysis.mean_penalty().unwrap_or(0.0)),
        f3(res.ipc()),
    ]
}

/// E-X11b: executed kernels and statistical profiles on one set of
/// axes — instruction mix, dependence-distance mean, dynamic run
/// length, misprediction rate, and the measured-vs-modelled penalty.
/// The `source` column ("executed" / "synthetic") is what the docs
/// sweep points at when it retires the "all workloads are statistical"
/// claim.
pub fn ex_isa_vs_synthetic(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX_ISA_VS_SYNTHETIC.id,
        "Extension E-X11: executed kernels vs statistical profiles",
        tables::EX_ISA_VS_SYNTHETIC.columns,
    );
    for point in isa_vs_synthetic_grid() {
        t.push_row(profile_row(ctx, scale, &point));
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
    fn contributors_cover_every_kernel() {
        let ctx = Ctx::new();
        let t = ex_isa_contributors(&ctx, tiny());
        assert_eq!(t.rows.len(), bmp_isa::NAMES.len());
        for (row, name) in t.rows.iter().zip(bmp_isa::NAMES) {
            assert_eq!(row[0], name);
            assert_eq!(row[1], "3000", "executed traces fill the budget");
            let miss_rate: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0).contains(&miss_rate), "row {row:?}");
            let ipc: f64 = row[9].parse().unwrap();
            assert!(ipc > 0.0, "row {row:?}");
            // The local contributors are means over real mispredicted
            // intervals; base is strictly positive whenever anything
            // mispredicted (every kernel does at this scale).
            let penalty: f64 = row[4].parse().unwrap();
            assert!(penalty > 0.0, "{name}: no misprediction penalty?");
        }
    }

    #[test]
    fn comparison_rows_cover_both_sources() {
        let ctx = Ctx::new();
        let t = ex_isa_vs_synthetic(&ctx, tiny());
        assert_eq!(
            t.rows.len(),
            bmp_isa::NAMES.len() + ISA_COMPARISON_WORKLOADS.len()
        );
        let executed = t.rows.iter().filter(|r| r[0] == "executed").count();
        assert_eq!(executed, bmp_isa::NAMES.len());
        for row in &t.rows {
            let branch_frac: f64 = row[2].parse().unwrap();
            assert!(
                (0.0..=0.5).contains(&branch_frac),
                "implausible branch fraction in {row:?}"
            );
            let dep: f64 = row[4].parse().unwrap();
            assert!(dep >= 1.0, "mean dependence distance < 1 in {row:?}");
        }
    }

    #[test]
    fn isa_tables_are_engine_independent() {
        let event = Ctx::with_engine(EngineChoice::EventDriven);
        let reference = Ctx::with_engine(EngineChoice::Reference);
        assert_eq!(
            ex_isa_contributors(&event, tiny()).rows,
            ex_isa_contributors(&reference, tiny()).rows
        );
        assert_eq!(
            ex_isa_vs_synthetic(&event, tiny()).rows,
            ex_isa_vs_synthetic(&reference, tiny()).rows
        );
    }
}
