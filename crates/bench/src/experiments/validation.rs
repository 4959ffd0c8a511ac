//! E-F10: validation of the analytical model against the cycle-level
//! simulator.

use bmp_core::tables;
use bmp_core::{cpi, validate::ValidationReport};
use bmp_uarch::presets;
use bmp_workloads::spec;

use crate::engine::{Ctx, ExperimentDef};
use crate::grid::Artifact::{Analysis, Sim};
use crate::grid::{cells, profiles};
use crate::table::{f2, f3};
use crate::{Scale, Table};

/// E-F10 in the registry: its table and the cells the table reads.
pub const FIG10_MODEL_VALIDATION: ExperimentDef = ExperimentDef {
    name: tables::FIG10.id,
    run: fig10_model_validation,
    cells: || cells(profiles(&spec::NAMES), &[Sim, Analysis]),
};

/// E-F10: per benchmark, the model's per-misprediction resolution and
/// CPI against the simulator's measurements.
pub fn fig10_model_validation(ctx: &Ctx, scale: Scale) -> Table {
    let cfg = presets::baseline_4wide();
    let mut t = Table::new(
        tables::FIG10.id,
        "Figure 10 (E-F10): interval model vs. cycle-level simulation",
        tables::FIG10.columns,
    );
    for point in profiles(&spec::NAMES) {
        let trace = point.trace(ctx, scale);
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        let measured: Vec<(usize, u64)> = res
            .mispredicts
            .iter()
            .map(|m| (m.branch_idx, m.resolution()))
            .collect();
        let v = ValidationReport::from_pairs(&analysis, &measured);
        let outcome = ctx.functional(&cfg, &trace);
        let stack = cpi::predict_with(&*trace, &cfg, &outcome, &analysis.breakdowns);
        let sched = analysis.scheduled_cycles as f64 / trace.len() as f64;
        t.push_row(vec![
            point.workload.name(),
            f3(v.event_agreement()),
            f2(v.measured_mean().unwrap_or(0.0)),
            f2(v.model_mean().unwrap_or(0.0)),
            v.aggregate_relative_error()
                .map(f3)
                .unwrap_or_else(|| "-".into()),
            v.correlation().map(f3).unwrap_or_else(|| "-".into()),
            f3(res.cpi()),
            f3(stack.cpi()),
            f3(sched),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_simulator() {
        let ctx = Ctx::new();
        let t = fig10_model_validation(
            &ctx,
            Scale {
                ops: 30_000,
                seed: 5,
            },
        );
        assert_eq!(t.rows.len(), 12);
        for row in &t.rows {
            let agree: f64 = row[1].parse().unwrap();
            assert!(agree > 0.9, "{}: event agreement {agree}", row[0]);
            if row[4] != "-" {
                let err: f64 = row[4].parse().unwrap();
                assert!(
                    err < 0.5,
                    "{}: aggregate resolution error {err} too large",
                    row[0]
                );
            }
            let sim_cpi: f64 = row[6].parse().unwrap();
            let sched_cpi: f64 = row[8].parse().unwrap();
            let rel = (sched_cpi - sim_cpi).abs() / sim_cpi;
            assert!(
                rel < 0.4,
                "{}: scheduled CPI off by {rel}: {sched_cpi} vs {sim_cpi}",
                row[0]
            );
        }
    }
}
