//! E-T1 (machine configuration) and E-T2 (benchmark characteristics).

use bmp_core::tables;
use bmp_uarch::{presets, FU_KINDS};
use bmp_workloads::spec;

use crate::engine::{Ctx, ExperimentDef};
use crate::grid::Artifact::Sim;
use crate::grid::{cells, profiles, Point, SimMode};
use crate::table::{f2, f3};
use crate::{Scale, Table};

/// E-T1 in the registry: a table of constants, with no cells.
pub const TABLE1_CONFIG: ExperimentDef = ExperimentDef {
    name: tables::TABLE1.id,
    run: |_, _| table1_config(),
    cells: Vec::new,
};

/// E-T1: the baseline machine configuration, as the paper's Table 1
/// lists its processor parameters.
pub fn table1_config() -> Table {
    let cfg = presets::baseline_4wide();
    let mut t = Table::new(
        tables::TABLE1.id,
        "Table 1 (E-T1): baseline processor configuration",
        tables::TABLE1.columns,
    );
    let mut row = |k: &str, v: String| t.push_row(vec![k.to_owned(), v]);
    row("fetch / dispatch / issue / commit width", {
        format!(
            "{} / {} / {} / {}",
            cfg.fetch_width, cfg.dispatch_width, cfg.issue_width, cfg.commit_width
        )
    });
    row(
        "frontend pipeline depth",
        format!("{} cycles", cfg.frontend_depth),
    );
    row(
        "issue window / ROB",
        format!("{} / {}", cfg.window_size, cfg.rob_size),
    );
    let fus = FU_KINDS
        .iter()
        .map(|&k| format!("{}x {}", cfg.fus.count(k), k))
        .collect::<Vec<_>>()
        .join(", ");
    row("functional units", fus);
    row("branch predictor", cfg.predictor.to_string());
    row(
        "BTB / RAS",
        format!("{} entries / {} deep", cfg.btb_entries, cfg.ras_entries),
    );
    let c = |g: bmp_uarch::CacheGeometry| {
        format!(
            "{} KiB, {}-way, {} B lines, {} cycles",
            g.size_bytes() / 1024,
            g.ways(),
            g.line_bytes(),
            g.hit_latency()
        )
    };
    row("L1 I-cache", c(cfg.caches.l1i()));
    row("L1 D-cache", c(cfg.caches.l1d()));
    if let Some(l2) = cfg.caches.l2() {
        row("unified L2", c(l2));
    }
    row(
        "memory latency",
        format!("{} cycles", cfg.caches.mem_latency()),
    );
    t
}

/// E-T2's grid: every profile on the baseline machine with warmup.
fn table2_grid() -> impl Iterator<Item = Point> {
    profiles(&spec::NAMES).map(|p| p.with_mode(SimMode::Warmup))
}

/// E-T2 in the registry: its table and the cells the table reads.
pub const TABLE2_BENCHMARKS: ExperimentDef = ExperimentDef {
    name: tables::TABLE2.id,
    run: table2_benchmarks,
    cells: || cells(table2_grid(), &[Sim]),
};

/// E-T2: per-benchmark characteristics of the twelve SPECint2000-like
/// workloads on the baseline machine. The first 20% of each trace warms
/// the caches and predictors (statistics reset at the boundary), so the
/// rates below are steady-state rather than compulsory-miss-dominated.
pub fn table2_benchmarks(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::TABLE2.id,
        "Table 2 (E-T2): benchmark characteristics on the baseline machine (20% warmup)",
        tables::TABLE2.columns,
    );
    for point in table2_grid() {
        let res = point.sim(ctx, scale);
        let n = res.instructions;
        t.push_row(vec![
            point.workload.name(),
            f3(res.ipc()),
            f3(res.branch_stats.miss_rate()),
            f2(res.branch_stats.mpki(n)),
            f2(res.hierarchy.l1i.mpki(n)),
            f2(res.hierarchy.l1d.mpki(n)),
            f2(res.hierarchy.l2.mpki(n)),
            f2(res.hierarchy.long_dmisses as f64 * 1000.0 / n as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_core_parameters() {
        let t = table1_config();
        assert!(t.rows.iter().any(|r| r[0].contains("frontend")));
        assert!(t.rows.iter().any(|r| r[0].contains("predictor")));
        assert!(t.rows.len() >= 9);
    }

    #[test]
    fn table2_covers_all_benchmarks() {
        let ctx = Ctx::new();
        let t = table2_benchmarks(
            &ctx,
            Scale {
                ops: 5_000,
                seed: 1,
            },
        );
        assert_eq!(t.rows.len(), 12);
        for row in &t.rows {
            let ipc: f64 = row[1].parse().unwrap();
            assert!(ipc > 0.0 && ipc <= 4.0, "IPC {ipc} out of range");
        }
    }
}
