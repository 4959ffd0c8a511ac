//! The sensitivity sweeps E-F6 … E-F9, one per penalty contributor.

use bmp_core::tables;
use bmp_uarch::{presets, LatencyTable, PredictorConfig};

use crate::engine::{Ctx, ExperimentDef};
use crate::grid::Artifact::{Analysis, Sim};
use crate::grid::{baseline_with, cells, sweep, Machine, Point, Workload};
use crate::table::{f2, f3};
use crate::{Scale, Table};

/// E-F6's grid: two benchmarks × six frontend depths.
fn fig6_grid() -> impl Iterator<Item = (&'static str, u32, Point)> {
    let depths = [1u32, 5, 10, 20, 30, 40].map(|d| (d, baseline_with(|b| b.frontend_depth(d))));
    sweep(&["twolf", "gcc"], depths.into())
}

/// E-F6 in the registry: its table and the cells the table reads.
pub const FIG6_PIPELINE_DEPTH: ExperimentDef = ExperimentDef {
    name: tables::FIG6.id,
    run: fig6_pipeline_depth,
    cells: || cells(fig6_grid().map(|(.., p)| p), &[Sim, Analysis]),
};

/// E-F6: penalty versus frontend pipeline depth (contributor i). The
/// penalty tracks `resolution + depth`: a line of slope one whose offset
/// is the (depth-independent) resolution — the paper's argument that the
/// penalty is *not* just the pipeline length.
pub fn fig6_pipeline_depth(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::FIG6.id,
        "Figure 6 (E-F6): penalty vs. frontend pipeline depth",
        tables::FIG6.columns,
    );
    for (name, depth, point) in fig6_grid() {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        t.push_row(vec![
            name.to_owned(),
            depth.to_string(),
            f2(res.mean_penalty().unwrap_or(0.0)),
            f2(res.mean_resolution().unwrap_or(0.0)),
            f2(analysis.mean_penalty().unwrap_or(0.0)),
            f3(res.ipc()),
        ]);
    }
    t
}

/// E-F7's grid: a mispredicting mul-chain kernel and a real profile ×
/// four functional-unit latency scalings.
fn fig7_grid() -> impl Iterator<Item = (&'static str, f64, Point)> {
    [
        (
            "chain-kernel",
            Workload::Chain(8),
            PredictorConfig::AlwaysNotTaken,
        ),
        (
            "twolf",
            Workload::Profile("twolf"),
            PredictorConfig::default(),
        ),
    ]
    .into_iter()
    .flat_map(|(label, workload, predictor)| {
        [1.0, 1.5, 2.0, 3.0].into_iter().map(move |factor| {
            let latencies = LatencyTable::default().scaled(factor);
            let cfg = baseline_with(|b| b.latencies(latencies).predictor(predictor));
            let machine = Machine::sweep(cfg);
            (label, factor, Point::new(workload, machine))
        })
    })
}

/// E-F7 in the registry: its table and the cells the table reads.
pub const FIG7_FU_LATENCY: ExperimentDef = ExperimentDef {
    name: tables::FIG7.id,
    run: fig7_fu_latency,
    cells: || cells(fig7_grid().map(|(.., p)| p), &[Sim, Analysis]),
};

/// E-F7: penalty versus functional-unit latency scaling (contributor iv).
pub fn fig7_fu_latency(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::FIG7.id,
        "Figure 7 (E-F7): resolution time vs. functional-unit latency scaling",
        tables::FIG7.columns,
    );
    for (label, factor, point) in fig7_grid() {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        let fu_share = analysis
            .mean_contributions()
            .map(|(_, _, fu, _)| fu)
            .unwrap_or(0.0);
        t.push_row(vec![
            label.to_owned(),
            f2(factor),
            f2(res.mean_resolution().unwrap_or(0.0)),
            f2(analysis.mean_resolution().unwrap_or(0.0)),
            f2(fu_share),
        ]);
    }
    t
}

/// E-F8's grid: the chain microbenchmark at six chain lengths, on the
/// baseline with an always-not-taken predictor (which mispredicts every
/// one of its branches).
fn fig8_grid() -> impl Iterator<Item = (u32, Point)> {
    let cfg = baseline_with(|b| b.predictor(PredictorConfig::AlwaysNotTaken));
    [1u32, 2, 4, 8, 16, 32].into_iter().map(move |chain| {
        let machine = Machine::sweep(cfg.clone());
        (chain, Point::new(Workload::Chain(chain), machine))
    })
}

/// E-F8 in the registry: its table and the cells the table reads.
pub const FIG8_ILP: ExperimentDef = ExperimentDef {
    name: tables::FIG8.id,
    run: fig8_ilp,
    cells: || cells(fig8_grid().map(|(_, p)| p), &[Sim, Analysis]),
};

/// E-F8: resolution time versus the dependence-chain length ahead of the
/// branch (contributor iii — inherent ILP), on the controlled
/// microbenchmark.
pub fn fig8_ilp(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::FIG8.id,
        "Figure 8 (E-F8): resolution time vs. dependence-chain length before the branch",
        tables::FIG8.columns,
    );
    for (chain, point) in fig8_grid() {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        let ilp_share = analysis
            .mean_contributions()
            .map(|(_, ilp, _, _)| ilp)
            .unwrap_or(0.0);
        t.push_row(vec![
            chain.to_string(),
            f2(res.mean_resolution().unwrap_or(0.0)),
            f2(analysis.mean_resolution().unwrap_or(0.0)),
            f2(ilp_share),
        ]);
    }
    t
}

/// E-F9's grid: the 24 KiB-hot-set parser × five L1 D-cache sizes.
fn fig9_grid() -> impl Iterator<Item = (u64, Point)> {
    [4u64, 8, 16, 32, 64].into_iter().map(|kib| {
        let cfg = presets::l1d_sized(kib * 1024).expect("valid L1D size");
        let machine = Machine::sweep(cfg);
        (kib, Point::new(Workload::HotParser, machine))
    })
}

/// E-F9 in the registry: its table and the cells the table reads.
pub const FIG9_L1D_MISSES: ExperimentDef = ExperimentDef {
    name: tables::FIG9.id,
    run: fig9_l1d_misses,
    cells: || cells(fig9_grid().map(|(_, p)| p), &[Sim, Analysis]),
};

/// E-F9: penalty versus L1 D-cache size (contributor v — short misses).
/// The workload's hot set is 24 KiB, so small L1s turn its loads into
/// short misses that stretch the chains feeding branches.
pub fn fig9_l1d_misses(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::FIG9.id,
        "Figure 9 (E-F9): resolution time vs. L1 D-cache size (24 KiB hot set)",
        tables::FIG9.columns,
    );
    for (kib, point) in fig9_grid() {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        let dmiss_share = analysis
            .mean_contributions()
            .map(|(_, _, _, v)| v)
            .unwrap_or(0.0);
        t.push_row(vec![
            kib.to_string(),
            f3(res.hierarchy.l1d.miss_rate()),
            f2(res.mean_resolution().unwrap_or(0.0)),
            f2(analysis.mean_resolution().unwrap_or(0.0)),
            f2(dmiss_share),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            ops: 10_000,
            seed: 5,
        }
    }

    #[test]
    fn fig6_penalty_grows_with_depth() {
        let ctx = Ctx::new();
        let t = fig6_pipeline_depth(&ctx, tiny());
        let twolf: Vec<(u32, f64)> = t
            .rows
            .iter()
            .filter(|r| r[0] == "twolf")
            .map(|r| (r[1].parse().unwrap(), r[2].parse().unwrap()))
            .collect();
        assert_eq!(twolf.len(), 6);
        for pair in twolf.windows(2) {
            assert!(
                pair[1].1 > pair[0].1,
                "penalty must grow with depth: {twolf:?}"
            );
        }
        // Slope roughly 1: penalty(40) - penalty(1) ~ 39.
        let delta = twolf.last().unwrap().1 - twolf.first().unwrap().1;
        assert!(
            (25.0..=60.0).contains(&delta),
            "depth sweep delta {delta} should be near 39"
        );
    }

    #[test]
    fn fig7_resolution_grows_with_latency() {
        let ctx = Ctx::new();
        let t = fig7_fu_latency(&ctx, tiny());
        let kernel: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "chain-kernel")
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(kernel.last().unwrap() > kernel.first().unwrap());
    }

    #[test]
    fn fig8_resolution_tracks_chain_length() {
        let ctx = Ctx::new();
        let t = fig8_ilp(&ctx, tiny());
        let measured: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for pair in measured.windows(2) {
            assert!(
                pair[1] >= pair[0] - 0.5,
                "resolution should not shrink with chains: {measured:?}"
            );
        }
        assert!(measured.last().unwrap() > &20.0, "32-chains are slow");
    }

    #[test]
    fn fig9_small_l1_hurts() {
        let ctx = Ctx::new();
        let t = fig9_l1d_misses(&ctx, tiny());
        let first: f64 = t.rows.first().unwrap()[2].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(
            first > last,
            "4 KiB L1 must give a larger resolution than 64 KiB: {first} vs {last}"
        );
        let mr_first: f64 = t.rows.first().unwrap()[1].parse().unwrap();
        let mr_last: f64 = t.rows.last().unwrap()[1].parse().unwrap();
        assert!(mr_first > mr_last, "miss rate must fall with size");
    }

    #[test]
    fn chain_kernel_is_cached_by_parameters() {
        let ctx = Ctx::new();
        let a = Workload::Chain(4).trace(&ctx, tiny());
        let b = Workload::Chain(4).trace(&ctx, tiny());
        let c = Workload::Chain(8).trace(&ctx, tiny());
        assert_eq!(a.key(), b.key());
        assert!(std::sync::Arc::ptr_eq(a.trace(), b.trace()));
        assert_ne!(a.key(), c.key());
    }
}
