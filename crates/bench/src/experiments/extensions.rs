//! Extension experiments E-X1 … E-X8: beyond the paper's evaluation, the
//! studies its framework invites.

use bmp_core::closed_form;
use bmp_core::tables;
use bmp_trace::BranchKind;
use bmp_uarch::{
    presets, CacheGeometry, HierarchyConfig, IndirectPredictorConfig, PredictorConfig,
    PrefetchConfig, ReplacementKind,
};
use bmp_workloads::spec;

use crate::engine::{Ctx, ExperimentDef};
use crate::grid::Artifact::{Analysis, Sim};
use crate::grid::{baseline_with, cells, profiles, sweep, Point, SimMode};
use crate::table::{f2, f3};
use crate::{Scale, Table};

/// E-X1's grid: two benchmarks × six direction predictors.
fn ex1_grid() -> impl Iterator<Item = (&'static str, &'static str, Point)> {
    let predictors: [(&str, PredictorConfig); 6] = [
        ("bimodal", PredictorConfig::Bimodal { entries: 4096 }),
        (
            "gshare",
            PredictorConfig::GShare {
                entries: 4096,
                history_bits: 12,
            },
        ),
        (
            "local",
            PredictorConfig::Local {
                history_entries: 1024,
                history_bits: 10,
                pattern_entries: 1024,
            },
        ),
        (
            "tournament",
            PredictorConfig::Tournament {
                entries: 4096,
                history_bits: 12,
            },
        ),
        (
            "perceptron",
            PredictorConfig::Perceptron {
                entries: 512,
                history_bits: 24,
            },
        ),
        ("perfect", PredictorConfig::Perfect),
    ];
    let variants = predictors.map(|(name, p)| (name, baseline_with(|b| b.predictor(p))));
    sweep(&["twolf", "gzip"], variants.into())
}

/// E-X1 in the registry: its table and the cells the table reads.
pub const EX1_PREDICTOR_STUDY: ExperimentDef = ExperimentDef {
    name: tables::EX1.id,
    run: ex1_predictor_study,
    cells: || cells(ex1_grid().map(|(.., p)| p), &[Sim]),
};

/// E-X1: the misprediction penalty under different predictors. Better
/// predictors reduce the *number* of penalties, but the paper's point is
/// that the per-event penalty is a property of the program and the
/// window, not of the predictor — so the mean penalty should stay in the
/// same band while MPKI and IPC move a lot.
pub fn ex1_predictor_study(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX1.id,
        "Extension E-X1: penalty and performance per branch predictor",
        tables::EX1.columns,
    );
    for (name, pname, point) in ex1_grid() {
        let res = point.sim(ctx, scale);
        t.push_row(vec![
            name.to_owned(),
            pname.to_owned(),
            f3(res.branch_stats.miss_rate()),
            f2(res.branch_stats.mpki(res.instructions)),
            f2(res.mean_penalty().unwrap_or(0.0)),
            f3(res.ipc()),
        ]);
    }
    t
}

/// E-X2's grid: two benchmarks × five issue-window sizes, each with a
/// ROB twice the window.
fn ex2_grid() -> impl Iterator<Item = (&'static str, u32, Point)> {
    let windows =
        [16u32, 32, 64, 128, 256].map(|w| (w, baseline_with(|b| b.window_size(w).rob_size(w * 2))));
    sweep(&["twolf", "gzip"], windows.into())
}

/// E-X2 in the registry: its table and the cells the table reads.
pub const EX2_WINDOW_SWEEP: ExperimentDef = ExperimentDef {
    name: tables::EX2.id,
    run: ex2_window_sweep,
    cells: || cells(ex2_grid().map(|(.., p)| p), &[Sim, Analysis]),
};

/// E-X2: penalty versus issue-window size. The resolution saturates near
/// the window drain bound, so growing the window *raises* the
/// misprediction penalty even as it raises IPC — the tension the paper's
/// framework exposes.
pub fn ex2_window_sweep(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX2.id,
        "Extension E-X2: penalty vs. issue-window size",
        tables::EX2.columns,
    );
    for (name, window, point) in ex2_grid() {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        t.push_row(vec![
            name.to_owned(),
            window.to_string(),
            (window * 2).to_string(),
            f2(res.mean_resolution().unwrap_or(0.0)),
            f2(analysis.mean_resolution().unwrap_or(0.0)),
            f3(res.ipc()),
        ]);
    }
    t
}

/// E-X3 in the registry: its table and the cells the table reads.
pub const EX3_CLOSED_FORM: ExperimentDef = ExperimentDef {
    name: tables::EX3.id,
    run: ex3_closed_form,
    cells: || cells(profiles(&spec::NAMES), &[Sim, Analysis]),
};

/// E-X3: three fidelity levels of the same framework — the closed-form
/// (statistics-only) estimate, the trace-scheduling model, and the
/// cycle-level simulator.
///
/// The closed form computes a window-*drain* estimate from aggregate
/// statistics: an upper bound on the branch-chain (local) resolution but
/// blind to cross-event shadows, so it sits between the scheduled model's
/// local resolution and the simulator's effective one. The error column
/// is against the local resolution.
pub fn ex3_closed_form(ctx: &Ctx, scale: Scale) -> Table {
    let cfg = presets::baseline_4wide();
    let mut t = Table::new(
        tables::EX3.id,
        "Extension E-X3: closed-form vs. scheduled model vs. simulation (mean resolution)",
        tables::EX3.columns,
    );
    for point in profiles(&spec::NAMES) {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);
        let trace = point.trace(ctx, scale);
        let cf = closed_form::estimate_with(&*trace, &cfg, &ctx.functional(&cfg, &trace));
        let local = if analysis.breakdowns.is_empty() {
            0.0
        } else {
            analysis
                .breakdowns
                .iter()
                .map(|b| b.local_resolution as f64)
                .sum::<f64>()
                / analysis.breakdowns.len() as f64
        };
        let err = if local > 0.0 {
            (cf.mean_resolution - local).abs() / local
        } else {
            0.0
        };
        t.push_row(vec![
            point.workload.name(),
            f2(res.mean_resolution().unwrap_or(0.0)),
            f2(analysis.mean_resolution().unwrap_or(0.0)),
            f2(local),
            f2(cf.mean_resolution),
            f3(err),
        ]);
    }
    t
}

/// E-X4's grid: four benchmarks with prefetching off and on.
fn ex4_grid() -> impl Iterator<Item = (&'static str, &'static str, Point)> {
    let variants = [
        ("off", PrefetchConfig::off()),
        ("on", PrefetchConfig::aggressive()),
    ]
    .map(|(label, pf)| {
        let caches = presets::baseline_4wide().caches.with_prefetch(pf);
        let caches = caches.expect("valid prefetch");
        (label, baseline_with(|b| b.caches(caches)))
    });
    sweep(&["bzip2", "gzip", "mcf", "gcc"], variants.into())
}

/// E-X4 in the registry: its table and the cells the table reads.
pub const EX4_PREFETCH_STUDY: ExperimentDef = ExperimentDef {
    name: tables::EX4.id,
    run: ex4_prefetch_study,
    cells: || cells(ex4_grid().map(|(.., p)| p), &[Sim]),
};

/// E-X4: hardware prefetching attacks contributors (v) and the I-miss
/// events: streaming benchmarks gain, pointer-chasing ones do not.
pub fn ex4_prefetch_study(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX4.id,
        "Extension E-X4: stride + next-line prefetching on vs. off",
        tables::EX4.columns,
    );
    for (name, label, point) in ex4_grid() {
        let res = point.sim(ctx, scale);
        let n = res.instructions;
        t.push_row(vec![
            name.to_owned(),
            label.to_owned(),
            f3(res.hierarchy.l1d.miss_rate()),
            f2(res.hierarchy.long_dmisses as f64 * 1000.0 / n as f64),
            f2(res.mean_penalty().unwrap_or(0.0)),
            f3(res.ipc()),
            (res.hierarchy.dprefetches + res.hierarchy.iprefetches).to_string(),
        ]);
    }
    t
}

/// E-X5 in the registry: its table and the cells the table reads.
pub const EX5_OCCUPANCY_STUDY: ExperimentDef = ExperimentDef {
    name: tables::EX5.id,
    run: ex5_occupancy_study,
    cells: || cells(profiles(&spec::NAMES), &[Sim]),
};

/// E-X5: ROB occupancy and where the dispatch slots go — the machine-state
/// view behind contributor (ii). High mean occupancy means mispredicted
/// branches dispatch into full windows (long drains); the slot columns
/// name the bottleneck.
pub fn ex5_occupancy_study(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX5.id,
        "Extension E-X5: ROB occupancy and dispatch-slot attribution",
        tables::EX5.columns,
    );
    for point in profiles(&spec::NAMES) {
        let res = point.sim(ctx, scale);
        let total = res.slots.total().max(1) as f64;
        t.push_row(vec![
            point.workload.name(),
            f2(res.mean_rob_occupancy()),
            f3(res.rob_full_fraction()),
            f3(res.slots.used as f64 / total),
            f3(res.slots.frontend_starved as f64 / total),
            f3(res.slots.rob_full as f64 / total),
            f3(res.slots.window_full as f64 / total),
            f2(res.mean_resolution().unwrap_or(0.0)),
        ]);
    }
    t
}

/// E-X6's grid: three benchmarks × three L1D/L2 replacement policies.
fn ex6_grid() -> impl Iterator<Item = (&'static str, &'static str, Point)> {
    let variants = [
        ("lru", ReplacementKind::Lru),
        ("fifo", ReplacementKind::Fifo),
        ("random", ReplacementKind::Random),
    ]
    .map(|(label, policy)| {
        let l1d = CacheGeometry::new(32 * 1024, 64, 4, 2)
            .expect("valid L1D")
            .with_replacement(policy);
        let l2 = CacheGeometry::new(1024 * 1024, 64, 8, 12)
            .expect("valid L2")
            .with_replacement(policy);
        let l1i = presets::baseline_4wide().caches.l1i();
        let caches = HierarchyConfig::new(l1i, l1d, Some(l2), 200).expect("valid hierarchy");
        (label, baseline_with(|b| b.caches(caches)))
    });
    sweep(&["gzip", "parser", "mcf"], variants.into())
}

/// E-X6 in the registry: its table and the cells the table reads.
pub const EX6_REPLACEMENT_STUDY: ExperimentDef = ExperimentDef {
    name: tables::EX6.id,
    run: ex6_replacement_study,
    cells: || cells(ex6_grid().map(|(.., p)| p), &[Sim]),
};

/// E-X6: cache replacement policies. LRU exploits the workloads' temporal
/// reuse; FIFO and random give some of it up, and the damage shows as
/// higher miss rates and lower IPC.
pub fn ex6_replacement_study(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX6.id,
        "Extension E-X6: L1D/L2 replacement policy",
        tables::EX6.columns,
    );
    for (name, policy, point) in ex6_grid() {
        let res = point.sim(ctx, scale);
        t.push_row(vec![
            name.to_owned(),
            policy.to_owned(),
            f3(res.hierarchy.l1d.miss_rate()),
            f2(res.hierarchy.long_dmisses as f64 * 1000.0 / res.instructions as f64),
            f3(res.ipc()),
        ]);
    }
    t
}

/// E-X7's grid: four benchmarks × two indirect-target predictors.
fn ex7_grid() -> impl Iterator<Item = (&'static str, &'static str, Point)> {
    let variants = [
        ("btb", IndirectPredictorConfig::BtbLastTarget),
        (
            "gtarget",
            IndirectPredictorConfig::GTarget {
                entries: 1024,
                history_bits: 10,
            },
        ),
    ]
    .map(|(label, p)| (label, baseline_with(|b| b.indirect_predictor(p))));
    sweep(&["perlbmk", "gap", "eon", "gcc"], variants.into())
}

/// E-X7 in the registry: its table and the cells the table reads.
pub const EX7_INDIRECT_STUDY: ExperimentDef = ExperimentDef {
    name: tables::EX7.id,
    run: ex7_indirect_study,
    cells: || cells(ex7_grid().map(|(.., p)| p), &[Sim]),
};

/// E-X7: indirect-branch target prediction. Indirect mispredictions are
/// classified by branch kind from the trace; the gtarget predictor
/// (history-hashed target cache) recovers the cyclic dispatch sequences a
/// last-target BTB cannot.
pub fn ex7_indirect_study(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX7.id,
        "Extension E-X7: indirect-target prediction (BTB last-target vs gtarget)",
        tables::EX7.columns,
    );
    for (name, label, point) in ex7_grid() {
        let trace = point.trace(ctx, scale);
        let kind_at = |i| trace.branch_info(i).map(|b| b.kind);
        let indirect_total = (0..trace.len())
            .filter(|&i| kind_at(i) == Some(BranchKind::IndirectJump))
            .count();
        let res = point.sim(ctx, scale);
        let mut indirect_misses = 0usize;
        let mut cond_misses = 0usize;
        for m in &res.mispredicts {
            match kind_at(m.branch_idx) {
                Some(BranchKind::IndirectJump) => indirect_misses += 1,
                Some(BranchKind::Conditional) => cond_misses += 1,
                _ => {}
            }
        }
        t.push_row(vec![
            name.to_owned(),
            label.to_owned(),
            f3(indirect_misses as f64 / indirect_total.max(1) as f64),
            indirect_misses.to_string(),
            cond_misses.to_string(),
            f3(res.ipc()),
        ]);
    }
    t
}

/// E-X8's grid: four benchmarks on the baseline, cold and warmed up.
fn ex8_grid() -> impl Iterator<Item = (&'static str, Point)> {
    profiles(&["gzip", "gcc", "mcf", "crafty"])
        .flat_map(|p| [("cold", p.clone()), ("warm", p.with_mode(SimMode::Warmup))])
}

/// E-X8 in the registry: its table and the cells the table reads.
pub const EX8_WARMUP_STUDY: ExperimentDef = ExperimentDef {
    name: tables::EX8.id,
    run: ex8_warmup_study,
    cells: || cells(ex8_grid().map(|(.., p)| p), &[Sim]),
};

/// E-X8: measurement methodology — cold start vs. 20% warmup. Compulsory
/// misses inflate every cold-start rate at laptop-scale trace lengths;
/// warmup (statistics reset after the first fifth, machine state kept)
/// recovers the steady state the paper's SimPoint-sampled runs measured.
pub fn ex8_warmup_study(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::EX8.id,
        "Extension E-X8: cold start vs. 20% warmup",
        tables::EX8.columns,
    );
    for (mode, point) in ex8_grid() {
        let res = point.sim(ctx, scale);
        let n = res.instructions.max(1);
        t.push_row(vec![
            point.workload.name(),
            mode.to_owned(),
            f3(res.ipc()),
            f2(res.hierarchy.long_dmisses as f64 * 1000.0 / n as f64),
            f2(res.hierarchy.l1i.mpki(n)),
            f2(res.mean_penalty().unwrap_or(0.0)),
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
    fn ex1_perfect_wins_and_penalties_stay_banded() {
        let ctx = Ctx::new();
        let t = ex1_predictor_study(&ctx, tiny());
        let twolf: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "twolf").collect();
        let ipc = |p: &str| -> f64 {
            twolf.iter().find(|r| r[1] == p).unwrap()[5]
                .parse()
                .unwrap()
        };
        assert!(ipc("perfect") > ipc("bimodal"), "oracle must win");
        // Real predictors' mean penalties stay within a 3x band.
        let pens: Vec<f64> = twolf
            .iter()
            .filter(|r| r[1] != "perfect")
            .map(|r| r[4].parse().unwrap())
            .collect();
        let (lo, hi) = pens
            .iter()
            .fold((f64::MAX, 0.0f64), |(l, h), &p| (l.min(p), h.max(p)));
        assert!(hi / lo < 3.0, "penalty band too wide: {pens:?}");
    }

    #[test]
    fn ex2_bigger_windows_raise_resolution() {
        let ctx = Ctx::new();
        let t = ex2_window_sweep(&ctx, tiny());
        let res: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "twolf")
            .map(|r| r[3].parse().unwrap())
            .collect();
        assert!(
            res.last().unwrap() > res.first().unwrap(),
            "256-entry window must drain longer than 16: {res:?}"
        );
    }

    #[test]
    fn ex3_closed_form_brackets_sensibly() {
        let ctx = Ctx::new();
        let t = ex3_closed_form(
            &ctx,
            Scale {
                ops: 30_000,
                seed: 5,
            },
        );
        // The closed form computes a window-drain-flavoured estimate: it
        // should sit between the branch-chain bound (the local scheduled
        // resolution) and a generous multiple of the simulator's
        // effective resolution, on every benchmark.
        for row in &t.rows {
            let sim: f64 = row[1].parse().unwrap();
            let local: f64 = row[3].parse().unwrap();
            let cf: f64 = row[4].parse().unwrap();
            assert!(
                cf >= local * 0.5 && cf <= sim * 1.5,
                "{}: closed form {cf} outside [0.5*local {local}, 1.5*sim {sim}]",
                row[0]
            );
        }
    }

    #[test]
    fn ex4_prefetch_helps_streaming_benchmarks() {
        let ctx = Ctx::new();
        let t = ex4_prefetch_study(
            &ctx,
            Scale {
                ops: 30_000,
                seed: 5,
            },
        );
        let get = |bench: &str, pf: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == bench && r[1] == pf).unwrap()[col]
                .parse()
                .unwrap()
        };
        // bzip2 streams: miss rate must drop and IPC rise with prefetch.
        assert!(get("bzip2", "on", 2) < get("bzip2", "off", 2));
        assert!(get("bzip2", "on", 5) > get("bzip2", "off", 5));
        // Prefetches actually issued.
        assert!(get("bzip2", "on", 6) > 100.0);
        assert_eq!(get("bzip2", "off", 6), 0.0);
    }

    #[test]
    fn ex5_occupancy_reconciles() {
        let ctx = Ctx::new();
        let t = ex5_occupancy_study(&ctx, tiny());
        assert_eq!(t.rows.len(), 12);
        for row in &t.rows {
            let slots: f64 = row[3..7].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!(
                (slots - 1.0).abs() < 0.01,
                "{}: slots sum to {slots}",
                row[0]
            );
            let occ: f64 = row[1].parse().unwrap();
            assert!((0.0..=128.0).contains(&occ));
        }
        // mcf keeps the fullest ROB.
        let occ = |b: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == b).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(occ("mcf") > occ("crafty"), "mcf must be ROB-bound");
    }

    #[test]
    fn ex6_lru_beats_random_on_reuse_heavy_workloads() {
        let ctx = Ctx::new();
        let t = ex6_replacement_study(
            &ctx,
            Scale {
                ops: 30_000,
                seed: 5,
            },
        );
        let rate = |b: &str, p: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == b && r[1] == p).unwrap()[2]
                .parse()
                .unwrap()
        };
        // LRU should not lose to random on the reuse-heavy profiles.
        for b in ["gzip", "parser"] {
            assert!(
                rate(b, "lru") <= rate(b, "random") + 0.01,
                "{b}: lru {} vs random {}",
                rate(b, "lru"),
                rate(b, "random")
            );
        }
    }

    #[test]
    fn ex7_gtarget_beats_btb_on_indirect_heavy_profiles() {
        let ctx = Ctx::new();
        let t = ex7_indirect_study(
            &ctx,
            Scale {
                ops: 40_000,
                seed: 5,
            },
        );
        let miss = |b: &str, p: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == b && r[1] == p).unwrap()[2]
                .parse()
                .unwrap()
        };
        // On the interpreter-like profile, the history-hashed target
        // cache must clearly beat the last-target BTB (cyclic sites).
        assert!(
            miss("perlbmk", "gtarget") < miss("perlbmk", "btb") * 0.8,
            "gtarget {} vs btb {}",
            miss("perlbmk", "gtarget"),
            miss("perlbmk", "btb")
        );
        // Conditional misses are untouched by the target predictor.
        let cond = |b: &str, p: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == b && r[1] == p).unwrap()[4]
                .parse()
                .unwrap()
        };
        assert_eq!(cond("perlbmk", "btb"), cond("perlbmk", "gtarget"));
    }

    #[test]
    fn ex8_warmup_raises_ipc_and_cuts_compulsory_misses() {
        let ctx = Ctx::new();
        let t = ex8_warmup_study(
            &ctx,
            Scale {
                ops: 40_000,
                seed: 5,
            },
        );
        let get = |b: &str, m: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == b && r[1] == m).unwrap()[col]
                .parse()
                .unwrap()
        };
        for b in ["gzip", "crafty"] {
            assert!(
                get(b, "warm", 3) < get(b, "cold", 3),
                "{b}: warm long-D-MPKI must drop"
            );
            assert!(get(b, "warm", 2) > get(b, "cold", 2) * 0.9, "{b}: IPC sane");
        }
    }
}
