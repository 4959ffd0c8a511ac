//! The characterization figures E-F1 … E-F5.

use bmp_core::intervals::{bucket_label, bucket_means};
use bmp_core::tables;
use bmp_core::{IntervalEventKind, IntervalLengthHistogram};
use bmp_uarch::{presets, PredictorConfig};
use bmp_workloads::spec;

use crate::engine::{Ctx, ExperimentDef};
use crate::grid::Artifact::{Analysis, Sim};
use crate::grid::{baseline_with, cells, profiles, Machine, Point, SimMode, Workload};
use crate::table::{f2, f3};
use crate::{Scale, Table};

/// Benchmarks used when a figure needs representatives rather than the
/// full suite.
const REPRESENTATIVES: [&str; 3] = ["gzip", "gcc", "twolf"];

/// E-F1's one point: crafty-like (predictable branches and quiet caches,
/// so enough mispredictions are far from any other event) on the
/// baseline, recording the dispatch timeline.
fn fig1_point() -> Point {
    Point::baseline(Workload::Profile("crafty")).with_mode(SimMode::Timeline)
}

/// E-F1 in the registry: its table and the cells the table reads.
pub const FIG1_INTERVAL_PROFILE: ExperimentDef = ExperimentDef {
    name: tables::FIG1.id,
    run: fig1_interval_profile,
    cells: || vec![fig1_point().cell(Sim)],
};

/// E-F1: the interval-behaviour transient — average dispatch rate around
/// a branch misprediction (the paper's motivating timeline: steady rate
/// `D`, a drain-and-refill hole, recovery).
///
/// Only mispredictions at least 50 cycles away from the previous and
/// next recorded events are averaged, so the transient is not polluted by
/// neighbouring events.
pub fn fig1_interval_profile(ctx: &Ctx, scale: Scale) -> Table {
    const BEFORE: i64 = 20;
    const AFTER: i64 = 60;
    const ISOLATION: i64 = 50;
    let res = fig1_point().sim(ctx, scale);
    let timeline = res.dispatch_timeline.as_ref().expect("timeline enabled");

    // Event cycles, for isolation filtering.
    let event_cycles: Vec<u64> = res.events.iter().map(|e| e.cycle).collect();
    let mut sums = vec![0u64; (BEFORE + AFTER + 1) as usize];
    let mut count = 0u64;
    for m in &res.mispredicts {
        let t0 = m.fetch_cycle as i64;
        let isolated = event_cycles
            .iter()
            .all(|&c| c as i64 == t0 || (c as i64 - t0).abs() > ISOLATION);
        if !isolated {
            continue;
        }
        if t0 - BEFORE < 0 || t0 + AFTER >= timeline.len() as i64 {
            continue;
        }
        for (slot, rel) in (-BEFORE..=AFTER).enumerate() {
            sums[slot] += u64::from(timeline[(t0 + rel) as usize]);
        }
        count += 1;
    }
    let mut t = Table::new(
        tables::FIG1.id,
        &format!(
            "Figure 1 (E-F1): mean dispatch rate around an isolated misprediction \
             (crafty-like, {count} events averaged)"
        ),
        tables::FIG1.columns,
    );
    for (slot, rel) in (-BEFORE..=AFTER).enumerate() {
        let mean = if count == 0 {
            0.0
        } else {
            sums[slot] as f64 / count as f64
        };
        t.push_row(vec![rel.to_string(), f3(mean)]);
    }
    t
}

/// E-F2's grid: every profile on the baseline and on the same machine
/// with a perfect predictor.
fn fig2_grid() -> impl Iterator<Item = (Point, Point)> {
    let oracle = baseline_with(|b| b.predictor(PredictorConfig::Perfect));
    profiles(&spec::NAMES).map(move |base| {
        let oracle = Point::new(base.workload, Machine::sweep(oracle.clone()));
        (base, oracle)
    })
}

/// E-F2 in the registry: its table and the cells the table reads.
pub const FIG2_PENALTY_PER_BENCHMARK: ExperimentDef = ExperimentDef {
    name: tables::FIG2.id,
    run: fig2_penalty_per_benchmark,
    cells: || {
        fig2_grid()
            .flat_map(|(base, oracle)| [base.cell(Sim), base.cell(Analysis), oracle.cell(Sim)])
            .collect()
    },
};

/// E-F2: the headline figure — average misprediction penalty per
/// benchmark, measured three ways against the frontend pipeline length
/// it is commonly equated with:
///
/// * **per-event accounting** — resolution + refill per misprediction;
/// * **two-run difference** — `(cycles − cycles_with_oracle) / events`,
///   the black-box penalty (overlap with other events makes it differ
///   from per-event accounting);
/// * **the interval model's prediction**.
pub fn fig2_penalty_per_benchmark(ctx: &Ctx, scale: Scale) -> Table {
    let frontend_depth = presets::baseline_4wide().frontend_depth;
    let mut t = Table::new(
        tables::FIG2.id,
        "Figure 2 (E-F2): average branch misprediction penalty per benchmark \
         (frontend pipeline length = 5 cycles)",
        tables::FIG2.columns,
    );
    for (base, oracle) in fig2_grid() {
        let res = base.sim(ctx, scale);
        let perfect = oracle.sim(ctx, scale);
        let analysis = base.analysis(ctx, scale);
        let extra_events = res
            .mispredicts
            .len()
            .saturating_sub(perfect.mispredicts.len());
        let two_run = if extra_events > 0 {
            res.cycles.saturating_sub(perfect.cycles) as f64 / extra_events as f64
        } else {
            0.0
        };
        t.push_row(vec![
            base.workload.name(),
            f2(res.mean_penalty().unwrap_or(0.0)),
            f2(two_run),
            f2(analysis.mean_penalty().unwrap_or(0.0)),
            frontend_depth.to_string(),
            f2(res.mean_resolution().unwrap_or(0.0)),
        ]);
    }
    t
}

/// E-F3 in the registry: its table and the cells the table reads.
pub const FIG3_PENALTY_VS_INTERVAL: ExperimentDef = ExperimentDef {
    name: tables::FIG3.id,
    run: fig3_penalty_vs_interval,
    cells: || cells(profiles(&REPRESENTATIVES), &[Sim, Analysis]),
};

/// E-F3: branch resolution time versus the number of instructions since
/// the last miss event (contributor ii — burstiness). Three series per
/// benchmark: measured, model-local (pure ramp-up) and model-effective.
pub fn fig3_penalty_vs_interval(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::FIG3.id,
        "Figure 3 (E-F3): branch resolution time vs. instructions since the last miss event",
        tables::FIG3.columns,
    );
    for point in profiles(&REPRESENTATIVES) {
        let res = point.sim(ctx, scale);
        let records = res.interval_records(point.trace(ctx, scale).len());
        let measured = bucket_means(
            records
                .iter()
                .filter(|r| r.kind == IntervalEventKind::BranchMispredict)
                .map(|r| (r.len(), r.resolution)),
        );
        let analysis = point.analysis(ctx, scale);
        let local = analysis.local_resolution_by_interval_length();
        let global = analysis.resolution_by_interval_length();
        let find = |curve: &[(usize, f64, u64)], bucket: usize| {
            curve.iter().find(|c| c.0 == bucket).map(|c| f2(c.1))
        };
        for (bucket, mean, n) in measured {
            t.push_row(vec![
                point.workload.name(),
                bucket_label(bucket),
                n.to_string(),
                f2(mean),
                find(&local, bucket).unwrap_or_else(|| "-".into()),
                find(&global, bucket).unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    t
}

/// E-F4 in the registry: its table and the cells the table reads.
pub const FIG4_INTERVAL_DISTRIBUTION: ExperimentDef = ExperimentDef {
    name: tables::FIG4.id,
    run: fig4_interval_distribution,
    cells: || cells(profiles(&spec::NAMES), &[Analysis]),
};

/// E-F4: the distribution of inter-miss interval lengths per benchmark —
/// the burstiness characterization.
pub fn fig4_interval_distribution(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::FIG4.id,
        "Figure 4 (E-F4): distribution of inter-miss-event interval lengths",
        tables::FIG4.columns,
    );
    for point in profiles(&spec::NAMES) {
        let name = point.workload.name();
        let analysis = point.analysis(ctx, scale);
        let hist = IntervalLengthHistogram::from_intervals(&analysis.intervals);
        for i in (0..hist.buckets()).filter(|&i| hist.count(i) > 0) {
            t.push_row(vec![
                name.clone(),
                bucket_label(i),
                f3(hist.fraction(i)),
                hist.count(i).to_string(),
            ]);
        }
    }
    t
}

/// E-F5 in the registry: its table and the cells the table reads.
pub const FIG5_CONTRIBUTOR_BREAKDOWN: ExperimentDef = ExperimentDef {
    name: tables::FIG5.id,
    run: fig5_contributor_breakdown,
    cells: FIG4_INTERVAL_DISTRIBUTION.cells,
};

/// E-F5: the five-contributor decomposition of the mean penalty per
/// benchmark: frontend (i), the branch's own execution, inherent ILP
/// (iii), functional-unit latencies (iv), short D-misses (v), and the
/// cross-interval window carryover (part of ii).
pub fn fig5_contributor_breakdown(ctx: &Ctx, scale: Scale) -> Table {
    let mut t = Table::new(
        tables::FIG5.id,
        "Figure 5 (E-F5): decomposition of the mean misprediction penalty",
        tables::FIG5.columns,
    );
    for point in profiles(&spec::NAMES) {
        let analysis = point.analysis(ctx, scale);
        let Some((base, ilp, fu, dmiss)) = analysis.mean_contributions() else {
            continue;
        };
        let n = analysis.breakdowns.len() as f64;
        let carry: f64 = analysis
            .breakdowns
            .iter()
            .map(|b| b.carryover as f64)
            .sum::<f64>()
            / n;
        t.push_row(vec![
            point.workload.name(),
            f2(f64::from(analysis.frontend_depth)),
            f2(base),
            f2(ilp),
            f2(fu),
            f2(dmiss),
            f2(carry),
            f2(analysis.mean_penalty().unwrap_or(0.0)),
        ]);
    }
    t
}

/// E-F11 in the registry: its table and the cells the table reads.
pub const FIG11_PENALTY_DISTRIBUTION: ExperimentDef = ExperimentDef {
    name: tables::FIG11.id,
    run: fig11_penalty_distribution,
    cells: FIG3_PENALTY_VS_INTERVAL.cells,
};

/// E-F11: the distribution of per-misprediction penalties — beyond the
/// mean, the shape: a mass of cheap bursty events, a body near the window
/// drain, and a long-miss-shadow tail. Measured (simulator) and modeled
/// side by side, per representative benchmark.
pub fn fig11_penalty_distribution(ctx: &Ctx, scale: Scale) -> Table {
    const BOUNDS: [u64; 7] = [2, 5, 10, 20, 50, 100, 200];
    let mut t = Table::new(
        tables::FIG11.id,
        "Figure 11 (E-F11): distribution of branch resolution times",
        tables::FIG11.columns,
    );
    for point in profiles(&REPRESENTATIVES) {
        let res = point.sim(ctx, scale);
        let analysis = point.analysis(ctx, scale);

        // Measured histogram over the same buckets.
        let mut measured = vec![0u64; BOUNDS.len() + 1];
        for m in &res.mispredicts {
            let bucket = BOUNDS
                .iter()
                .position(|&b| m.resolution() < b)
                .unwrap_or(BOUNDS.len());
            measured[bucket] += 1;
        }
        let modeled = analysis.resolution_histogram(&BOUNDS);
        let m_total: u64 = measured.iter().sum::<u64>().max(1);
        let a_total: u64 = modeled.iter().sum::<u64>().max(1);
        for i in 0..=BOUNDS.len() {
            if measured[i] == 0 && modeled[i] == 0 {
                continue;
            }
            let lo = if i == 0 {
                "0".to_owned()
            } else {
                BOUNDS[i - 1].to_string()
            };
            t.push_row(vec![
                point.workload.name(),
                lo,
                f3(measured[i] as f64 / m_total as f64),
                f3(modeled[i] as f64 / a_total as f64),
                measured[i].to_string(),
            ]);
        }
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
    fn fig1_shows_a_dispatch_hole() {
        let ctx = Ctx::new();
        let t = fig1_interval_profile(
            &ctx,
            Scale {
                ops: 60_000,
                seed: 5,
            },
        );
        // Parse the series back.
        let series: Vec<(i64, f64)> = t
            .rows
            .iter()
            .map(|r| (r[0].parse().unwrap(), r[1].parse().unwrap()))
            .collect();
        let before: f64 = series
            .iter()
            .filter(|(c, _)| (-10..=-1).contains(c))
            .map(|(_, v)| v)
            .sum::<f64>()
            / 10.0;
        // The frontend pipe keeps dispatching for ~frontend_depth cycles
        // after the mispredict is fetched; the hole opens at +6.
        let hole: f64 = series
            .iter()
            .filter(|(c, _)| (7..=11).contains(c))
            .map(|(_, v)| v)
            .sum::<f64>()
            / 5.0;
        assert!(
            before > hole + 0.5,
            "dispatch must collapse after the mispredict fetch: before {before}, hole {hole}"
        );
    }

    #[test]
    fn fig2_penalty_exceeds_frontend_everywhere() {
        let ctx = Ctx::new();
        let t = fig2_penalty_per_benchmark(&ctx, tiny());
        assert_eq!(t.rows.len(), 12);
        for row in &t.rows {
            let measured: f64 = row[1].parse().unwrap();
            let two_run: f64 = row[2].parse().unwrap();
            let fe: f64 = row[4].parse().unwrap();
            assert!(
                measured > fe,
                "{}: measured penalty {measured} must exceed frontend {fe}",
                row[0]
            );
            // The black-box measurement agrees on the headline.
            assert!(
                two_run > fe * 0.8,
                "{}: two-run penalty {two_run} should also exceed the frontend",
                row[0]
            );
        }
    }

    #[test]
    fn fig3_has_all_series() {
        let ctx = Ctx::new();
        let t = fig3_penalty_vs_interval(&ctx, tiny());
        assert!(!t.rows.is_empty());
        // Model-local series should ramp up within a benchmark. Only
        // well-populated buckets are meaningful at test scale.
        for name in REPRESENTATIVES {
            let vals: Vec<f64> = t
                .rows
                .iter()
                .filter(|r| r[0] == name && r[4] != "-" && r[2].parse::<u64>().unwrap() >= 10)
                .map(|r| r[4].parse().unwrap())
                .collect();
            if vals.len() >= 3 {
                let max = vals.iter().cloned().fold(0.0f64, f64::max);
                assert!(
                    max > vals[0],
                    "{name}: local resolution should ramp up: {vals:?}"
                );
            }
        }
    }

    #[test]
    fn fig4_fractions_sum_to_one_per_benchmark() {
        let ctx = Ctx::new();
        let t = fig4_interval_distribution(&ctx, tiny());
        for profile in ["gzip", "mcf"] {
            let sum: f64 = t
                .rows
                .iter()
                .filter(|r| r[0] == profile)
                .map(|r| r[2].parse::<f64>().unwrap())
                .sum();
            assert!((sum - 1.0).abs() < 0.02, "{profile} fractions sum to {sum}");
        }
    }

    #[test]
    fn fig5_components_reconcile() {
        let ctx = Ctx::new();
        let t = fig5_contributor_breakdown(&ctx, tiny());
        for row in &t.rows {
            let parts: Vec<f64> = row[1..7].iter().map(|c| c.parse().unwrap()).collect();
            let total: f64 = row[7].parse().unwrap();
            let sum: f64 = parts.iter().sum();
            assert!(
                (sum - total).abs() < 0.1,
                "{}: components {sum} vs total {total}",
                row[0]
            );
        }
    }

    #[test]
    fn fig11_distributions_normalize_and_track() {
        let ctx = Ctx::new();
        let t = fig11_penalty_distribution(
            &ctx,
            Scale {
                ops: 30_000,
                seed: 5,
            },
        );
        for name in REPRESENTATIVES {
            let rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == name).collect();
            let m_sum: f64 = rows.iter().map(|r| r[2].parse::<f64>().unwrap()).sum();
            let a_sum: f64 = rows.iter().map(|r| r[3].parse::<f64>().unwrap()).sum();
            assert!(
                (m_sum - 1.0).abs() < 0.02,
                "{name} measured sums to {m_sum}"
            );
            assert!((a_sum - 1.0).abs() < 0.02, "{name} model sums to {a_sum}");
            // Model and measurement put their mass in overlapping
            // buckets: total variation distance bounded.
            let tv: f64 = rows
                .iter()
                .map(|r| (r[2].parse::<f64>().unwrap() - r[3].parse::<f64>().unwrap()).abs())
                .sum::<f64>()
                / 2.0;
            assert!(tv < 0.45, "{name}: distribution divergence {tv}");
        }
    }
}
