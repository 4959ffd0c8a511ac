//! Phase study: interval analysis on a program whose behaviour changes
//! mid-run.
//!
//! A crafty-like phase (predictable, cache-resident) is followed by an
//! mcf-like phase (pointer-chasing, memory-bound). The experiment windows
//! the trace and tracks how the miss-event mix, the interval-length
//! distribution and the misprediction penalty move across the boundary —
//! the kind of time-varying view the interval framework makes cheap.
//!
//! ```text
//! cargo run --release --example phase_study
//! ```

use mispredict::core::{segment, FunctionalOutcome, IntervalEventKind, PenaltyModel};
use mispredict::uarch::presets;
use mispredict::workloads::phases::{phased, Phase};
use mispredict::workloads::spec;

fn main() {
    const PHASE_OPS: usize = 100_000;
    let trace = phased(
        &[
            Phase {
                profile: spec::by_name("crafty").expect("known profile"),
                ops: PHASE_OPS,
            },
            Phase {
                profile: spec::by_name("mcf").expect("known profile"),
                ops: PHASE_OPS,
            },
        ],
        33,
    );
    let machine = presets::baseline_4wide();
    let outcome = FunctionalOutcome::compute(trace.ops(), &machine);
    let analysis = PenaltyModel::new(machine).analyze_with(trace.ops(), &outcome);
    let intervals = segment(0..trace.len(), &outcome.events);

    const WINDOW: usize = 20_000;
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "window", "bmiss", "imiss", "dlong", "mean-ivl", "mean-penalty"
    );
    let mut start = 0;
    while start < trace.len() {
        let end = (start + WINDOW).min(trace.len());
        let (mut b, mut i, mut d) = (0u32, 0u32, 0u32);
        for e in outcome
            .events
            .iter()
            .filter(|e| e.pos >= start && e.pos < end)
        {
            match e.kind {
                IntervalEventKind::BranchMispredict => b += 1,
                IntervalEventKind::ICacheMiss | IntervalEventKind::ICacheLongMiss => i += 1,
                IntervalEventKind::LongDCacheMiss => d += 1,
            }
        }
        let ivls: Vec<usize> = intervals
            .iter()
            .filter(|iv| iv.end >= start && iv.end < end && iv.kind.is_some())
            .map(|iv| iv.len())
            .collect();
        let mean_ivl = if ivls.is_empty() {
            0.0
        } else {
            ivls.iter().sum::<usize>() as f64 / ivls.len() as f64
        };
        let pens: Vec<u64> = analysis
            .breakdowns
            .iter()
            .filter(|bd| bd.branch_idx >= start && bd.branch_idx < end)
            .map(|bd| bd.penalty())
            .collect();
        let mean_pen = if pens.is_empty() {
            0.0
        } else {
            pens.iter().sum::<u64>() as f64 / pens.len() as f64
        };
        println!(
            "{:>10} {b:>8} {i:>8} {d:>8} {mean_ivl:>10.1} {mean_pen:>12.1}",
            format!("{}k", start / 1000),
        );
        start = end;
    }
    println!(
        "\nThe phase boundary at {}k is visible in every column: long D-miss events\n\
         surge, intervals shorten, and the mean misprediction penalty jumps as\n\
         branches start resolving in the shadow of outstanding misses.",
        PHASE_OPS / 1000
    );
}
