//! Measured-side interval bookkeeping for the comparison experiments:
//! segmenting a simulator's event log into the interval model's
//! intervals.

use bmp_core::{segment, Interval, IntervalEvent};
use bmp_sim::{MissEvent, SimResult};

/// Converts a simulator event log (sorted by trace order after the sort
/// here — the simulator emits D-miss events in issue order) into model
/// events.
pub fn events_of(events: &[MissEvent]) -> Vec<IntervalEvent> {
    let mut out: Vec<IntervalEvent> = events
        .iter()
        .map(|e| IntervalEvent {
            pos: e.trace_idx,
            kind: e.kind,
        })
        .collect();
    out.sort_by_key(|e| e.pos);
    out
}

/// Segments the *measured* run into intervals.
pub fn measured_intervals(result: &SimResult, n_ops: usize) -> Vec<Interval> {
    segment(n_ops, &events_of(&result.events))
}

/// For each measured misprediction, the length of the interval it
/// terminates (instructions since the previous miss event, the branch
/// included), aligned with `result.mispredicts`.
pub fn measured_interval_lengths(result: &SimResult, n_ops: usize) -> Vec<usize> {
    let intervals = measured_intervals(result, n_ops);
    // Map branch position -> interval length.
    let mut by_end = std::collections::HashMap::new();
    for iv in &intervals {
        by_end.insert(iv.end, iv.len());
    }
    result
        .mispredicts
        .iter()
        .map(|m| by_end.get(&m.branch_idx).copied().unwrap_or(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::IntervalEventKind;

    #[test]
    fn events_are_sorted() {
        let raw = [
            MissEvent {
                trace_idx: 30,
                cycle: 5,
                kind: IntervalEventKind::LongDCacheMiss,
            },
            MissEvent {
                trace_idx: 10,
                cycle: 9,
                kind: IntervalEventKind::BranchMispredict,
            },
        ];
        let out = events_of(&raw);
        assert_eq!(out[0].pos, 10);
        assert_eq!(out[1].pos, 30);
    }
}
