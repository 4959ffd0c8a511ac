//! Per-interval cycle accounting: the observability layer's data model.
//!
//! One [`IntervalRecord`] per interval, carrying the interval kind and
//! extent, the branch-resolution timing observed by the pipeline, and —
//! for records produced by the analytical model — the paper's five
//! contributor terms (see `docs/OBSERVABILITY.md`).
//!
//! Two producers build the same record shape, so measured and modeled
//! accounting land in one schema:
//!
//! * the simulators' side is `bmp_sim::SimResult::interval_records`,
//!   which derives the records after a run from its miss-event and
//!   misprediction logs;
//! * the model side is [`records_from_analysis`], which converts a
//!   [`PenaltyAnalysis`] with the contributor terms filled in.

use crate::intervals::{Interval, IntervalEventKind};
use crate::penalty::PenaltyAnalysis;
use serde::{Deserialize, Serialize};

/// One interval's cycle accounting.
///
/// Intervals follow the semantics of [`segment`](crate::intervals::segment):
/// the interval spans `[start, pos]` inclusive, where `pos` is the
/// dynamic index of the instruction the terminating event is attached
/// to. The trailing run of instructions after the last event has no
/// terminating event and produces no record.
///
/// Two producers fill this struct differently:
///
/// * **Simulators** fill the timing fields of branch intervals
///   (`resolution`, `refill`, `occupancy`) and leave the contributor
///   terms zero — a pipeline observes *when* a branch resolved, not
///   *why*.
/// * **The analytical model** fills `resolution`, `refill` and the
///   contributor terms from the knock-out schedule and leaves
///   `occupancy` zero.
///
/// # Examples
///
/// The paper's two accounting identities hold field-by-field. The
/// penalty is the window-drain (resolution) component plus the
/// frontend refill:
///
/// ```
/// use bmp_core::accounting::IntervalRecord;
/// use bmp_core::intervals::IntervalEventKind;
///
/// let r = IntervalRecord {
///     kind: IntervalEventKind::BranchMispredict,
///     start: 100,
///     pos: 131,
///     resolution: 14,
///     refill: 5,
///     occupancy: 32,
///     base: 6,
///     ilp: 4,
///     fu_latency: 2,
///     short_dmiss: 0,
///     carryover: 2,
/// };
/// assert_eq!(r.penalty(), r.resolution + u64::from(r.refill));
/// assert_eq!(r.penalty(), 19);
/// assert_eq!(r.len(), 32);
/// ```
///
/// And the four in-interval contributors sum to the *local* resolution,
/// which differs from the observed resolution exactly by the cross-
/// interval carryover term:
///
/// ```
/// # use bmp_core::accounting::IntervalRecord;
/// # use bmp_core::intervals::IntervalEventKind;
/// # let r = IntervalRecord {
/// #     kind: IntervalEventKind::BranchMispredict,
/// #     start: 100, pos: 131,
/// #     resolution: 14, refill: 5, occupancy: 32,
/// #     base: 6, ilp: 4, fu_latency: 2, short_dmiss: 0, carryover: 2,
/// # };
/// assert_eq!(r.local_resolution(), r.base + r.ilp + r.fu_latency + r.short_dmiss);
/// assert_eq!(r.resolution as i64, r.local_resolution() as i64 + r.carryover);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalRecord {
    /// The terminating event's kind.
    pub kind: IntervalEventKind,
    /// Dynamic index of the interval's first instruction.
    pub start: u64,
    /// Dynamic index of the instruction carrying the terminating event
    /// (inclusive end of the interval).
    pub pos: u64,
    /// For branch intervals: dispatch-to-execute resolution time of the
    /// mispredicted branch. Zero for other kinds.
    pub resolution: u64,
    /// For branch intervals: the frontend refill `c_fe` (the machine's
    /// frontend depth). Zero for other kinds.
    pub refill: u32,
    /// For branch intervals: instructions in the window (the branch
    /// included) when the branch dispatched — the window-occupancy
    /// input to the paper's contributor (ii). Zero for other kinds.
    pub occupancy: u32,
    /// Contributor: the resolution floor (dispatch-to-issue plus the
    /// branch's own execute latency). Model-filled; zero from the sims.
    pub base: u64,
    /// Contributor: dependence-chain (inherent ILP) share.
    /// Model-filled; zero from the sims.
    pub ilp: u64,
    /// Contributor: functional-unit-latency share. Model-filled; zero
    /// from the sims.
    pub fu_latency: u64,
    /// Contributor: short D-cache-miss share. Model-filled; zero from
    /// the sims.
    pub short_dmiss: u64,
    /// Window/bandwidth state carried over from before the interval
    /// (may be negative when prior stalls left the window emptier than
    /// the isolated schedule assumes). Model-filled; zero from the sims.
    pub carryover: i64,
}

impl IntervalRecord {
    /// The record of a segmented interval, every timing and contributor
    /// field zero; `None` for the trailing partial interval.
    pub fn of_interval(iv: &Interval) -> Option<Self> {
        Some(Self {
            kind: iv.kind?,
            start: iv.start as u64,
            pos: iv.end as u64,
            resolution: 0,
            refill: 0,
            occupancy: 0,
            base: 0,
            ilp: 0,
            fu_latency: 0,
            short_dmiss: 0,
            carryover: 0,
        })
    }

    /// Instructions in the interval (terminating instruction included).
    pub fn len(&self) -> u64 {
        self.pos - self.start + 1
    }

    /// `true` when the interval holds a single instruction.
    pub fn is_empty(&self) -> bool {
        false // an interval always contains its terminating instruction
    }

    /// The full misprediction penalty under the paper's definition:
    /// `resolution + refill`. Meaningful for branch intervals.
    pub fn penalty(&self) -> u64 {
        self.resolution + u64::from(self.refill)
    }

    /// The sum of the four in-interval contributor terms — equal to the
    /// knock-out model's *local* resolution (the interval scheduled in
    /// isolation). The observed `resolution` differs from this by
    /// exactly `carryover`.
    pub fn local_resolution(&self) -> u64 {
        self.base + self.ilp + self.fu_latency + self.short_dmiss
    }
}

/// Converts a finished penalty analysis into interval records with the
/// five contributor terms filled in — the model-side producer for the
/// metrics schema (`bmp-bench` aggregates these into the `model`
/// section of each workload's metrics; see `docs/OBSERVABILITY.md`).
///
/// Non-branch intervals carry only their kind and extent. The trailing
/// partial interval (no terminating event) is skipped, matching both
/// the histogram and the simulator-side records.
pub fn records_from_analysis(analysis: &PenaltyAnalysis) -> Vec<IntervalRecord> {
    let mut records: Vec<IntervalRecord> = analysis
        .intervals
        .iter()
        .filter_map(IntervalRecord::of_interval)
        .collect();
    // One breakdown per branch interval, both in trace order.
    let branches = records
        .iter_mut()
        .filter(|r| r.kind == IntervalEventKind::BranchMispredict);
    for (record, b) in branches.zip(&analysis.breakdowns) {
        debug_assert_eq!(record.pos, b.branch_idx as u64, "breakdown out of step");
        record.resolution = b.resolution;
        record.refill = b.frontend;
        record.base = b.base;
        record.ilp = b.ilp;
        record.fu_latency = b.fu_latency;
        record.short_dmiss = b.short_dmiss;
        record.carryover = b.carryover;
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_records_fill_contributors() {
        use bmp_uarch::presets;
        use bmp_workloads::spec;

        let trace = spec::by_name("gzip").unwrap().generate(20_000, 1);
        let cfg = presets::baseline_4wide();
        let analysis = crate::penalty::PenaltyModel::new(cfg).analyze(&trace);
        let records = records_from_analysis(&analysis);
        let n_branch = records
            .iter()
            .filter(|r| r.kind == IntervalEventKind::BranchMispredict)
            .count();
        assert_eq!(
            n_branch,
            analysis.breakdowns.len(),
            "every breakdown must surface as a branch record"
        );
        let n_terminated = analysis
            .intervals
            .iter()
            .filter(|i| i.kind.is_some())
            .count();
        assert_eq!(records.len(), n_terminated);
        for r in &records {
            if r.kind == IntervalEventKind::BranchMispredict {
                assert_eq!(
                    r.local_resolution(),
                    r.base + r.ilp + r.fu_latency + r.short_dmiss
                );
                assert_eq!(
                    r.resolution as i64,
                    r.local_resolution() as i64 + r.carryover,
                    "carryover closes the local/observed gap at branch {}",
                    r.pos
                );
                assert_eq!(r.refill, analysis.frontend_depth);
            } else {
                assert_eq!(r.resolution, 0);
            }
        }
        // Contiguity: each interval starts right after the previous one.
        for pair in records.windows(2) {
            assert_eq!(pair[1].start, pair[0].pos + 1);
        }
    }
}
