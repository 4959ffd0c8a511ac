//! Simulation outputs: aggregate results, miss events and
//! per-misprediction penalty records.

use bmp_branch::BranchStats;
use bmp_cache::HierarchyStats;
use bmp_core::{segment, IntervalEvent, IntervalEventKind, IntervalRecord};
use serde::{Deserialize, Serialize};

/// One miss event, positioned both in the instruction stream and in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissEvent {
    /// The dynamic-instruction index the event is attached to (the
    /// mispredicted branch, the instruction whose fetch missed, or the
    /// long-missing load).
    pub trace_idx: usize,
    /// Cycle at which the event was observed.
    pub cycle: u64,
    /// What happened.
    pub kind: IntervalEventKind,
}

/// Everything measured about one branch misprediction.
///
/// The paper's penalty definition is
/// `penalty = resolution + frontend refill`: [`resolution`] is measured
/// directly, and the refill component equals the configured frontend
/// depth.
///
/// [`resolution`]: MispredictRecord::resolution
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MispredictRecord {
    /// Dynamic index of the mispredicted branch.
    pub branch_idx: usize,
    /// Cycle the branch was fetched.
    pub fetch_cycle: u64,
    /// Cycle the branch dispatched into the window.
    pub dispatch_cycle: u64,
    /// Cycle the branch finished executing; fetch redirects here.
    pub resolve_cycle: u64,
    /// Number of instructions in flight (ROB occupancy, the branch
    /// included) when the branch dispatched — the window-occupancy input
    /// to contributor (ii).
    pub window_occupancy: u32,
}

impl MispredictRecord {
    /// The branch resolution time: dispatch-to-execute, the window-drain
    /// component of the penalty.
    pub fn resolution(&self) -> u64 {
        self.resolve_cycle.saturating_sub(self.dispatch_cycle)
    }

    /// The full penalty under the paper's definition, given the machine's
    /// frontend depth.
    pub fn penalty(&self, frontend_depth: u32) -> u64 {
        self.resolution() + u64::from(frontend_depth)
    }
}

/// Where the machine's dispatch slots went — the lost-slot accounting
/// that complements the interval model's CPI stack.
///
/// Every cycle offers `dispatch_width` slots; each is either used or
/// charged to the resource that blocked it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotAccounting {
    /// Slots that dispatched an instruction.
    pub used: u64,
    /// Slots lost because the frontend had nothing deliverable (fetch
    /// stalled on a miss or redirect, or the pipe is refilling).
    pub frontend_starved: u64,
    /// Slots lost to a full reorder buffer (typically a long D-miss at
    /// the head).
    pub rob_full: u64,
    /// Slots lost to a full issue window (backlog of un-issued work).
    pub window_full: u64,
}

impl SlotAccounting {
    /// Total slots offered.
    pub fn total(&self) -> u64 {
        self.used + self.frontend_starved + self.rob_full + self.window_full
    }

    /// Fraction of slots used (0 when no slots were offered).
    pub fn utilization(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.used as f64 / t as f64
        }
    }
}

/// Why the fetch unit was not delivering, cycle by cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchAccounting {
    /// Cycles fetch waited for a mispredicted branch to resolve.
    pub redirect_wait: u64,
    /// Cycles fetch was stalled on an I-cache miss or a BTB bubble.
    pub stall: u64,
}

/// Per-operation-class issue accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassIssueStats {
    /// Instructions of this class issued.
    pub issued: u64,
    /// Summed dispatch-to-issue wait cycles.
    pub wait_cycles: u64,
}

impl ClassIssueStats {
    /// Mean cycles an instruction of this class waited in the window
    /// before issuing (0 when none issued).
    pub fn mean_wait(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.wait_cycles as f64 / self.issued as f64
        }
    }
}

/// Aggregate outcome of one simulation run.
///
/// Derives `PartialEq` so the compiled/event-driven engine can be checked
/// field-for-field against the reference engine (see
/// `tests/engine_equivalence.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub instructions: u64,
    /// Conditional-branch prediction accounting.
    pub branch_stats: BranchStats,
    /// Cache-hierarchy accounting.
    pub hierarchy: HierarchyStats,
    /// Every miss event, in trace order.
    pub events: Vec<MissEvent>,
    /// One record per branch misprediction, in trace order.
    pub mispredicts: Vec<MispredictRecord>,
    /// Per-cycle dispatch counts, when requested via
    /// [`SimOptions::record_dispatch_timeline`](crate::SimOptions).
    pub dispatch_timeline: Option<Vec<u8>>,
    /// Frontend depth of the simulated machine (echoed so penalty
    /// computations need no separate config handle).
    pub frontend_depth: u32,
    /// Dispatch-slot accounting.
    pub slots: SlotAccounting,
    /// Fetch-blockage accounting.
    pub fetch: FetchAccounting,
    /// Histogram of ROB occupancy sampled once per cycle:
    /// `rob_occupancy[n]` counts cycles with exactly `n` instructions in
    /// flight. Length is `rob_size + 1`.
    pub rob_occupancy: Vec<u64>,
    /// Per-class issue statistics, indexed by
    /// [`OpClass::index`](bmp_uarch::OpClass::index).
    pub class_issue: [ClassIssueStats; 9],
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Mean branch resolution time over all mispredictions, or `None`
    /// when the run had none.
    pub fn mean_resolution(&self) -> Option<f64> {
        if self.mispredicts.is_empty() {
            return None;
        }
        let sum: u64 = self.mispredicts.iter().map(|m| m.resolution()).sum();
        Some(sum as f64 / self.mispredicts.len() as f64)
    }

    /// Mean full misprediction penalty (resolution + frontend refill), or
    /// `None` when the run had none.
    pub fn mean_penalty(&self) -> Option<f64> {
        self.mean_resolution()
            .map(|r| r + f64::from(self.frontend_depth))
    }

    /// Summed branch resolution time over all mispredictions — the exact
    /// integer total the static-bounds envelope brackets (see
    /// `docs/STATIC_ANALYSIS.md`).
    pub fn resolution_total(&self) -> u64 {
        self.mispredicts.iter().map(|m| m.resolution()).sum()
    }

    /// Summed frontend-refill cycles over all mispredictions. Exactly
    /// `mispredicts × frontend_depth` — every redirect refills the full
    /// pipe.
    pub fn refill_total(&self) -> u64 {
        self.mispredicts.len() as u64 * u64::from(self.frontend_depth)
    }

    /// Mean ROB occupancy over all simulated cycles (0 for an empty run).
    pub fn mean_rob_occupancy(&self) -> f64 {
        let cycles: u64 = self.rob_occupancy.iter().sum();
        if cycles == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .rob_occupancy
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        weighted as f64 / cycles as f64
    }

    /// Per-interval cycle accounting derived from the event logs: one
    /// record per miss-event interval of the measured epoch, in index
    /// order (see `docs/OBSERVABILITY.md`). `trace_len` is the length of
    /// the simulated trace.
    ///
    /// The logged events — a misprediction for every [`MispredictRecord`]
    /// and every cache-miss event — sorted by position are cut by
    /// [`segment`] over the measured range, which starts at the warm-up
    /// boundary `trace_len − instructions`. So a misprediction wins over
    /// a coincident cache miss, exactly as in the interval model, and the
    /// branch records match `mispredicts` one to one (the invariant lint
    /// BMP502 checks). Each branch record carries its branch's
    /// `resolution()`, `window_occupancy` and `refill = frontend_depth`.
    /// The trailing instructions after the last event end no interval
    /// and produce no record.
    pub fn interval_records(&self, trace_len: usize) -> Vec<IntervalRecord> {
        let branches = self.mispredicts.iter().map(|m| IntervalEvent {
            pos: m.branch_idx,
            kind: IntervalEventKind::BranchMispredict,
        });
        let misses = self
            .events
            .iter()
            .filter(|e| e.kind != IntervalEventKind::BranchMispredict)
            .map(|e| IntervalEvent {
                pos: e.trace_idx,
                kind: e.kind,
            });
        let mut events: Vec<IntervalEvent> = branches.chain(misses).collect();
        // Out-of-order issue logs D-misses out of trace order; the sort
        // is stable, so coincident cache misses keep their log order.
        events.sort_by_key(|e| e.pos);
        let first = trace_len - self.instructions as usize;
        let mut records: Vec<IntervalRecord> = segment(first..trace_len, &events)
            .iter()
            .filter_map(IntervalRecord::of_interval)
            .collect();
        let branches = records
            .iter_mut()
            .filter(|r| r.kind == IntervalEventKind::BranchMispredict);
        for (record, m) in branches.zip(&self.mispredicts) {
            debug_assert_eq!(record.pos, m.branch_idx as u64, "mispredict out of step");
            record.resolution = m.resolution();
            record.refill = self.frontend_depth;
            record.occupancy = m.window_occupancy;
        }
        records
    }

    /// Fraction of cycles the ROB was completely full.
    pub fn rob_full_fraction(&self) -> f64 {
        let cycles: u64 = self.rob_occupancy.iter().sum();
        if cycles == 0 {
            return 0.0;
        }
        self.rob_occupancy.last().copied().unwrap_or(0) as f64 / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(dispatch: u64, resolve: u64) -> MispredictRecord {
        MispredictRecord {
            branch_idx: 0,
            fetch_cycle: dispatch.saturating_sub(5),
            dispatch_cycle: dispatch,
            resolve_cycle: resolve,
            window_occupancy: 10,
        }
    }

    #[test]
    fn resolution_and_penalty() {
        let r = record(100, 112);
        assert_eq!(r.resolution(), 12);
        assert_eq!(r.penalty(5), 17);
    }

    #[test]
    fn result_rates() {
        let res = SimResult {
            cycles: 500,
            instructions: 1000,
            branch_stats: BranchStats::default(),
            hierarchy: HierarchyStats::default(),
            events: vec![],
            mispredicts: vec![record(10, 20), record(50, 54)],
            dispatch_timeline: None,
            frontend_depth: 5,
            slots: SlotAccounting::default(),
            fetch: FetchAccounting::default(),
            rob_occupancy: vec![0; 129],
            class_issue: [ClassIssueStats::default(); 9],
        };
        assert!((res.ipc() - 2.0).abs() < 1e-12);
        assert!((res.cpi() - 0.5).abs() < 1e-12);
        assert!((res.mean_resolution().unwrap() - 7.0).abs() < 1e-12);
        assert!((res.mean_penalty().unwrap() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_yields_none() {
        let res = SimResult {
            cycles: 0,
            instructions: 0,
            branch_stats: BranchStats::default(),
            hierarchy: HierarchyStats::default(),
            events: vec![],
            mispredicts: vec![],
            dispatch_timeline: None,
            frontend_depth: 5,
            slots: SlotAccounting::default(),
            fetch: FetchAccounting::default(),
            rob_occupancy: vec![],
            class_issue: [ClassIssueStats::default(); 9],
        };
        assert_eq!(res.ipc(), 0.0);
        assert_eq!(res.cpi(), 0.0);
        assert!(res.mean_resolution().is_none());
        assert!(res.mean_penalty().is_none());
    }

    #[test]
    fn occupancy_statistics() {
        let mut res = SimResult {
            cycles: 10,
            instructions: 10,
            branch_stats: BranchStats::default(),
            hierarchy: HierarchyStats::default(),
            events: vec![],
            mispredicts: vec![],
            dispatch_timeline: None,
            frontend_depth: 5,
            slots: SlotAccounting::default(),
            fetch: FetchAccounting::default(),
            rob_occupancy: vec![0; 5],
            class_issue: [ClassIssueStats::default(); 9],
        };
        // 4 cycles at occupancy 0, 4 at 2, 2 at 4 (full).
        res.rob_occupancy[0] = 4;
        res.rob_occupancy[2] = 4;
        res.rob_occupancy[4] = 2;
        assert!((res.mean_rob_occupancy() - 1.6).abs() < 1e-12);
        assert!((res.rob_full_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn class_issue_mean_wait() {
        let s = ClassIssueStats {
            issued: 4,
            wait_cycles: 10,
        };
        assert!((s.mean_wait() - 2.5).abs() < 1e-12);
        assert_eq!(ClassIssueStats::default().mean_wait(), 0.0);
    }

    #[test]
    fn slot_accounting_rates() {
        let s = SlotAccounting {
            used: 50,
            frontend_starved: 30,
            rob_full: 15,
            window_full: 5,
        };
        assert_eq!(s.total(), 100);
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(SlotAccounting::default().utilization(), 0.0);
    }

    /// A result logging `events` and `mispredicts` over a measured epoch
    /// of `instructions`, with a frontend depth of 5.
    fn logged(
        instructions: u64,
        events: &[(usize, IntervalEventKind)],
        mispredicts: &[MispredictRecord],
    ) -> SimResult {
        SimResult {
            cycles: 0,
            instructions,
            branch_stats: BranchStats::default(),
            hierarchy: HierarchyStats::default(),
            events: events
                .iter()
                .map(|&(trace_idx, kind)| MissEvent {
                    trace_idx,
                    cycle: 0,
                    kind,
                })
                .collect(),
            mispredicts: mispredicts.to_vec(),
            dispatch_timeline: None,
            frontend_depth: 5,
            slots: SlotAccounting::default(),
            fetch: FetchAccounting::default(),
            rob_occupancy: vec![],
            class_issue: [ClassIssueStats::default(); 9],
        }
    }

    fn mispredict(branch_idx: usize, resolution: u64, window_occupancy: u32) -> MispredictRecord {
        MispredictRecord {
            branch_idx,
            fetch_cycle: 0,
            dispatch_cycle: 100,
            resolve_cycle: 100 + resolution,
            window_occupancy,
        }
    }

    #[test]
    fn intervals_are_contiguous_and_inclusive() {
        use IntervalEventKind::*;
        let res = logged(
            40,
            &[(9, ICacheMiss), (29, BranchMispredict)],
            &[mispredict(29, 12, 40)],
        );
        let out = res.interval_records(40);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].start, out[0].pos), (0, 9));
        assert_eq!(out[0].kind, ICacheMiss);
        assert_eq!((out[1].start, out[1].pos), (10, 29));
        assert_eq!(out[1].len(), 20);
        assert_eq!(out[1].penalty(), 17);
        assert_eq!(out[1].occupancy, 40);
        // Instructions 30..39 form the trailing partial interval: no record.
    }

    #[test]
    fn mispredict_overrides_coincident_cache_miss() {
        use IntervalEventKind::*;
        let res = logged(
            6,
            &[(5, ICacheMiss), (5, BranchMispredict)],
            &[mispredict(5, 7, 3)],
        );
        let out = res.interval_records(6);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, BranchMispredict);
        assert_eq!(out[0].resolution, 7);
        assert_eq!(out[0].refill, 5);
    }

    #[test]
    fn first_cache_kind_wins_on_coincidence() {
        use IntervalEventKind::*;
        let res = logged(6, &[(5, ICacheMiss), (5, LongDCacheMiss)], &[]);
        let out = res.interval_records(6);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ICacheMiss);
    }

    #[test]
    fn out_of_order_events_resolve_by_commit_order() {
        // OoO issue logs a dlong event for idx 20 before idx 10's event;
        // commits are in order, so records are too.
        use IntervalEventKind::*;
        let res = logged(21, &[(20, LongDCacheMiss), (10, ICacheMiss)], &[]);
        let out = res.interval_records(21);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].start, out[0].pos), (0, 10));
        assert_eq!((out[1].start, out[1].pos), (11, 20));
    }

    #[test]
    fn warmup_rebases_start() {
        // 50 warmup instructions: the measured epoch is 50..70. The
        // branch fetched before the boundary left no event, only its
        // mispredict record.
        let res = logged(20, &[], &[mispredict(60, 9, 8)]);
        let out = res.interval_records(70);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].start, out[0].pos), (50, 60));
        assert_eq!(out[0].kind, IntervalEventKind::BranchMispredict);
    }
}
