//! The analytical window model: dispatch-rate-limited, window-capped
//! data-flow scheduling.
//!
//! Interval analysis models the drain behaviour of the issue window
//! without simulating cycle-by-cycle. An interval's instructions enter the
//! window at the dispatch rate `D` (the steady-state throughput of a
//! balanced design), subject to the window-capacity constraint — op `i`
//! cannot enter before op `i - W` has issued — and then execute in data-
//! flow order with their class latencies. From the resulting schedule the
//! *branch resolution time* (window-entry to execution) is read off
//! directly.
//!
//! This captures the paper's mechanisms in one model:
//!
//! * long intervals fill the window, so instructions accumulate a queueing
//!   lag behind dispatch that saturates near `W / D` (Little's law) — the
//!   interval-length/burstiness contributor (ii);
//! * the lag itself is created by the program's dependence structure —
//!   the inherent-ILP contributor (iii);
//! * latencies scale every chain — contributor (iv);
//! * short D-cache misses locally stretch chains — contributor (v).

use std::ops::Range;

use bmp_trace::{MicroOp, OpView};
use bmp_uarch::{LatencyTable, MachineConfig, OpClass};

/// Scheduling parameters extracted from a machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowParams {
    /// Dispatch width `D`.
    pub dispatch_width: u32,
    /// Window capacity `W`.
    pub window_size: u32,
}

impl From<&MachineConfig> for WindowParams {
    fn from(cfg: &MachineConfig) -> Self {
        Self {
            dispatch_width: cfg.dispatch_width,
            window_size: cfg.window_size,
        }
    }
}

/// The schedule of one interval under the window model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSchedule {
    /// Cycle each op enters the window.
    pub enter: Vec<u64>,
    /// Cycle each op issues (starts executing).
    pub issue: Vec<u64>,
    /// Cycle each op's result becomes available.
    pub done: Vec<u64>,
}

impl IntervalSchedule {
    /// The resolution time of op `i`: window entry to result, the drain
    /// component of a misprediction's penalty when `i` is the mispredicted
    /// branch.
    pub fn resolution(&self, i: usize) -> u64 {
        self.done[i] - self.enter[i]
    }

    /// The interval's total drain time: the last completion.
    pub fn drain_time(&self) -> u64 {
        self.done.iter().copied().max().unwrap_or(0)
    }
}

/// Schedules `ops` (one interval, oldest first) under the window model.
///
/// `load_latency(i)` supplies the latency of the load at interval-relative
/// position `i` (from the functional cache pass); non-loads use `lat`.
/// Dependences whose distance reaches before the interval are treated as
/// ready at cycle 0 — the previous interval has drained past them.
///
/// Set `ignore_deps` to schedule the same ops without dependence
/// constraints (the ILP knock-out of the penalty decomposition).
///
/// # Examples
///
/// ```
/// use bmp_core::drain::{schedule_interval, WindowParams};
/// use bmp_trace::MicroOp;
/// use bmp_uarch::{LatencyTable, OpClass};
///
/// let ops: Vec<_> = (0..8)
///     .map(|i| MicroOp::alu(i * 4, OpClass::IntAlu, [if i > 0 { Some(1) } else { None }, None]))
///     .collect();
/// let params = WindowParams { dispatch_width: 4, window_size: 32 };
/// let s = schedule_interval(&ops, params, &LatencyTable::unit(), |_| None, false);
/// // A serial chain: op 0 enters at 0 and issues at 1 (dispatch-to-issue
/// // takes a cycle), so op 7 completes at cycle 9 having entered at 1.
/// assert_eq!(s.done[7], 9);
/// assert_eq!(s.resolution(7), 8);
/// ```
pub fn schedule_interval<F>(
    ops: &[MicroOp],
    params: WindowParams,
    lat: &LatencyTable,
    mut load_latency: F,
    ignore_deps: bool,
) -> IntervalSchedule
where
    F: FnMut(usize) -> Option<u32>,
{
    let d = u64::from(params.dispatch_width.max(1));
    let w = params.window_size as usize;
    let n = ops.len();
    let mut enter = Vec::with_capacity(n);
    let mut issue = Vec::with_capacity(n);
    let mut done = Vec::with_capacity(n);
    for (i, op) in ops.iter().enumerate() {
        // Dispatch-rate entry: D ops per cycle, starting at cycle 0.
        let mut e = i as u64 / d;
        // Window cap: op i waits for op i-W to have issued.
        if i >= w {
            e = e.max(issue[i - w]);
        }
        // Data-flow constraint. Issue is at least one cycle after entry
        // (dispatch-to-issue latency, matching the simulator's timing).
        let mut start = e + 1;
        if !ignore_deps {
            for dist in op.src_distances() {
                let dist = dist as usize;
                if dist <= i {
                    start = start.max(done[i - dist]);
                }
            }
        }
        let latency = match op.class() {
            OpClass::Load => {
                u64::from(load_latency(i).unwrap_or_else(|| lat.latency(OpClass::Load)))
            }
            c => u64::from(lat.latency(c)),
        }
        .max(1);
        enter.push(e);
        issue.push(start);
        done.push(start + latency);
    }
    IntervalSchedule { enter, issue, done }
}

/// The local knock-out decomposition of one mispredicted-branch
/// interval, as [`knockout_interval`] computes it.
///
/// The four resolution terms are non-negative and sum exactly to
/// `local_resolution`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalTerms {
    /// Branch resolution with the interval scheduled in isolation.
    pub local_resolution: u64,
    /// The resolution floor: dispatch-to-issue plus execution.
    pub base: u64,
    /// Contributor (iii): dependence-chain share.
    pub ilp: u64,
    /// Contributor (iv): functional-unit-latency share.
    pub fu_latency: u64,
    /// Contributor (v): short D-cache-miss share.
    pub short_dmiss: u64,
}

/// Number of schedule lanes [`knockout_interval`] carries: real
/// latencies, loads at L1-hit latency, unit latencies.
const LANES: usize = 3;

/// Per-op state of the fused sweep: issue and completion cycle in each
/// schedule lane.
#[derive(Debug, Clone, Copy, Default)]
struct LaneSlot {
    issue: [u64; LANES],
    done: [u64; LANES],
}

/// Reusable working memory for [`knockout_interval`]: one slot per op,
/// grown to the longest interval seen and never shrunk. Create one per
/// analysis and pass it to every interval.
#[derive(Debug, Clone, Default)]
pub struct KnockoutScratch {
    slots: Vec<LaneSlot>,
}

/// The knock-out decomposition of one interval in a single pass.
///
/// `interval` is the range of `trace` (either layout) holding the
/// interval, oldest first, ending at the mispredicted branch; sources
/// before it are ready at cycle 0. `load_latency(i)` is the functional
/// pass's latency of the load at trace position `i` (`None` falls back
/// to `lat`). The result equals the four-schedule cascade over
/// [`schedule_interval`] — real latencies, loads at `l1_hit`, unit
/// latencies, unit latencies without dependences — with each knocked-out
/// resolution floored by the previous one:
///
/// * the first three schedules run as lanes of one sweep, sharing the
///   dispatch pacing and the dependence lookups;
/// * the fourth is not scheduled at all: without dependences and with
///   unit latencies every op issues one cycle after entry and completes
///   one cycle later, so its resolution is exactly 2 (the base theorem
///   of `docs/STATIC_ANALYSIS.md`).
///
/// [`schedule_interval`] stays the reference definition; the
/// `knockout_exactness` property test holds this kernel to it.
///
/// # Panics
///
/// Panics if `interval` is empty or past the end of `trace`, or if the
/// window size is 0.
///
/// # Examples
///
/// ```
/// use bmp_core::drain::{knockout_interval, KnockoutScratch, WindowParams};
/// use bmp_trace::{BranchKind, MicroOp};
/// use bmp_uarch::LatencyTable;
///
/// // A load feeding a branch; the load missed L1 (14 cycles, hit = 2).
/// let ops = [
///     MicroOp::load(0, 0x100, [None, None]),
///     MicroOp::branch(4, BranchKind::Conditional, true, 0x40, [Some(1), None]),
/// ];
/// let params = WindowParams { dispatch_width: 4, window_size: 64 };
/// let mut scratch = KnockoutScratch::default();
/// let t = knockout_interval(
///     &ops[..], 0..2, params, &LatencyTable::default(), 2, |i| [Some(14), None][i], &mut scratch,
/// );
/// assert_eq!(t.local_resolution, 16);
/// assert_eq!((t.base, t.ilp, t.fu_latency, t.short_dmiss), (2, 1, 1, 12));
/// ```
pub fn knockout_interval<T, F>(
    trace: &T,
    interval: Range<usize>,
    params: WindowParams,
    lat: &LatencyTable,
    l1_hit: u32,
    mut load_latency: F,
    scratch: &mut KnockoutScratch,
) -> LocalTerms
where
    T: OpView + ?Sized,
    F: FnMut(usize) -> Option<u32>,
{
    assert!(!interval.is_empty(), "an interval ends at its branch");
    assert!(
        interval.end <= trace.len(),
        "the interval lies in the trace"
    );
    assert!(params.window_size > 0, "the window holds at least one op");
    let (first, n) = (interval.start, interval.len());
    let d = u64::from(params.dispatch_width.max(1));
    let w = params.window_size as usize;
    let table_load = lat.latency(OpClass::Load);
    let l1_load = u64::from(l1_hit).max(1);
    // Op i lives in slot i + 1. Slot 0 stays all-zero: it stands for
    // every producer before the interval (ready at cycle 0) and for the
    // window cap before W ops have entered, so neither needs a branch.
    // Every other slot is written before it is read, so stale contents
    // from an earlier interval never leak in.
    if scratch.slots.len() <= n {
        scratch.slots.resize(n + 1, LaneSlot::default());
    }
    let slots = &mut scratch.slots[..=n];
    slots[0] = LaneSlot::default();

    // Dispatch pacing, shared by the lanes: `paced` is `i / D`.
    let mut paced = 0u64;
    let mut in_cycle = 0u64;
    let mut enter = [0u64; LANES];
    for i in 0..n {
        let at = first + i;
        // Window cap: op i waits for op i-W to have issued.
        let capped = if i >= w { i + 1 - w } else { 0 };
        enter = slots[capped].issue.map(|issued| issued.max(paced));
        let mut start = enter.map(|e| e + 1);
        // The selects below are written to compile branch-free: whether
        // a source exists and whether an op is a load are data-dependent
        // and mispredict often on the host. A slot with no producer
        // holds `at` or more, so it lands past the interval like a
        // producer before it.
        for p in trace.producers(at) {
            let rel = (p as usize).wrapping_sub(first);
            let producer = if rel < i { rel + 1 } else { 0 };
            for (s, &done) in start.iter_mut().zip(&slots[producer].done) {
                *s = (*s).max(done);
            }
        }
        let class = trace.class(at);
        let table = u64::from(lat.latency(class)).max(1);
        let loaded = u64::from(load_latency(at).unwrap_or(table_load)).max(1);
        let is_load = class == OpClass::Load;
        let real = if is_load { loaded } else { table };
        let l1 = if is_load { l1_load } else { table };
        let slot = &mut slots[i + 1];
        slot.issue = start;
        slot.done = [start[0] + real, start[1] + l1, start[2] + 1];

        in_cycle += 1;
        if in_cycle == d {
            paced += 1;
            in_cycle = 0;
        }
    }

    let branch = &slots[n];
    let [r_local, r_l1, r_unit] = std::array::from_fn(|l| branch.done[l] - enter[l]);
    // The running-floor cascade of the penalty model: knock-outs shrink
    // completions, but the window cap moves entry too, so a knocked-out
    // resolution can (rarely) exceed the fuller one.
    let r_l1 = r_l1.min(r_local);
    let r_unit = r_unit.min(r_l1);
    let r_base = r_unit.min(2);
    LocalTerms {
        local_resolution: r_local,
        base: r_base,
        ilp: r_unit - r_base,
        fu_latency: r_l1 - r_unit,
        short_dmiss: r_local - r_l1,
    }
}

/// Full machine parameters for the whole-trace schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineModel {
    /// Dispatch width `D`.
    pub dispatch_width: u32,
    /// Issue width.
    pub issue_width: u32,
    /// Issue-window capacity `W`.
    pub window_size: u32,
    /// Reorder-buffer capacity.
    pub rob_size: u32,
    /// Frontend pipeline depth `c_fe`.
    pub frontend_depth: u32,
    /// Functional-unit counts in `FU_KINDS` order.
    pub fu_counts: [u8; 5],
}

impl From<&MachineConfig> for MachineModel {
    fn from(cfg: &MachineConfig) -> Self {
        let fu_counts = std::array::from_fn(|i| cfg.fus.count(bmp_uarch::FU_KINDS[i]));
        Self {
            dispatch_width: cfg.dispatch_width,
            issue_width: cfg.issue_width,
            window_size: cfg.window_size,
            rob_size: cfg.rob_size,
            frontend_depth: cfg.frontend_depth,
            fu_counts,
        }
    }
}

/// A frontend disruption injected into the whole-trace schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendEvent {
    /// The op at `pos` is a mispredicted branch: ops after it enter the
    /// window no earlier than `done(pos) + frontend_depth`.
    Mispredict {
        /// Trace index of the branch.
        pos: usize,
    },
    /// Fetch of the op at `pos` stalled `extra` cycles (I-cache miss).
    FetchStall {
        /// Trace index of the stalled op.
        pos: usize,
        /// Extra delivery cycles.
        extra: u32,
    },
}

impl FrontendEvent {
    fn pos(&self) -> usize {
        match *self {
            FrontendEvent::Mispredict { pos } | FrontendEvent::FetchStall { pos, .. } => pos,
        }
    }
}

/// The timing of one op in the whole-trace schedule, as
/// [`schedule_trace`] hands it to its visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Cycle the op enters the window.
    pub enter: u64,
    /// Cycle the op issues.
    pub issue: u64,
    /// Cycle the op's result is available.
    pub done: u64,
}

impl OpTiming {
    /// Resolution time (window entry to result): the drain component of
    /// a misprediction's penalty when the op is the mispredicted branch.
    pub fn resolution(&self) -> u64 {
        self.done - self.enter
    }
}

/// Issue slots booked in one cycle: `[0]` counts the ops issued, `[1 + k]`
/// the busy units of FU kind `k`.
type SlotRow = [u8; 6];

/// Per-cycle issue-slot ledger: total issue width plus per-FU-kind
/// capacity, kept as a ring over the live cycles.
///
/// Cycle `c` lives in row `c & (rows.len() - 1)` while it is in
/// `[base, base + rows.len())`. Cycles below `base` are retired: no
/// booking can land there any more, so their rows are zeroed and reused
/// for the cycles `rows.len()` later. The ring doubles when a booking
/// would reach past its end, so its size follows the in-flight span of
/// the schedule, not the length of the trace.
struct SlotLedger {
    rows: Vec<SlotRow>,
    base: u64,
    limits: SlotRow,
}

impl SlotLedger {
    fn new(issue_width: u32, fu_counts: [u8; 5]) -> Self {
        let mut limits = [issue_width.min(255) as u8; 6];
        limits[1..].copy_from_slice(&fu_counts);
        Self {
            rows: vec![[0; 6]; 256],
            base: 0,
            limits,
        }
    }

    fn row(&mut self, cycle: u64) -> &mut SlotRow {
        let mask = self.rows.len() as u64 - 1;
        &mut self.rows[(cycle & mask) as usize]
    }

    /// Retires every cycle below `cycle`.
    fn retire_below(&mut self, cycle: u64) {
        if cycle <= self.base {
            return;
        }
        if cycle - self.base >= self.rows.len() as u64 {
            self.rows.fill([0; 6]);
        } else {
            for c in self.base..cycle {
                *self.row(c) = [0; 6];
            }
        }
        self.base = cycle;
    }

    /// Doubles the ring until cycle `end - 1` fits, keeping every live
    /// row at its cycle.
    fn grow_to(&mut self, end: u64) {
        let mut len = self.rows.len();
        while self.base + (len as u64) < end {
            len *= 2;
        }
        let mut rows = vec![[0; 6]; len];
        let (old_mask, new_mask) = (self.rows.len() as u64 - 1, len as u64 - 1);
        for c in self.base..self.base + self.rows.len() as u64 {
            rows[(c & new_mask) as usize] = self.rows[(c & old_mask) as usize];
        }
        self.rows = rows;
    }

    /// First cycle `>= start` where an issue slot is free and a unit of
    /// `kind` is free for `occupancy` consecutive cycles; books both.
    /// Pipelined classes use occupancy 1; non-pipelined divides hold
    /// their unit for the full latency, exactly as the simulator does.
    fn allocate(&mut self, start: u64, kind: usize, occupancy: u64) -> u64 {
        debug_assert!(start >= self.base, "booking below a retired cycle");
        let occ = occupancy.max(1);
        let k = kind + 1;
        let mut t = start;
        if occ == 1 && t < self.base + self.rows.len() as u64 {
            // Pipelined fast path: one row holds both checks.
            let limits = self.limits;
            let row = self.row(t);
            if row[0] < limits[0] && row[k] < limits[k] {
                row[0] += 1;
                row[k] += 1;
                return t;
            }
        }
        loop {
            if t + occ > self.base + self.rows.len() as u64 {
                self.grow_to(t + occ);
            }
            if self.row(t)[0] >= self.limits[0] {
                t += 1;
                continue;
            }
            let limit = self.limits[k];
            if let Some(busy) = (t..t + occ).find(|&c| self.row(c)[k] >= limit) {
                t = busy + 1;
                continue;
            }
            self.row(t)[0] += 1;
            for c in t..t + occ {
                self.row(c)[k] += 1;
            }
            return t;
        }
    }
}

/// Schedules the whole trace, in either layout, under the interval model
/// — "interval simulation": every interval-analysis mechanism applied
/// across the full instruction stream, so cross-interval state (a window
/// still full from before a miss event, chains reaching across events)
/// is captured.
///
/// Mechanisms applied, in the spirit of the paper's framework:
///
/// * **dispatch-rate entry** — `D` ops per cycle;
/// * **frontend events** — mispredictions restart entry at
///   `done(branch) + c_fe`; I-cache misses add their delivery stall;
/// * **window and ROB caps** — op `i` waits for op `i − W` to issue and
///   op `i − R` to complete (the long-miss ROB-fill mechanism);
/// * **issue bandwidth** — at most `issue_width` ops per cycle, with
///   per-FU-kind capacity, allocated oldest-first;
/// * **data-flow dependences** with class latencies, loads resolved by
///   `load_latency` (pass the functional pass's per-load latencies; it
///   is asked once per op, in order, and read for loads only); a source
///   reaching before the trace is ready.
///
/// `visit(i, timing)` is called for every op, in trace order; callers
/// keep only what they read. The schedule itself holds no per-op arrays:
/// op timings live in a ring as long as the window or the ROB, whichever
/// is larger, and the slot ledger in a ring over the in-flight cycles.
///
/// `events` must be sorted by position.
///
/// # Panics
///
/// Panics if `events` is not sorted by position, or if the window or
/// ROB size is 0.
///
/// # Examples
///
/// ```
/// use bmp_core::drain::{schedule_trace, MachineModel};
/// use bmp_trace::MicroOp;
/// use bmp_uarch::{presets, LatencyTable, OpClass};
///
/// // Eight independent ALU ops on a 4-wide machine: two dispatch cycles.
/// let ops: Vec<_> = (0..8).map(|i| MicroOp::alu(i * 4, OpClass::IntAlu, [None, None])).collect();
/// let model = MachineModel::from(&presets::baseline_4wide());
/// let mut last = 0;
/// schedule_trace(&ops[..], model, &LatencyTable::unit(), |_| None, &[], |_, t| {
///     last = last.max(t.done);
/// });
/// assert_eq!(last, 3);
/// ```
pub fn schedule_trace<T, F, V>(
    ops: &T,
    model: MachineModel,
    lat: &LatencyTable,
    mut load_latency: F,
    events: &[FrontendEvent],
    mut visit: V,
) where
    T: OpView + ?Sized,
    F: FnMut(usize) -> Option<u32>,
    V: FnMut(usize, OpTiming),
{
    assert!(
        events.windows(2).all(|w| w[0].pos() <= w[1].pos()),
        "frontend events must be sorted by position"
    );
    assert!(
        model.window_size > 0 && model.rob_size > 0,
        "the window and the ROB hold at least one op"
    );
    let d = u64::from(model.dispatch_width.max(1));
    let w = model.window_size as usize;
    let r = model.rob_size as usize;
    let fe = u64::from(model.frontend_depth);

    // Issue and completion of the last `timings.len()` ops, op `j` in
    // slot `j & mask`; slots not yet written hold zeros and stand for
    // ops before the trace. The window and ROB caps look back W and R
    // ops. Sources need no further: entry is in order and op `k + R`
    // entered no earlier than op `k` completed, so a source R or more
    // ops back is complete before its consumer enters and never binds.
    let mut timings = vec![(0u64, 0u64); (w.max(r) + 1).next_power_of_two()];
    let mask = timings.len() - 1;
    let mut slots = SlotLedger::new(model.issue_width, model.fu_counts);
    // Per class: FU kind, table latency, and whether the unit pipelines.
    let per_class = bmp_uarch::OP_CLASSES.map(|class| {
        let pipelined = !matches!(class, OpClass::IntDiv | OpClass::FpDiv);
        (
            class.fu_kind().index(),
            u64::from(lat.latency(class)).max(1),
            pipelined,
        )
    });
    let table_load = lat.latency(OpClass::Load);

    // Entry cursor: `cursor` is the cycle the next op would enter;
    // `count` how many already entered that cycle.
    let mut cursor = 0u64;
    let mut count = 0u64;
    let mut next_event = 0usize;
    // Barrier waiting for a mispredicted branch to resolve: set when the
    // branch is scheduled, consumed before the next op enters.
    let mut pending_barrier: Option<u64> = None;

    for i in 0..ops.len() {
        // Frontend events at this op.
        let mut mispredict_here = false;
        while next_event < events.len() && events[next_event].pos() == i {
            match events[next_event] {
                FrontendEvent::FetchStall { extra, .. } => {
                    cursor += u64::from(extra);
                    count = 0;
                }
                FrontendEvent::Mispredict { .. } => mispredict_here = true,
            }
            next_event += 1;
        }
        if let Some(b) = pending_barrier.take() {
            if b > cursor {
                cursor = b;
                count = 0;
            }
        }
        // Window / ROB capacity: op i waits for op i − W to issue and
        // op i − R to complete.
        let floor = cursor
            .max(timings[i.wrapping_sub(w) & mask].0)
            .max(timings[i.wrapping_sub(r) & mask].1);
        if floor > cursor {
            cursor = floor;
            count = 0;
        }
        let e = cursor;
        count += 1;
        if count >= d {
            cursor += 1;
            count = 0;
        }
        // Entry never moves backwards and every booking lands after it,
        // so the cycles up to this op's entry are dead.
        slots.retire_below(e + 1);

        // Data-flow start: at least one cycle after entry (dispatch-to-
        // issue latency, matching the simulator's timing). A source
        // before the trace, or R or more ops back, is ready, and so is an
        // empty slot (its value is `i` or more, so `i − p − 1` wraps past
        // R). The ring read is in bounds either way, so the choice is a
        // select, not a branch.
        let mut start = e + 1;
        for p in ops.producers(i) {
            let p = p as usize;
            let ready = timings[p & mask].1;
            let binds = i.wrapping_sub(p).wrapping_sub(1) < r - 1;
            start = start.max(if binds { ready } else { 0 });
        }
        // Issue-slot allocation; divides occupy their unit for the full
        // latency (non-pipelined), everything else for one cycle.
        let class = ops.class(i);
        let (kind, table, pipelined) = per_class[class.index()];
        let loaded = u64::from(load_latency(i).unwrap_or(table_load)).max(1);
        let latency = if class == OpClass::Load {
            loaded
        } else {
            table
        };
        let occupancy = if pipelined { 1 } else { latency };
        let s = slots.allocate(start, kind, occupancy);
        let done = s + latency;
        timings[i & mask] = (s, done);
        visit(
            i,
            OpTiming {
                enter: e,
                issue: s,
                done,
            },
        );

        // A misprediction at this op gates the next op's entry.
        if mispredict_here {
            pending_barrier = Some(done + fe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(d: u32, w: u32) -> WindowParams {
        WindowParams {
            dispatch_width: d,
            window_size: w,
        }
    }

    fn chain(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| {
                MicroOp::alu(
                    i as u64 * 4,
                    OpClass::IntAlu,
                    [if i > 0 { Some(1) } else { None }, None],
                )
            })
            .collect()
    }

    fn independent(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp::alu(i as u64 * 4, OpClass::IntAlu, [None, None]))
            .collect()
    }

    #[test]
    fn independent_ops_track_dispatch_rate() {
        let ops = independent(16);
        let s = schedule_interval(&ops, params(4, 64), &LatencyTable::unit(), |_| None, false);
        for i in 0..16 {
            assert_eq!(s.enter[i], i as u64 / 4);
            assert_eq!(
                s.resolution(i),
                2,
                "dispatch-to-issue plus execution when ILP is unbounded"
            );
        }
        assert_eq!(s.drain_time(), 5);
    }

    #[test]
    fn serial_chain_lag_grows_until_window_cap() {
        // ILP 1 against dispatch 4: the lag grows ~3 cycles per 4 ops
        // until the window constraint throttles entry.
        let ops = chain(256);
        let w = 32;
        let s = schedule_interval(&ops, params(4, w), &LatencyTable::unit(), |_| None, false);
        // Late in the interval the resolution saturates near W (the op
        // waits for the full window ahead of it to drain at 1/cycle).
        let late = s.resolution(255);
        assert!(
            (w as u64 - 4..=w as u64 + 5).contains(&late),
            "saturated resolution {late} should be near the window size {w}"
        );
        // Early ops have small resolution (ramp-up).
        assert!(s.resolution(4) < 8);
        // Monotone-ish growth from early to late.
        assert!(s.resolution(200) > s.resolution(10));
    }

    #[test]
    fn resolution_scales_with_latency() {
        let ops = chain(64);
        let unit = schedule_interval(&ops, params(4, 64), &LatencyTable::unit(), |_| None, false);
        let mut lat3 = [1u32; 9];
        lat3[bmp_uarch::OpClass::IntAlu.index()] = 3;
        let table = LatencyTable::new(lat3).unwrap();
        let slow = schedule_interval(&ops, params(4, 64), &table, |_| None, false);
        assert!(
            slow.resolution(63) > unit.resolution(63) * 2,
            "3x latency should ~3x the chain drain: {} vs {}",
            slow.resolution(63),
            unit.resolution(63)
        );
    }

    #[test]
    fn load_latencies_are_injected() {
        // op1 is a load feeding op2.
        let ops = vec![
            MicroOp::alu(0, OpClass::IntAlu, [None, None]),
            MicroOp::load(4, 0x100, [Some(1), None]),
            MicroOp::alu(8, OpClass::IntAlu, [Some(1), None]),
        ];
        let fast = schedule_interval(
            &ops,
            params(4, 64),
            &LatencyTable::unit(),
            |_| Some(2),
            false,
        );
        let slow = schedule_interval(
            &ops,
            params(4, 64),
            &LatencyTable::unit(),
            |_| Some(14),
            false,
        );
        assert_eq!(slow.done[2] - fast.done[2], 12, "short-miss inflation");
    }

    #[test]
    fn ignore_deps_knocks_out_chains() {
        let ops = chain(64);
        let s = schedule_interval(&ops, params(4, 64), &LatencyTable::unit(), |_| None, true);
        for i in 0..64 {
            assert_eq!(s.resolution(i), 2);
        }
    }

    #[test]
    fn out_of_interval_dependences_are_ready() {
        // distance 5 at position 0 reaches before the interval.
        let ops = vec![MicroOp::alu(0, OpClass::IntAlu, [Some(5), None])];
        let s = schedule_interval(&ops, params(4, 64), &LatencyTable::unit(), |_| None, false);
        assert_eq!(s.done[0], 2, "enter 0, issue 1, done 2");
    }

    #[test]
    fn empty_interval_is_fine() {
        let s = schedule_interval(&[], params(4, 64), &LatencyTable::unit(), |_| None, false);
        assert_eq!(s.drain_time(), 0);
    }

    #[test]
    fn window_params_from_config() {
        let cfg = bmp_uarch::presets::baseline_4wide();
        let p = WindowParams::from(&cfg);
        assert_eq!(p.dispatch_width, 4);
        assert_eq!(p.window_size, 64);
    }

    fn model4() -> MachineModel {
        MachineModel::from(&bmp_uarch::presets::baseline_4wide())
    }

    /// Every op's timing on the baseline 4-wide machine.
    fn schedule<F>(
        ops: &[MicroOp],
        lat: &LatencyTable,
        load_latency: F,
        events: &[FrontendEvent],
    ) -> Vec<OpTiming>
    where
        F: FnMut(usize) -> Option<u32>,
    {
        let mut timings = Vec::with_capacity(ops.len());
        schedule_trace(ops, model4(), lat, load_latency, events, |i, t| {
            assert_eq!(i, timings.len(), "ops are visited in order");
            timings.push(t);
        });
        timings
    }

    fn total_cycles(timings: &[OpTiming]) -> u64 {
        timings.iter().map(|t| t.done).max().unwrap_or(0)
    }

    #[test]
    fn trace_schedule_ideal_code_runs_at_width() {
        // 4 independent streams of int ALU ops (4 units, width 4).
        let ops: Vec<MicroOp> = (0..4000)
            .map(|i| {
                MicroOp::alu(
                    i as u64 * 4,
                    OpClass::IntAlu,
                    [if i >= 4 { Some(4) } else { None }, None],
                )
            })
            .collect();
        let s = schedule(&ops, &LatencyTable::default(), |_| None, &[]);
        let cycles = total_cycles(&s);
        assert!(
            (1000..=1020).contains(&cycles),
            "4000 ops at width 4 should take ~1000 cycles, got {cycles}"
        );
    }

    #[test]
    fn issue_width_caps_ready_bursts() {
        // All ops independent and ready at once — the issue ledger must
        // spread them at 4/cycle even though dependences allow 1 cycle.
        let ops = independent(64);
        let s = schedule(&ops, &LatencyTable::unit(), |_| None, &[]);
        // op 63 enters at cycle 15 and issues the cycle after.
        assert_eq!(s[63].issue, 16);
        // Force them ready early by ignoring entry pacing is not
        // possible; instead check no cycle got more than 4 issues.
        let mut per_cycle = std::collections::HashMap::new();
        for t in &s {
            *per_cycle.entry(t.issue).or_insert(0u32) += 1;
        }
        assert!(per_cycle.values().all(|&c| c <= 4));
    }

    #[test]
    fn fu_capacity_binds_below_issue_width() {
        // Only 1 int mul/div unit: a burst of multiplies issues 1/cycle.
        let ops: Vec<MicroOp> = (0..16)
            .map(|i| MicroOp::alu(i as u64 * 4, OpClass::IntMul, [None, None]))
            .collect();
        let s = schedule(&ops, &LatencyTable::unit(), |_| None, &[]);
        let mut per_cycle = std::collections::HashMap::new();
        for t in &s {
            *per_cycle.entry(t.issue).or_insert(0u32) += 1;
        }
        assert!(
            per_cycle.values().all(|&c| c <= 1),
            "one mul unit allows one multiply per cycle"
        );
    }

    #[test]
    fn mispredict_barrier_delays_following_ops() {
        let ops = independent(32);
        let events = [FrontendEvent::Mispredict { pos: 7 }];
        let s = schedule(&ops, &LatencyTable::unit(), |_| None, &events);
        // done(7) = enter(7)+2 = 3; barrier = 3 + 5 = 8.
        assert_eq!(s[8].enter, s[7].done + 5);
        // Ops before the barrier are unaffected.
        assert_eq!(s[7].enter, 1);
    }

    #[test]
    fn fetch_stall_shifts_entry() {
        let ops = independent(16);
        let events = [FrontendEvent::FetchStall { pos: 4, extra: 10 }];
        let s = schedule(&ops, &LatencyTable::unit(), |_| None, &events);
        assert_eq!(s[3].enter, 0);
        assert_eq!(s[4].enter, 11, "1 cycle of pacing + 10 stall");
    }

    #[test]
    fn rob_cap_blocks_behind_long_miss() {
        // A long-miss load followed by >R independent ops: entry of op
        // load+R waits for the load's completion.
        let mut ops = vec![MicroOp::load(0, 0x100, [None, None])];
        ops.extend(independent(200));
        let s = schedule(
            &ops,
            &LatencyTable::unit(),
            |i| if i == 0 { Some(200) } else { None },
            &[],
        );
        let r = 128;
        assert!(
            s[r].enter >= 200,
            "op R after the load must wait for ROB space: entered {}",
            s[r].enter
        );
        assert!(s[r - 1].enter < 200, "ops within ROB reach proceed");
    }

    #[test]
    fn coincident_stall_and_mispredict_apply_both() {
        let ops = independent(16);
        let events = [
            FrontendEvent::FetchStall { pos: 3, extra: 5 },
            FrontendEvent::Mispredict { pos: 3 },
        ];
        let s = schedule(&ops, &LatencyTable::unit(), |_| None, &events);
        // Stall delays op 3 itself; the mispredict barrier gates op 4.
        assert!(s[3].enter >= 5);
        assert_eq!(s[4].enter, s[3].done + 5);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_events_panic() {
        let ops = independent(4);
        let events = [
            FrontendEvent::Mispredict { pos: 3 },
            FrontendEvent::Mispredict { pos: 1 },
        ];
        let _ = schedule(&ops, &LatencyTable::unit(), |_| None, &events);
    }

    #[test]
    fn empty_trace_schedule() {
        let s = schedule(&[], &LatencyTable::unit(), |_| None, &[]);
        assert_eq!(total_cycles(&s), 0);
    }
}
