//! The reference cycle loop: the original, straightforward engine.
//!
//! This is the pre-optimization simulator kept verbatim as the ground
//! truth for the event-driven engine in [`crate::engine`]: it scans the
//! whole ROB every cycle for issue, ticks one cycle at a time, and reads
//! ops straight out of the AoS [`Trace`]. It is slow and obviously
//! correct — exactly what an equivalence baseline should be.
//!
//! `Simulator::try_run_reference` runs it; the experiment harness
//! routes a whole context through it with `EngineChoice::Reference`,
//! which lets the tests replay every experiment on both engines and
//! compare the CSVs.
//!
//! Per-cycle stage order is commit → issue → dispatch → fetch, which gives
//! the conventional timing: an instruction dispatched in cycle `c` can
//! issue at `c + 1` at the earliest, a producer issued at `c` with latency
//! `L` wakes its consumers for issue at `c + L`, and a mispredicted branch
//! issued at `c` (1-cycle branch execution) redirects fetch at `c + 1`.

use bmp_branch::{
    build_predictor, BranchStats, Btb, DirectionPredictor, IndirectPredictor, ReturnAddressStack,
};
use bmp_cache::{DataOutcome, MemoryHierarchy};
use bmp_core::intervals::IntervalEventKind;
use bmp_trace::{BranchKind, MicroOp, Trace};
use bmp_uarch::{FuKind, MachineConfig, OpClass, FU_KINDS};
use std::collections::VecDeque;

use crate::error::{BudgetForensics, SimError};
use crate::options::SimOptions;
use crate::result::{
    ClassIssueStats, FetchAccounting, MispredictRecord, MissEvent, SimResult, SlotAccounting,
};

/// Sentinel for "not yet executed".
const NOT_DONE: u64 = u64::MAX;

/// Runs the reference engine over `trace`.
pub(crate) fn run(
    cfg: &MachineConfig,
    opts: SimOptions,
    trace: &Trace,
) -> Result<SimResult, SimError> {
    Engine::new(cfg, opts, trace).run()
}

struct RobSlot {
    idx: usize,
    issued: bool,
    dispatch_cycle: u64,
}

/// Per-misprediction bookkeeping while the branch is in flight.
struct PendingMiss {
    branch_idx: usize,
    fetch_cycle: u64,
    dispatch_cycle: u64,
    window_occupancy: u32,
    dispatched: bool,
}

struct Engine<'a> {
    cfg: &'a MachineConfig,
    opts: SimOptions,
    ops: &'a [MicroOp],

    cycle: u64,
    committed: u64,

    // Completion time per trace index (NOT_DONE until executed).
    done: Vec<u64>,

    // Frontend.
    fetch_idx: usize,
    fetch_stall_until: u64,
    blocked_on: Option<usize>,
    current_fetch_line: u64,
    frontend_q: VecDeque<(usize, u64)>,
    frontend_cap: usize,

    // Backend.
    rob: VecDeque<RobSlot>,
    unissued: u32,
    fu_busy: [Vec<u64>; 5],

    // Helpers.
    predictor: Box<dyn DirectionPredictor>,
    btb: Btb,
    indirect: IndirectPredictor,
    ras: ReturnAddressStack,
    mem: MemoryHierarchy,

    // Measurements.
    branch_stats: BranchStats,
    events: Vec<MissEvent>,
    mispredicts: Vec<MispredictRecord>,
    pending: Option<PendingMiss>,
    timeline: Option<Vec<u8>>,
    line_mask: u64,
    slots: SlotAccounting,
    fetch_acct: FetchAccounting,
    rob_occupancy: Vec<u64>,
    class_issue: [ClassIssueStats; 9],
    /// Set once the warmup boundary has been crossed (or immediately when
    /// no warmup is configured).
    warmed: bool,
    stats_start_cycle: u64,
    stats_start_committed: u64,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a MachineConfig, opts: SimOptions, trace: &'a Trace) -> Self {
        let fu_busy = std::array::from_fn(|i| vec![0u64; usize::from(cfg.fus.count(FU_KINDS[i]))]);
        Self {
            cfg,
            opts,
            ops: trace.ops(),
            cycle: 0,
            committed: 0,
            done: vec![NOT_DONE; trace.len()],
            fetch_idx: 0,
            fetch_stall_until: 0,
            blocked_on: None,
            current_fetch_line: u64::MAX,
            frontend_q: VecDeque::new(),
            frontend_cap: (cfg.frontend_depth as usize * cfg.dispatch_width as usize)
                .max(cfg.fetch_width as usize),
            rob: VecDeque::with_capacity(cfg.rob_size as usize),
            unissued: 0,
            fu_busy,
            predictor: build_predictor(&cfg.predictor),
            btb: Btb::new(cfg.btb_entries),
            indirect: IndirectPredictor::build(&cfg.indirect_predictor),
            ras: ReturnAddressStack::new(cfg.ras_entries),
            mem: MemoryHierarchy::new(&cfg.caches),
            branch_stats: BranchStats::new(),
            events: Vec::new(),
            mispredicts: Vec::new(),
            pending: None,
            timeline: opts.record_dispatch_timeline.then(Vec::new),
            line_mask: !u64::from(cfg.caches.l1i().line_bytes() - 1),
            slots: SlotAccounting::default(),
            fetch_acct: FetchAccounting::default(),
            rob_occupancy: vec![0; cfg.rob_size as usize + 1],
            class_issue: [ClassIssueStats::default(); 9],
            warmed: opts.warmup_ops == 0,
            stats_start_cycle: 0,
            stats_start_committed: 0,
        }
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        let n = self.ops.len() as u64;
        let budget = self.opts.cycle_budget(n);
        while self.committed < n && self.cycle < budget {
            self.commit();
            if !self.warmed && self.committed >= self.opts.warmup_ops {
                self.reset_statistics();
            }
            self.issue();
            let dispatched = self.dispatch();
            self.fetch();
            self.rob_occupancy[self.rob.len()] += 1;
            if let Some(t) = &mut self.timeline {
                t.push(dispatched);
            }
            self.cycle += 1;
        }
        if self.committed < n {
            // Watchdog fired. The forensic snapshot must be bit-identical
            // to the event-driven engine's at the same budget — it is
            // part of the equivalence contract.
            return Err(SimError::BudgetExceeded(BudgetForensics {
                budget,
                cycle: self.cycle,
                committed: self.committed,
                trace_ops: n,
                fetched: self.fetch_idx as u64,
                window_occupancy: self.rob.len() as u32,
            }));
        }
        // Accounting conservation, mirrored by lint BMP203: every offered
        // dispatch slot is attributed to exactly one cause, and the ROB
        // histogram samples every measured cycle.
        let cycles = self.cycle - self.stats_start_cycle;
        debug_assert_eq!(
            self.slots.total(),
            cycles * u64::from(self.cfg.dispatch_width),
            "dispatch-slot accounting leaked slots (BMP203)"
        );
        debug_assert_eq!(
            self.rob_occupancy.iter().sum::<u64>(),
            cycles,
            "ROB-occupancy histogram missed cycles (BMP203)"
        );
        Ok(SimResult {
            cycles: self.cycle - self.stats_start_cycle,
            instructions: self.committed - self.stats_start_committed,
            branch_stats: self.branch_stats,
            hierarchy: self.mem.stats(),
            events: self.events,
            mispredicts: self.mispredicts,
            dispatch_timeline: self.timeline,
            frontend_depth: self.cfg.frontend_depth,
            slots: self.slots,
            fetch: self.fetch_acct,
            rob_occupancy: self.rob_occupancy,
            class_issue: self.class_issue,
        })
    }

    /// Crosses the warmup boundary: zero every statistic while keeping
    /// all machine state (caches, predictor, BTB, RAS, ROB contents).
    fn reset_statistics(&mut self) {
        self.warmed = true;
        self.stats_start_cycle = self.cycle;
        self.stats_start_committed = self.committed;
        self.branch_stats.reset();
        self.mem.reset_stats();
        self.events.clear();
        self.mispredicts.clear();
        self.slots = SlotAccounting::default();
        self.fetch_acct = FetchAccounting::default();
        self.rob_occupancy.iter_mut().for_each(|c| *c = 0);
        self.class_issue = [ClassIssueStats::default(); 9];
        if let Some(t) = &mut self.timeline {
            t.clear();
        }
    }

    fn commit(&mut self) {
        let mut budget = self.cfg.commit_width;
        while budget > 0 {
            match self.rob.front() {
                Some(slot) if self.done[slot.idx] <= self.cycle => {
                    self.rob.pop_front();
                    self.committed += 1;
                    budget -= 1;
                }
                _ => break,
            }
        }
    }

    fn sources_ready(&self, idx: usize) -> bool {
        for d in self.ops[idx].src_distances() {
            let d = d as usize;
            if d <= idx && self.done[idx - d] > self.cycle {
                return false;
            }
        }
        true
    }

    /// Finds a free unit of `kind` and occupies it for `occupancy`
    /// cycles. Returns `false` when every unit is busy this cycle.
    fn take_fu(&mut self, kind: FuKind, occupancy: u64) -> bool {
        let units = &mut self.fu_busy[kind.index()];
        for busy_until in units.iter_mut() {
            if *busy_until <= self.cycle {
                *busy_until = self.cycle + occupancy;
                return true;
            }
        }
        false
    }

    fn issue(&mut self) {
        let mut budget = self.cfg.issue_width;
        // Oldest-first select over the un-issued window.
        for slot_pos in 0..self.rob.len() {
            if budget == 0 {
                break;
            }
            let (idx, issued, dispatch_cycle) = {
                let s = &self.rob[slot_pos];
                (s.idx, s.issued, s.dispatch_cycle)
            };
            if issued || !self.sources_ready(idx) {
                continue;
            }
            let class = self.ops[idx].class();
            let kind = class.fu_kind();
            // Divides hold their unit for the full latency; everything
            // else is pipelined (one issue per unit per cycle).
            let base_lat = u64::from(self.cfg.latencies.latency(class));
            let occupancy = match class {
                OpClass::IntDiv | OpClass::FpDiv => base_lat,
                _ => 1,
            };
            if !self.take_fu(kind, occupancy) {
                continue;
            }
            let latency = match class {
                OpClass::Load => {
                    let addr = self.ops[idx].mem_addr().expect("loads carry addresses");
                    let access = self.mem.data_access_at(self.ops[idx].pc(), addr);
                    if access.outcome == DataOutcome::LongMiss {
                        self.events.push(MissEvent {
                            trace_idx: idx,
                            cycle: self.cycle,
                            kind: IntervalEventKind::LongDCacheMiss,
                        });
                    }
                    u64::from(access.latency)
                }
                OpClass::Store => {
                    // Stores retire through a write buffer: the cache sees
                    // the access (write-allocate) but the pipeline is not
                    // held up by the miss.
                    let addr = self.ops[idx].mem_addr().expect("stores carry addresses");
                    let _ = self.mem.data_access_at(self.ops[idx].pc(), addr);
                    base_lat
                }
                _ => base_lat,
            };
            self.done[idx] = self.cycle + latency;
            self.rob[slot_pos].issued = true;
            self.unissued -= 1;
            budget -= 1;
            let cs = &mut self.class_issue[class.index()];
            cs.issued += 1;
            cs.wait_cycles += self.cycle - dispatch_cycle;
            // A mispredicted branch redirects fetch when it resolves.
            if self.blocked_on == Some(idx) {
                self.blocked_on = None;
                self.fetch_stall_until = self.fetch_stall_until.max(self.done[idx]);
                let pending = self
                    .pending
                    .take()
                    .expect("pending record for blocked branch");
                debug_assert!(pending.dispatched);
                self.mispredicts.push(MispredictRecord {
                    branch_idx: idx,
                    fetch_cycle: pending.fetch_cycle,
                    dispatch_cycle: pending.dispatch_cycle,
                    resolve_cycle: self.done[idx],
                    window_occupancy: pending.window_occupancy,
                });
            }
        }
    }

    fn dispatch(&mut self) -> u8 {
        let mut dispatched = 0u8;
        while u32::from(dispatched) < self.cfg.dispatch_width {
            if self.rob.len() >= self.cfg.rob_size as usize {
                self.slots.rob_full += u64::from(self.cfg.dispatch_width) - u64::from(dispatched);
                break;
            }
            if self.unissued >= self.cfg.window_size {
                self.slots.window_full +=
                    u64::from(self.cfg.dispatch_width) - u64::from(dispatched);
                break;
            }
            let front = self.frontend_q.front().copied();
            let Some((idx, ready)) = front else {
                self.slots.frontend_starved +=
                    u64::from(self.cfg.dispatch_width) - u64::from(dispatched);
                break;
            };
            if ready > self.cycle {
                self.slots.frontend_starved +=
                    u64::from(self.cfg.dispatch_width) - u64::from(dispatched);
                break;
            }
            self.frontend_q.pop_front();
            self.rob.push_back(RobSlot {
                idx,
                issued: false,
                dispatch_cycle: self.cycle,
            });
            self.unissued += 1;
            dispatched += 1;
            self.slots.used += 1;
            if let Some(p) = &mut self.pending {
                if p.branch_idx == idx {
                    p.dispatched = true;
                    p.dispatch_cycle = self.cycle;
                    p.window_occupancy = self.rob.len() as u32;
                }
            }
        }
        dispatched
    }

    fn fetch(&mut self) {
        if self.blocked_on.is_some() {
            self.fetch_acct.redirect_wait += 1;
            return;
        }
        if self.cycle < self.fetch_stall_until {
            self.fetch_acct.stall += 1;
            return;
        }
        let mut budget = self.cfg.effective_fetch_width();
        while budget > 0
            && self.fetch_idx < self.ops.len()
            && self.frontend_q.len() < self.frontend_cap
        {
            let idx = self.fetch_idx;
            let op = &self.ops[idx];
            let line = op.pc() & self.line_mask;
            if line != self.current_fetch_line {
                let access = self.mem.fetch_access(op.pc());
                self.current_fetch_line = line;
                if access.l1i_miss {
                    let extra = u64::from(access.latency - self.cfg.caches.l1i().hit_latency());
                    self.fetch_stall_until = self.cycle + 1 + extra;
                    self.events.push(MissEvent {
                        trace_idx: idx,
                        cycle: self.cycle,
                        kind: if access.long_miss {
                            IntervalEventKind::ICacheLongMiss
                        } else {
                            IntervalEventKind::ICacheMiss
                        },
                    });
                    // The line arrives after the stall; the op is fetched
                    // on a later cycle.
                    return;
                }
            }
            // The op is fetched this cycle.
            self.frontend_q
                .push_back((idx, self.cycle + u64::from(self.cfg.frontend_depth)));
            self.fetch_idx += 1;
            budget -= 1;
            if let Some(info) = op.branch_info() {
                let mispredicted = self.handle_branch(idx, op.pc(), info);
                if mispredicted {
                    self.blocked_on = Some(idx);
                    self.pending = Some(PendingMiss {
                        branch_idx: idx,
                        fetch_cycle: self.cycle,
                        dispatch_cycle: 0,
                        window_occupancy: 0,
                        dispatched: false,
                    });
                    self.events.push(MissEvent {
                        trace_idx: idx,
                        cycle: self.cycle,
                        kind: IntervalEventKind::BranchMispredict,
                    });
                    return;
                }
                if info.taken {
                    // Redirect through the BTB/RAS: the fetch group ends.
                    return;
                }
            }
        }
    }

    /// Runs the frontend's prediction machinery for a fetched branch.
    /// Returns `true` when the branch is mispredicted (direction or
    /// return target).
    fn handle_branch(&mut self, _idx: usize, pc: u64, info: bmp_trace::BranchInfo) -> bool {
        match info.kind {
            BranchKind::Conditional => {
                let pred = self.predictor.predict(pc, info.taken);
                self.branch_stats.record(pred, info.taken);
                self.predictor.update(pc, info.taken);
                if pred != info.taken {
                    return true;
                }
                if info.taken {
                    self.btb_redirect(pc, info.target);
                }
                false
            }
            BranchKind::Jump => {
                self.btb_redirect(pc, info.target);
                false
            }
            BranchKind::Call => {
                self.ras.push(pc.wrapping_add(4));
                self.btb_redirect(pc, info.target);
                false
            }
            BranchKind::Return => {
                match self.ras.pop() {
                    Some(t) if t == info.target => false,
                    // Empty or stale RAS: the frontend follows a wrong
                    // target, which is a full misprediction.
                    _ => true,
                }
            }
            BranchKind::IndirectJump => {
                // The frontend follows the indirect-target predictor
                // (BTB last-target by default, gtarget when configured);
                // anything but the actual target is a full misprediction.
                let btb_target = self.btb.lookup(pc);
                let predicted = self.indirect.predict(pc, btb_target);
                self.indirect.update(pc, info.target);
                self.btb.update(pc, info.target);
                !matches!(predicted, Some(t) if t == info.target)
            }
        }
    }

    /// Models the BTB on a taken control transfer: a miss costs one fetch
    /// bubble while decode computes the target; the entry is installed
    /// either way.
    fn btb_redirect(&mut self, pc: u64, target: u64) {
        if self.btb.lookup(pc).is_none() {
            self.fetch_stall_until = self.cycle + 2;
        }
        self.btb.update(pc, target);
    }
}
