//! The event-driven cycle loop.
//!
//! Per-cycle stage order is commit → issue → dispatch → fetch, which gives
//! the conventional timing: an instruction dispatched in cycle `c` can
//! issue at `c + 1` at the earliest, a producer issued at `c` with latency
//! `L` wakes its consumers for issue at `c + L`, and a mispredicted branch
//! issued at `c` (1-cycle branch execution) redirects fetch at `c + 1`.
//!
//! This engine computes bit-identical [`SimResult`]s to the retained
//! reference implementation in [`crate::reference`] (the original
//! scan-everything loop), but restructures the hot path five ways:
//!
//! 1. it runs over a [`CompiledTrace`] — flat structure-of-arrays op
//!    storage with producer indices pre-resolved (built once per trace,
//!    cacheable across machine configurations);
//! 2. issue selection is event-driven through the
//!    [`WakeupScheduler`](crate::sched::WakeupScheduler) instead of
//!    scanning the whole ROB every cycle, with the per-op wait state
//!    merged into one [`OpSlot`] record per op so dispatch and wakeup
//!    touch a single cache line each;
//! 3. provably inert cycles — frontend stalled or starved, nothing
//!    completing, nothing issueable — are *skipped in bulk* by advancing
//!    the clock straight to the next event time while replicating the
//!    per-cycle accounting (see `idle_gap`/`skip` and
//!    `docs/PERFORMANCE.md` for the invariant argument);
//! 4. fetch and dispatch run *batched over superblock regions*: a
//!    [`SuperblockMap`] precomputed from the trace marks where branches
//!    and I-cache line boundaries fall, so the fetch stage admits a whole
//!    branch-free same-line run with one bulk fill (no per-op flag loads
//!    or line compares) and dispatch moves a ready prefix with one scan
//!    (dispatch-ready times are monotone in trace order);
//! 5. the entire engine is *monomorphized per predictor kind*: the run
//!    entry point matches the configured [`PredictorConfig`] once and
//!    selects a copy of the cycle loop with the concrete predictor type
//!    (and its `predict`/`update` pair) baked in — the
//!    config-specialized execution closures extending the
//!    `InlinePredictor` devirtualization, with dispatch/issue widths and
//!    FU latencies hoisted into plain engine fields at construction.
//!
//! `Simulator::run` always runs this engine; the reference one is
//! reached only through [`Simulator::try_run_reference`].

use bmp_branch::{BranchUnit, DirectionPredictor, InlinePredictor, Resolution};
use bmp_cache::{DataOutcome, MemoryHierarchy};
use bmp_core::intervals::IntervalEventKind;
use bmp_trace::{CompiledTrace, SuperblockMap, Trace};
use bmp_uarch::MachineConfig;
use std::time::Instant;

use crate::compiled::{ClassTables, FuPools};
use crate::error::{BudgetForensics, SimError};
use crate::options::SimOptions;
use crate::result::{
    ClassIssueStats, FetchAccounting, MispredictRecord, MissEvent, SimResult, SlotAccounting,
};
use crate::sched::{WakeupScheduler, NO_EDGE};

/// Sentinel for "not yet executed".
const NOT_DONE: u64 = u64::MAX;

/// Sentinel for "no I-cache access performed for this op yet".
const NO_LINE_DONE: usize = usize::MAX;

/// Wall-clock attribution of one event-driven run, reported by
/// `bmp-profile`'s per-phase breakdown. Nanosecond granularity; the two
/// timestamps cost two `Instant` reads per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunPhases {
    /// Time in the cycle loop proper (fetch/dispatch/issue/commit).
    pub execute_ns: u64,
    /// Time assembling the [`SimResult`] — cloning the event logs and
    /// accounting vectors out of the reusable scratch buffers.
    pub assemble_ns: u64,
}

/// A configured simulator, ready to run traces.
///
/// The simulator itself is immutable; each [`run`](Simulator::run) builds
/// fresh machine state, so one `Simulator` can be reused across traces and
/// the runs are independent.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
    options: SimOptions,
}

impl Simulator {
    /// Creates a simulator for the given machine with default options.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: MachineConfig) -> Self {
        Self::with_options(config, SimOptions::default())
    }

    /// Creates a simulator with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn with_options(config: MachineConfig, options: SimOptions) -> Self {
        config
            .validate()
            .expect("machine configuration must be valid");
        Self { config, options }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The simulation options.
    pub fn options(&self) -> SimOptions {
        self.options
    }

    /// A 64-bit content fingerprint of the machine configuration and the
    /// simulation options together. Since a run is a pure function of
    /// `(config, options, trace)`, this plus a trace fingerprint fully
    /// addresses the [`SimResult`] — the experiment harness uses it as
    /// the simulation cache key.
    pub fn fingerprint(&self) -> u64 {
        bmp_uarch::fp::fingerprint_debug(&(&self.config, self.options))
    }

    /// Simulates the trace to completion and returns the measurements.
    ///
    /// Compiles the trace and runs the event-driven engine. Callers that
    /// already hold a [`CompiledTrace`] and its [`SuperblockMap`] (e.g.
    /// the experiment harness, which caches them) should use
    /// [`try_run_compiled_with`](Simulator::try_run_compiled_with) to
    /// skip the per-run build.
    ///
    /// # Panics
    ///
    /// Panics with `simulation aborted: {e}` when the cycle-budget
    /// watchdog fires. The default auto budget never trips on a machine
    /// that makes progress.
    pub fn run(&self, trace: &Trace) -> SimResult {
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, self.config.caches.l1i().line_bytes());
        self.try_run_compiled_with(&ct, &sb)
            .unwrap_or_else(|e| panic!("simulation aborted: {e}"))
    }

    /// Simulates a compiled trace on the event-driven engine with a
    /// prebuilt superblock map (keyed by the trace and the L1I line size
    /// — one map serves every machine configuration sharing a line
    /// size). A run that exhausts its cycle budget returns
    /// [`SimError::BudgetExceeded`] with a forensic snapshot instead of
    /// panicking or hanging.
    ///
    /// # Panics
    ///
    /// Panics if `sb` was built for a different trace length or L1I line
    /// size than this simulator's configuration.
    pub fn try_run_compiled_with(
        &self,
        trace: &CompiledTrace,
        sb: &SuperblockMap,
    ) -> Result<SimResult, SimError> {
        self.try_run_compiled_phased(trace, sb).map(|(r, _)| r)
    }

    /// Like [`try_run_compiled_with`](Simulator::try_run_compiled_with),
    /// additionally reporting the wall-clock split between the cycle loop
    /// and result assembly (consumed by `bmp-profile`).
    pub fn try_run_compiled_phased(
        &self,
        trace: &CompiledTrace,
        sb: &SuperblockMap,
    ) -> Result<(SimResult, RunPhases), SimError> {
        assert_eq!(
            sb.line_bytes(),
            self.config.caches.l1i().line_bytes(),
            "superblock map was built for a different L1I line size"
        );
        assert_eq!(
            sb.len(),
            trace.len(),
            "superblock map was built for a different trace"
        );
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            // One monomorphized copy of the engine per predictor kind:
            // the concrete type (and everything `Engine::new` hoists out
            // of the config) is selected here, once per run, instead of
            // being re-dispatched per branch in the hot loop.
            match InlinePredictor::build(&self.config.predictor) {
                InlinePredictor::Static(p) => self.run_specialized(trace, sb, p, &mut scratch),
                InlinePredictor::Perfect(p) => self.run_specialized(trace, sb, p, &mut scratch),
                InlinePredictor::Bimodal(p) => self.run_specialized(trace, sb, p, &mut scratch),
                InlinePredictor::GShare(p) => self.run_specialized(trace, sb, p, &mut scratch),
                InlinePredictor::Local(p) => self.run_specialized(trace, sb, p, &mut scratch),
                InlinePredictor::Tournament(p) => self.run_specialized(trace, sb, p, &mut scratch),
                InlinePredictor::Perceptron(p) => self.run_specialized(trace, sb, p, &mut scratch),
                InlinePredictor::Tage(p) => self.run_specialized(trace, sb, p, &mut scratch),
            }
        })
    }

    fn run_specialized<P: DirectionPredictor>(
        &self,
        trace: &CompiledTrace,
        sb: &SuperblockMap,
        predictor: P,
        scratch: &mut Scratch,
    ) -> Result<(SimResult, RunPhases), SimError> {
        let mut engine = Engine::new(&self.config, self.options, trace, sb, predictor, scratch);
        let result = engine.run();
        let phases = engine.phases;
        engine.recycle(scratch);
        result.map(|r| (r, phases))
    }

    /// Simulates the trace on the retained reference engine (the original
    /// straightforward cycle loop), the ground truth in equivalence tests
    /// and CI diffs. The forensic snapshot in a budget error is
    /// bit-identical to the event-driven engine's — aborts are part of
    /// the equivalence contract.
    pub fn try_run_reference(&self, trace: &Trace) -> Result<SimResult, SimError> {
        crate::reference::run(&self.config, self.options, trace)
    }
}

/// Per-thread reusable buffers for [`Engine`] runs. `slots` keeps
/// whatever the previous run left in it: every field of a slot is written
/// before it is read (`done`/`disp` at fetch, the wait fields at
/// dispatch) within a run, so no re-initialization pass is needed.
#[derive(Default)]
struct Scratch {
    slots: Vec<OpSlot>,
    sched: Option<WakeupScheduler>,
    /// The previous run's memory hierarchy, keyed by its configuration
    /// fingerprint: building one allocates the full line arrays (the
    /// single most expensive piece of per-run setup), while `reset` is
    /// O(1) thanks to epoch invalidation.
    mem: Option<(u64, MemoryHierarchy)>,
    events: Vec<MissEvent>,
    mispredicts: Vec<MispredictRecord>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// The complete per-op record: completion and dispatch times (engine)
/// merged with the scheduler's wait state, interleaved so every stage
/// that touches an op — fetch initializes, dispatch registers, wakeup
/// accumulates, issue completes — hits a *single* 32-byte record instead
/// of streaming two parallel arrays through the cache.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpSlot {
    /// Completion time ([`NOT_DONE`] until executed).
    pub(crate) done: u64,
    /// Dispatch cycle once dispatched; before that, the cycle the op
    /// clears the frontend pipe and becomes dispatchable.
    pub(crate) disp: u64,
    /// Earliest issue cycle accumulated so far (scheduler).
    pub(crate) ready_at: u64,
    /// Head of the intrusive waiter-edge chain (scheduler).
    pub(crate) waiter_head: u32,
    /// Count of producers not yet executed, set at dispatch (scheduler).
    pub(crate) pending: u32,
}

/// Per-misprediction bookkeeping while the branch is in flight.
struct PendingMiss {
    branch_idx: usize,
    fetch_cycle: u64,
    dispatch_cycle: u64,
    window_occupancy: u32,
    dispatched: bool,
}

struct Engine<'a, P> {
    cfg: &'a MachineConfig,
    opts: SimOptions,
    ct: &'a CompiledTrace,
    sb: &'a SuperblockMap,
    tables: ClassTables,

    /// Watchdog cutoff: `opts.cycle_budget(trace len)`, resolved once.
    budget: u64,
    cycle: u64,
    committed: u64,

    // The merged per-op records (see [`OpSlot`]).
    slots: Vec<OpSlot>,

    // Frontend. Because the trace is correct-path-only and fetch,
    // dispatch and commit all proceed in trace order, the frontend queue
    // and the ROB are *contiguous index ranges* delimited by three
    // cursors: `commit_head <= dispatch_head <= fetch_idx`. The ROB is
    // `commit_head..dispatch_head`; the frontend queue is
    // `dispatch_head..fetch_idx`, with each op's dispatch-ready time
    // parked in `disp` until dispatch overwrites it with the actual
    // dispatch cycle.
    fetch_idx: usize,
    fetch_stall_until: u64,
    blocked_on: Option<usize>,
    /// Index of the op whose I-cache line access already happened (set
    /// when the access missed and fetch must resume at the same op after
    /// the stall without re-accessing). [`NO_LINE_DONE`] otherwise.
    line_done_for: usize,
    frontend_cap: usize,
    // Hoisted per-run constants, so the per-cycle stages touch plain
    // fields instead of re-deriving them through the config.
    n_ops: usize,
    fetch_width: u32,
    dispatch_width: u32,
    issue_width: u32,
    commit_width: u32,
    rob_size: usize,
    window_size: u32,
    frontend_depth: u64,

    // Backend: `issued` is implied by `done[idx] != NOT_DONE`, and issue
    // selection lives in the scheduler.
    commit_head: usize,
    dispatch_head: usize,
    unissued: u32,
    fu: FuPools,
    sched: WakeupScheduler,

    // Helpers. The direction predictor is a concrete type parameter —
    // its `predict`/`update` pair is statically dispatched and inlined
    // into this engine instantiation. The branch unit also counts the
    // direction predictions.
    branches: BranchUnit<P>,
    mem: MemoryHierarchy,

    // Measurements.
    events: Vec<MissEvent>,
    mispredicts: Vec<MispredictRecord>,
    pending: Option<PendingMiss>,
    timeline: Option<Vec<u8>>,
    slots_acct: SlotAccounting,
    fetch_acct: FetchAccounting,
    rob_occupancy: Vec<u64>,
    class_issue: [ClassIssueStats; 9],
    /// Set once the warmup boundary has been crossed (or immediately when
    /// no warmup is configured).
    warmed: bool,
    stats_start_cycle: u64,
    stats_start_committed: u64,
    phases: RunPhases,
}

impl<'a, P: DirectionPredictor> Engine<'a, P> {
    fn new(
        cfg: &'a MachineConfig,
        opts: SimOptions,
        ct: &'a CompiledTrace,
        sb: &'a SuperblockMap,
        predictor: P,
        scratch: &mut Scratch,
    ) -> Self {
        let n = ct.len();
        let mut slots = std::mem::take(&mut scratch.slots);
        // Exactly `n` op records plus the trailing dummy the scheduler
        // clamps empty producer slots onto (see
        // `WakeupScheduler::on_dispatch`); its `done` must read as
        // "complete since forever" and nothing else about it is ever
        // read or written.
        slots.resize(
            n + 1,
            OpSlot {
                done: NOT_DONE,
                disp: 0,
                ready_at: 0,
                waiter_head: NO_EDGE,
                pending: 0,
            },
        );
        slots[n].done = 0;
        let sched = match scratch.sched.take() {
            Some(mut s) => {
                s.reset(n);
                s
            }
            None => WakeupScheduler::new(n),
        };
        let mem_key = bmp_uarch::fp::fingerprint_debug(&cfg.caches);
        let mem = match scratch.mem.take() {
            Some((k, mut m)) if k == mem_key => {
                m.reset();
                m
            }
            _ => MemoryHierarchy::new(&cfg.caches),
        };
        Self {
            cfg,
            opts,
            ct,
            sb,
            tables: ClassTables::new(cfg),
            budget: opts.cycle_budget(n as u64),
            cycle: 0,
            committed: 0,
            slots,
            fetch_idx: 0,
            fetch_stall_until: 0,
            blocked_on: None,
            line_done_for: NO_LINE_DONE,
            n_ops: n,
            fetch_width: cfg.effective_fetch_width(),
            dispatch_width: cfg.dispatch_width,
            issue_width: cfg.issue_width,
            commit_width: cfg.commit_width,
            rob_size: cfg.rob_size as usize,
            window_size: cfg.window_size,
            frontend_depth: u64::from(cfg.frontend_depth),
            frontend_cap: (cfg.frontend_depth as usize * cfg.dispatch_width as usize)
                .max(cfg.fetch_width as usize),
            commit_head: 0,
            dispatch_head: 0,
            unissued: 0,
            fu: FuPools::new(cfg),
            sched,
            branches: BranchUnit::new(cfg, predictor),
            mem,
            events: std::mem::take(&mut scratch.events),
            mispredicts: std::mem::take(&mut scratch.mispredicts),
            pending: None,
            timeline: opts.record_dispatch_timeline.then(Vec::new),
            slots_acct: SlotAccounting::default(),
            fetch_acct: FetchAccounting::default(),
            rob_occupancy: vec![0; cfg.rob_size as usize + 1],
            class_issue: [ClassIssueStats::default(); 9],
            warmed: opts.warmup_ops == 0,
            stats_start_cycle: 0,
            stats_start_committed: 0,
            phases: RunPhases::default(),
        }
    }

    /// Returns the reusable buffers to the per-thread scratch pool.
    fn recycle(self, scratch: &mut Scratch) {
        scratch.slots = self.slots;
        scratch.sched = Some(self.sched);
        scratch.mem = Some((bmp_uarch::fp::fingerprint_debug(&self.cfg.caches), self.mem));
        scratch.events = self.events;
        scratch.events.clear();
        scratch.mispredicts = self.mispredicts;
        scratch.mispredicts.clear();
    }

    /// Current ROB occupancy (the ROB is the committed..dispatched range).
    #[inline]
    fn rob_len(&self) -> usize {
        self.dispatch_head - self.commit_head
    }

    fn run(&mut self) -> Result<SimResult, SimError> {
        let t0 = Instant::now();
        let looped = self.run_loop();
        let t1 = Instant::now();
        self.phases.execute_ns = t1.duration_since(t0).as_nanos() as u64;
        looped?;
        let result = self.assemble();
        self.phases.assemble_ns = t1.elapsed().as_nanos() as u64;
        Ok(result)
    }

    fn run_loop(&mut self) -> Result<(), SimError> {
        let n = self.n_ops as u64;
        // `idle_gap` is ~a dozen loads and branches; on dense cycles it is
        // pure overhead. It is only consulted after a cycle in which no
        // stage made progress — a *heuristic*, not a correctness gate: a
        // normal cycle on an inert machine produces exactly the accounting
        // `skip(1)` would (the invariant `skip` is built on), so running
        // one wasted cycle per transition into idleness is bit-identical
        // and much cheaper than probing every cycle.
        let mut probe_idle = true;
        while self.committed < n && self.cycle < self.budget {
            if probe_idle {
                let gap = self.idle_gap();
                if gap > 0 {
                    self.skip(gap);
                    // The cycle after a maximal skip always makes
                    // progress (the gap is bounded by the next event).
                    probe_idle = false;
                    continue;
                }
            }
            let commit_head0 = self.commit_head;
            let fetch_idx0 = self.fetch_idx;
            self.commit();
            if !self.warmed && self.committed >= self.opts.warmup_ops {
                self.reset_statistics();
            }
            let issued = self.issue();
            let dispatched = self.dispatch();
            self.fetch();
            let occ = self.rob_len();
            self.rob_occupancy[occ] += 1;
            if let Some(t) = &mut self.timeline {
                t.push(dispatched);
            }
            self.cycle += 1;
            probe_idle = !issued
                && dispatched == 0
                && self.commit_head == commit_head0
                && self.fetch_idx == fetch_idx0;
        }
        if self.committed < n {
            // The watchdog fired: capture forensics instead of returning
            // a silently truncated result (or spinning forever).
            return Err(SimError::BudgetExceeded(BudgetForensics {
                budget: self.budget,
                cycle: self.cycle,
                committed: self.committed,
                trace_ops: n,
                fetched: self.fetch_idx as u64,
                window_occupancy: self.rob_len() as u32,
            }));
        }
        Ok(())
    }

    fn assemble(&mut self) -> SimResult {
        // Accounting conservation, mirrored by lint BMP203: every offered
        // dispatch slot is attributed to exactly one cause, and the ROB
        // histogram samples every measured cycle.
        let cycles = self.cycle - self.stats_start_cycle;
        debug_assert_eq!(
            self.slots_acct.total(),
            cycles * u64::from(self.dispatch_width),
            "dispatch-slot accounting leaked slots (BMP203)"
        );
        debug_assert_eq!(
            self.rob_occupancy.iter().sum::<u64>(),
            cycles,
            "ROB-occupancy histogram missed cycles (BMP203)"
        );
        SimResult {
            cycles,
            instructions: self.committed - self.stats_start_committed,
            branch_stats: self.branches.stats(),
            hierarchy: self.mem.stats(),
            // Cloned, not taken: the exact-size copy goes to the caller
            // while the grown buffer returns to the scratch pool.
            events: self.events.clone(),
            mispredicts: self.mispredicts.clone(),
            dispatch_timeline: self.timeline.take(),
            frontend_depth: self.cfg.frontend_depth,
            slots: self.slots_acct,
            fetch: self.fetch_acct,
            rob_occupancy: std::mem::take(&mut self.rob_occupancy),
            class_issue: self.class_issue,
        }
    }

    /// Length of the inert stretch starting at the current cycle: the
    /// number of cycles during which *no* stage can change machine state,
    /// bounded by the next event time. Returns 0 when the current cycle
    /// must run normally.
    ///
    /// A cycle is inert iff every stage is provably a no-op:
    /// * **issue** — ready set empty and no calendar bucket due;
    /// * **commit** — ROB empty, or its head has not completed;
    /// * **dispatch** — blocked (ROB/window full) or starved (queue empty
    ///   or its head still in the frontend pipe); blocked/starved cycles
    ///   only charge slot accounting, replicated in `skip`;
    /// * **fetch** — waiting on a redirect, stalled on a miss, out of
    ///   trace, or the frontend queue is full.
    ///
    /// The bound is the min of the times these conditions can flip:
    /// calendar head (issue), ROB-head completion (commit and everything
    /// downstream of a full ROB), frontend-pipe arrival (dispatch), and
    /// stall expiry (fetch). Conditions resolved by *other* ops issuing
    /// (window pressure, a blocked redirect) need no separate bound: any
    /// future issue is already a calendar entry, or the ready set is
    /// non-empty and the cycle is not inert in the first place.
    fn idle_gap(&self) -> u64 {
        let c = self.cycle;
        if self.sched.has_ready() {
            return 0;
        }
        let mut next = u64::MAX;
        if let Some(w) = self.sched.next_wakeup() {
            if w <= c {
                return 0;
            }
            next = next.min(w);
        }
        if self.commit_head < self.dispatch_head {
            let d = self.slots[self.commit_head].done;
            if d != NOT_DONE {
                if d <= c {
                    return 0;
                }
                next = next.min(d);
            }
        }
        let rob_full = self.rob_len() >= self.rob_size;
        let window_full = self.unissued >= self.window_size;
        if !rob_full && !window_full && self.dispatch_head < self.fetch_idx {
            let ready = self.slots[self.dispatch_head].disp;
            if ready <= c {
                return 0;
            }
            next = next.min(ready);
        }
        if self.blocked_on.is_none() {
            if c < self.fetch_stall_until {
                next = next.min(self.fetch_stall_until);
            } else if self.fetch_idx < self.n_ops
                && self.fetch_idx - self.dispatch_head < self.frontend_cap
            {
                return 0;
            }
        }
        if next == u64::MAX {
            // No future event found (e.g. drained run-out): fall back to
            // single-stepping, which matches the reference engine exactly.
            return 0;
        }
        next.min(self.budget) - c
    }

    /// Performs `k` inert cycles at once: advances the clock and applies
    /// exactly the accounting the reference engine would accumulate over
    /// `k` normal iterations of a blocked machine. The blocking causes
    /// cannot change mid-gap because `idle_gap` bounded `k` by every
    /// relevant expiry time.
    fn skip(&mut self, k: u64) {
        let occ = self.rob_len();
        self.rob_occupancy[occ] += k;
        if let Some(t) = &mut self.timeline {
            let len = t.len() + k as usize;
            t.resize(len, 0);
        }
        // Dispatch charges its full width to the first blocking cause,
        // with the same precedence as `dispatch`.
        let width = u64::from(self.dispatch_width);
        if self.rob_len() >= self.rob_size {
            self.slots_acct.rob_full += k * width;
        } else if self.unissued >= self.window_size {
            self.slots_acct.window_full += k * width;
        } else {
            self.slots_acct.frontend_starved += k * width;
        }
        if self.blocked_on.is_some() {
            self.fetch_acct.redirect_wait += k;
        } else if self.cycle < self.fetch_stall_until {
            self.fetch_acct.stall += k;
        }
        self.cycle += k;
    }

    /// Crosses the warmup boundary: zero every statistic while keeping
    /// all machine state (caches, predictor, BTB, RAS, ROB contents).
    fn reset_statistics(&mut self) {
        self.warmed = true;
        self.stats_start_cycle = self.cycle;
        self.stats_start_committed = self.committed;
        self.branches.reset_stats();
        self.mem.reset_stats();
        self.events.clear();
        self.mispredicts.clear();
        self.slots_acct = SlotAccounting::default();
        self.fetch_acct = FetchAccounting::default();
        self.rob_occupancy.iter_mut().for_each(|c| *c = 0);
        self.class_issue = [ClassIssueStats::default(); 9];
        if let Some(t) = &mut self.timeline {
            t.clear();
        }
    }

    fn commit(&mut self) {
        // One bounds check for the whole window: the committable span is
        // the done-prefix of the ROB head, found with a borrow-free scan.
        let span = (self.dispatch_head - self.commit_head).min(self.commit_width as usize);
        let mut k = 0usize;
        for s in &self.slots[self.commit_head..self.commit_head + span] {
            if s.done > self.cycle {
                break;
            }
            k += 1;
        }
        self.commit_head += k;
        self.committed += k as u64;
    }

    /// Returns `true` when at least one op issued this cycle.
    fn issue(&mut self) -> bool {
        self.sched.drain(self.cycle);
        let mut budget = self.issue_width;
        // The ready set pops oldest-first (ascending trace index == ROB
        // order), replicating the reference engine's scan order.
        while budget > 0 {
            let Some(idx32) = self.sched.pop_ready() else {
                break;
            };
            let idx = idx32 as usize;
            let ci = self.ct.class(idx).index();
            let entry = self.tables.entries[ci];
            if !entry.unconstrained
                && !self
                    .fu
                    .take(usize::from(entry.fu), self.cycle, entry.occupancy)
            {
                // Lost FU arbitration: retry next cycle, exactly like the
                // reference scan skipping past a busy unit — except when
                // every unit is held across cycles (divides), where all
                // retries up to the earliest hold expiry are guaranteed
                // losses and the op goes to the calendar instead of
                // churning through the ready set every cycle.
                let at = self.fu.retry_at(usize::from(entry.fu), self.cycle);
                if at > self.cycle + 1 {
                    self.sched.schedule(idx32, at);
                } else {
                    self.sched.defer(idx32);
                }
                continue;
            }
            let base_lat = entry.latency;
            // One data-dependent branch (the memory bit) instead of a
            // 9-way class match: only loads and stores leave this path.
            let latency = if self.ct.flags(idx) & bmp_trace::compiled::FLAG_MEM != 0 {
                let addr = self.ct.mem_addr(idx).expect("memory ops carry addresses");
                let access = self.mem.data_access_at(self.ct.pc(idx), addr);
                if ci == bmp_uarch::OpClass::Load.index() {
                    if access.outcome == DataOutcome::LongMiss {
                        self.events.push(MissEvent {
                            trace_idx: idx,
                            cycle: self.cycle,
                            kind: IntervalEventKind::LongDCacheMiss,
                        });
                    }
                    u64::from(access.latency)
                } else {
                    // Stores retire through a write buffer: the cache sees
                    // the access (write-allocate) but the pipeline is not
                    // held up by the miss.
                    base_lat
                }
            } else {
                base_lat
            };
            // One borrow of the slot record for the whole issue: write
            // the completion time, read the dispatch cycle, and detach
            // the waiter chain, which `wake_waiters` then walks without
            // reloading this record.
            let done = self.cycle + latency;
            let s = &mut self.slots[idx];
            s.done = done;
            let disp = s.disp;
            let waiters = std::mem::replace(&mut s.waiter_head, NO_EDGE);
            self.unissued -= 1;
            budget -= 1;
            let cs = &mut self.class_issue[ci];
            cs.issued += 1;
            cs.wait_cycles += self.cycle - disp;
            self.sched.wake_waiters(waiters, done, &mut self.slots);
            // A mispredicted branch redirects fetch when it resolves.
            if self.blocked_on == Some(idx) {
                self.blocked_on = None;
                self.fetch_stall_until = self.fetch_stall_until.max(done);
                let pending = self
                    .pending
                    .take()
                    .expect("pending record for blocked branch");
                debug_assert!(pending.dispatched);
                self.mispredicts.push(MispredictRecord {
                    branch_idx: idx,
                    fetch_cycle: pending.fetch_cycle,
                    dispatch_cycle: pending.dispatch_cycle,
                    resolve_cycle: done,
                    window_occupancy: pending.window_occupancy,
                });
            }
        }
        self.sched.rearm_deferred();
        budget < self.issue_width
    }

    /// Moves the dispatchable prefix of the frontend queue into the ROB
    /// in one batch.
    ///
    /// The batch length is the minimum of the dispatch width, ROB space,
    /// window space and the *ready prefix* of the queue — dispatch-ready
    /// times are monotone non-decreasing in trace order (fetch cycles
    /// are), so a single forward scan finds every op that has cleared the
    /// frontend pipe. Leftover slots are attributed to the first blocking
    /// cause with the same precedence as the reference engine's per-slot
    /// loop: ROB full, then window full, then frontend starvation.
    fn dispatch(&mut self) -> u8 {
        let width = self.dispatch_width as usize;
        let start = self.dispatch_head;
        let limit = width
            .min(self.rob_size - self.rob_len())
            .min((self.window_size - self.unissued) as usize)
            .min(self.fetch_idx - start);
        let mut k = 0usize;
        while k < limit && self.slots[start + k].disp <= self.cycle {
            self.slots[start + k].disp = self.cycle;
            self.dispatch_op(start + k);
            k += 1;
        }
        self.dispatch_head = start + k;
        self.unissued += k as u32;
        self.slots_acct.used += k as u64;
        if let Some(p) = &mut self.pending {
            if !p.dispatched && p.branch_idx >= start && p.branch_idx < start + k {
                p.dispatched = true;
                p.dispatch_cycle = self.cycle;
                p.window_occupancy = (p.branch_idx + 1 - self.commit_head) as u32;
            }
        }
        if k < width {
            let rest = (width - k) as u64;
            if self.rob_len() >= self.rob_size {
                self.slots_acct.rob_full += rest;
            } else if self.unissued >= self.window_size {
                self.slots_acct.window_full += rest;
            } else {
                self.slots_acct.frontend_starved += rest;
            }
        }
        k as u8
    }

    /// Registers one dispatched op with the scheduler.
    ///
    /// Fast path: a producer index `p` satisfies
    /// `p.wrapping_add(1) <= commit_head` iff the slot is empty
    /// ([`NO_PRODUCER`](bmp_trace::compiled::NO_PRODUCER) wraps to 0) or
    /// the producer has already *committed* — and a committed producer's
    /// completion time is necessarily `<= cycle`, so the op is ready at
    /// `cycle + 1` without loading either producer's record. This skips
    /// the two data-dependent loads (often far behind the cursor, i.e.
    /// cache-cold) for the common case of long-since-resolved producers.
    #[inline]
    fn dispatch_op(&mut self, idx: usize) {
        let prods = self.ct.producers(idx);
        let ch = self.commit_head as u32;
        if prods[0].wrapping_add(1) <= ch && prods[1].wrapping_add(1) <= ch {
            let s = &mut self.slots[idx];
            s.ready_at = self.cycle + 1;
            s.waiter_head = NO_EDGE;
            s.pending = 0;
            self.sched.push_ready(idx as u32);
        } else {
            self.sched
                .on_dispatch(idx as u32, self.cycle, prods, &mut self.slots);
        }
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
        let mut budget = self.fetch_width as usize;
        while budget > 0 && self.fetch_idx < self.n_ops {
            let cap_space = self.frontend_cap - (self.fetch_idx - self.dispatch_head);
            if cap_space == 0 {
                break;
            }
            let idx = self.fetch_idx;
            // The superblock map statically knows where fetch crosses an
            // I-cache line: fetch examines ops strictly in trace order,
            // so "line differs from the previous op's" is exactly the
            // reference engine's dynamic current-line compare.
            if self.sb.is_line_start(idx) && self.line_done_for != idx {
                let access = self.mem.fetch_access(self.ct.pc(idx));
                if access.l1i_miss {
                    // The access happened; when fetch resumes at this op
                    // after the stall it must not repeat it.
                    self.line_done_for = idx;
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
            let disp = self.cycle + self.frontend_depth;
            let run = self.sb.run_len(idx) as usize;
            if run == 0 {
                // A branch is always its own superblock region. `done` is
                // initialized lazily here — the buffers come from the
                // scratch pool with a previous run's contents, and no
                // stage reads a slot past `fetch_idx`.
                self.slots[idx].done = NOT_DONE;
                self.slots[idx].disp = disp;
                self.fetch_idx += 1;
                budget -= 1;
                let pc = self.ct.pc(idx);
                let info = self
                    .ct
                    .branch_info(idx)
                    .expect("zero-run-length ops are branches");
                let resolution = self.branches.resolve(pc, info);
                if resolution == Resolution::Mispredict {
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
                if resolution == Resolution::BtbMiss {
                    // Decode computes the target: one fetch bubble.
                    self.fetch_stall_until = self.cycle + 2;
                }
                if info.taken {
                    // Redirect through the BTB/RAS: the fetch group ends.
                    return;
                }
            } else {
                // A branch-free same-line run: admit as much of it as the
                // fetch budget and the frontend queue allow with one bulk
                // fill — no per-op flag loads, line compares or branch
                // tests.
                let k = run.min(budget).min(cap_space);
                for s in &mut self.slots[idx..idx + k] {
                    s.done = NOT_DONE;
                    s.disp = disp;
                }
                self.fetch_idx += k;
                budget -= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_trace::{BranchKind, MicroOp, TraceBuilder};
    use bmp_uarch::{presets, OpClass, PredictorConfig};
    use bmp_workloads::micro;

    /// The event-driven engine on `trace`, with its budget error kept.
    fn run_event(sim: &Simulator, trace: &Trace) -> Result<SimResult, SimError> {
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, sim.config().caches.l1i().line_bytes());
        sim.try_run_compiled_with(&ct, &sb)
    }

    fn perfect_tiny() -> MachineConfig {
        presets::test_tiny()
            .to_builder()
            .predictor(PredictorConfig::Perfect)
            .build()
            .unwrap()
    }

    /// A loop of independent single-cycle ALU ops with a perfect
    /// predictor should sustain nearly the dispatch width.
    #[test]
    fn steady_state_reaches_dispatch_width() {
        // Long enough to amortize the cold-start I-cache misses.
        let trace = micro::chain_kernel(100_000, 16, 63, OpClass::IntAlu);
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::Perfect)
            .build()
            .unwrap();
        let res = Simulator::new(cfg).run(&trace);
        assert_eq!(res.instructions, 100_000);
        assert!(
            res.ipc() > 3.7,
            "balanced machine should sustain ~4 IPC, got {}",
            res.ipc()
        );
    }

    /// A serial chain runs at IPC 1 regardless of width.
    #[test]
    fn serial_chain_is_ipc_one() {
        let trace = micro::chain_kernel(10_000, 1, 64, OpClass::IntAlu);
        let res = Simulator::new(perfect_tiny()).run(&trace);
        let ipc = res.ipc();
        assert!(
            (0.85..=1.05).contains(&ipc),
            "serial chain IPC should be ~1, got {ipc}"
        );
    }

    /// Chain of 3-cycle multiplies: IPC ~ 1/3.
    #[test]
    fn latency_scales_chain_throughput() {
        let trace = micro::latency_kernel(6_000, OpClass::IntMul);
        let res = Simulator::new(perfect_tiny()).run(&trace);
        let ipc = res.ipc();
        assert!(
            (0.28..=0.37).contains(&ipc),
            "3-cycle chain IPC should be ~0.33, got {ipc}"
        );
    }

    /// Completion must be exact: every op commits exactly once.
    #[test]
    fn commits_every_instruction() {
        for n in [1usize, 7, 100, 3_333] {
            let trace = micro::chain_kernel(n, 2, 16, OpClass::IntAlu);
            let res = Simulator::new(perfect_tiny()).run(&trace);
            assert_eq!(res.instructions, n as u64);
        }
    }

    #[test]
    fn empty_trace_is_fine() {
        let res = Simulator::new(perfect_tiny()).run(&Trace::new());
        assert_eq!(res.instructions, 0);
        assert_eq!(res.cycles, 0);
    }

    /// With an always-wrong setup (always-not-taken on always-taken
    /// branches), every conditional mispredicts and each misprediction
    /// produces a record whose resolution >= 1.
    #[test]
    fn mispredictions_are_recorded() {
        let trace = micro::branch_resolution_kernel(4_000, 8, 1.0, 3);
        let cfg = perfect_tiny()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let res = Simulator::new(cfg).run(&trace);
        let conds = trace.conditional_branch_indices().len();
        assert_eq!(res.branch_stats.mispredictions() as usize, conds);
        assert_eq!(res.mispredicts.len(), conds);
        for m in &res.mispredicts {
            assert!(m.resolve_cycle > m.dispatch_cycle);
            assert!(m.dispatch_cycle >= m.fetch_cycle);
            assert!(m.window_occupancy >= 1);
        }
    }

    /// The defining property from the paper: the resolution time of a
    /// branch at the end of a serial chain grows with the chain length.
    #[test]
    fn resolution_grows_with_chain_length() {
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let mut last = 0.0;
        for chain in [2u32, 8, 24] {
            let trace = micro::branch_resolution_kernel(20_000, chain, 1.0, 5);
            let res = Simulator::new(cfg.clone()).run(&trace);
            let mean = res.mean_resolution().expect("has mispredictions");
            assert!(
                mean > last,
                "resolution must grow with chain length: chain {chain} gave {mean} (prev {last})"
            );
            last = mean;
        }
        // And it is far beyond the frontend depth for the longest chain.
        assert!(last > 10.0, "24-op chain resolution {last} too small");
    }

    /// Misprediction penalty: running the same trace with a perfect
    /// predictor must be faster, and the cycle difference per
    /// misprediction should approximate resolution + frontend depth.
    #[test]
    fn penalty_accounting_matches_two_run_difference() {
        let trace = micro::branch_resolution_kernel(30_000, 8, 0.5, 7);
        let base = presets::baseline_4wide();
        let bad = Simulator::new(
            base.to_builder()
                .predictor(PredictorConfig::AlwaysNotTaken)
                .build()
                .unwrap(),
        )
        .run(&trace);
        let good = Simulator::new(
            base.to_builder()
                .predictor(PredictorConfig::Perfect)
                .build()
                .unwrap(),
        )
        .run(&trace);
        assert!(bad.cycles > good.cycles);
        let per_miss = (bad.cycles - good.cycles) as f64 / bad.mispredicts.len() as f64;
        let accounted = bad.mean_penalty().unwrap();
        let ratio = per_miss / accounted;
        assert!(
            (0.7..=1.3).contains(&ratio),
            "two-run penalty {per_miss} vs accounted {accounted}"
        );
    }

    /// Long D-cache misses must appear as events and crater IPC.
    #[test]
    fn long_dmisses_are_events() {
        // Working set far beyond the tiny L2 (8 KiB): misses everywhere.
        let trace = micro::memory_kernel(5_000, 8 * 1024 * 1024, 4, false, 9);
        let res = Simulator::new(perfect_tiny()).run(&trace);
        let long = res
            .events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::LongDCacheMiss)
            .count();
        assert!(long > 500, "expected many long misses, got {long}");
        assert!(res.ipc() < 1.0);
    }

    /// A cache-resident working set produces no long-miss events after
    /// warmup.
    #[test]
    fn resident_working_set_is_quiet() {
        let trace = micro::memory_kernel(20_000, 512, 4, false, 9);
        let res = Simulator::new(perfect_tiny()).run(&trace);
        let long = res
            .events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::LongDCacheMiss)
            .count();
        assert!(long <= 8, "resident set should only cold-miss, got {long}");
    }

    /// I-cache miss events fire when the code footprint exceeds L1I.
    #[test]
    fn icache_events_for_big_footprints() {
        // Straight-line-ish code via the workload generator.
        let mut profile = bmp_workloads::WorkloadProfile::default();
        profile.branches.code_footprint = 64 * 1024; // >> 1 KiB tiny L1I
        let trace = profile.generate(20_000, 3);
        let res = Simulator::new(perfect_tiny()).run(&trace);
        let imiss = res
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    IntervalEventKind::ICacheMiss | IntervalEventKind::ICacheLongMiss
                )
            })
            .count();
        assert!(imiss > 50, "expected I-cache events, got {imiss}");
    }

    /// The dispatch timeline, when recorded, covers every cycle and sums
    /// to the instruction count.
    #[test]
    fn timeline_accounts_for_all_dispatches() {
        let trace = micro::chain_kernel(5_000, 4, 32, OpClass::IntAlu);
        let sim = Simulator::with_options(perfect_tiny(), SimOptions::with_timeline());
        let res = sim.run(&trace);
        let t = res.dispatch_timeline.as_ref().unwrap();
        assert_eq!(t.len() as u64, res.cycles);
        let total: u64 = t.iter().map(|&d| u64::from(d)).sum();
        assert_eq!(total, res.instructions);
    }

    /// Deep frontends slow down mispredicting workloads but leave
    /// non-branching code almost unaffected.
    #[test]
    fn frontend_depth_hurts_only_mispredicting_code() {
        let branchy = micro::branch_resolution_kernel(20_000, 4, 0.5, 1);
        let straight = micro::chain_kernel(20_000, 8, 64, OpClass::IntAlu);
        let mk = |depth: u32, pred: PredictorConfig| {
            presets::baseline_4wide()
                .to_builder()
                .frontend_depth(depth)
                .predictor(pred)
                .build()
                .unwrap()
        };
        let shallow = Simulator::new(mk(5, PredictorConfig::AlwaysNotTaken)).run(&branchy);
        let deep = Simulator::new(mk(20, PredictorConfig::AlwaysNotTaken)).run(&branchy);
        assert!(
            deep.cycles as f64 > shallow.cycles as f64 * 1.3,
            "deep frontend must hurt branchy code: {} vs {}",
            deep.cycles,
            shallow.cycles
        );
        let s2 = Simulator::new(mk(5, PredictorConfig::Perfect)).run(&straight);
        let d2 = Simulator::new(mk(20, PredictorConfig::Perfect)).run(&straight);
        let ratio = d2.cycles as f64 / s2.cycles as f64;
        assert!(
            ratio < 1.05,
            "straight-line code should not care about frontend depth, ratio {ratio}"
        );
    }

    /// Window occupancy in misprediction records never exceeds the ROB.
    #[test]
    fn occupancy_bounded_by_rob() {
        let trace = micro::branch_resolution_kernel(10_000, 4, 0.5, 2);
        let cfg = presets::test_tiny()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let res = Simulator::new(cfg.clone()).run(&trace);
        for m in &res.mispredicts {
            assert!(m.window_occupancy <= cfg.rob_size);
        }
    }

    /// Stores must not block the pipeline the way loads do.
    #[test]
    fn store_misses_do_not_stall() {
        let mut b = TraceBuilder::new();
        for i in 0..4000u64 {
            // Alternate stores to a huge region with independent ALU ops.
            if i % 2 == 0 {
                b.push(MicroOp::store(0x1000, 0x6000_0000 + i * 4096, [None, None]))
                    .unwrap();
            } else {
                b.push(MicroOp::alu(0x1004, OpClass::IntAlu, [None, None]))
                    .unwrap();
            }
            // (pc consistency does not matter with a perfect predictor
            // and no branches; the fetch unit just streams.)
        }
        let trace = b.finish();
        let res = Simulator::new(presets::baseline_4wide()).run(&trace);
        assert!(
            res.ipc() > 1.5,
            "store misses must be absorbed by the write buffer, ipc {}",
            res.ipc()
        );
    }

    /// Slot accounting is conservative: used slots equal dispatched
    /// instructions, and every offered slot is attributed somewhere.
    #[test]
    fn slot_accounting_is_conservative() {
        let trace = micro::chain_kernel(10_000, 4, 32, OpClass::IntAlu);
        let res = Simulator::new(perfect_tiny()).run(&trace);
        assert_eq!(res.slots.used, res.instructions);
        assert_eq!(
            res.slots.total(),
            res.cycles * 2, // tiny machine is 2-wide
            "every dispatch slot must be attributed"
        );
    }

    /// Memory-bound code loses its slots to a full ROB; branchy code
    /// loses them to frontend starvation.
    #[test]
    fn slot_accounting_attributes_the_right_bottleneck() {
        let membound = micro::memory_kernel(10_000, 64 * 1024 * 1024, 2, false, 3);
        let res = Simulator::new(presets::baseline_4wide()).run(&membound);
        assert!(
            res.slots.rob_full > res.slots.frontend_starved,
            "long misses should fill the ROB: {:?}",
            res.slots
        );

        let branchy = micro::branch_resolution_kernel(10_000, 2, 0.5, 3);
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let res2 = Simulator::new(cfg).run(&branchy);
        assert!(
            res2.slots.frontend_starved > res2.slots.rob_full,
            "mispredictions should starve the frontend: {:?}",
            res2.slots
        );
    }

    /// A serial dependence chain backs up the issue window.
    #[test]
    fn slot_accounting_sees_window_pressure() {
        let chain = micro::chain_kernel(10_000, 1, 64, OpClass::IntAlu);
        let res = Simulator::new(perfect_tiny()).run(&chain);
        assert!(
            res.slots.window_full > res.slots.used / 4,
            "a serial chain should back up the window: {:?}",
            res.slots
        );
    }

    /// ROB occupancy: the histogram covers every cycle, and memory-bound
    /// code keeps the ROB nearly full while ideal code keeps it shallow.
    #[test]
    fn rob_occupancy_histogram_is_complete_and_meaningful() {
        let ideal = micro::chain_kernel(20_000, 16, 63, OpClass::IntAlu);
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::Perfect)
            .build()
            .unwrap();
        let res = Simulator::new(cfg.clone()).run(&ideal);
        let total: u64 = res.rob_occupancy.iter().sum();
        assert_eq!(total, res.cycles, "one sample per cycle");
        assert_eq!(res.rob_occupancy.len() as u32, cfg.rob_size + 1);

        let membound = micro::memory_kernel(20_000, 64 * 1024 * 1024, 2, false, 3);
        let res2 = Simulator::new(cfg).run(&membound);
        assert!(
            res2.rob_full_fraction() > 0.3,
            "long misses should keep the ROB full: {}",
            res2.rob_full_fraction()
        );
        assert!(
            res2.mean_rob_occupancy() > res.mean_rob_occupancy(),
            "memory-bound occupancy {} should exceed ideal {}",
            res2.mean_rob_occupancy(),
            res.mean_rob_occupancy()
        );
    }

    /// Fetch accounting separates redirect waits from cache stalls.
    #[test]
    fn fetch_accounting_attributes_blockage() {
        let branchy = micro::branch_resolution_kernel(10_000, 8, 0.5, 3);
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let res = Simulator::new(cfg).run(&branchy);
        assert!(
            res.fetch.redirect_wait > res.fetch.stall,
            "mispredictions dominate this kernel: {:?}",
            res.fetch
        );

        let mut profile = bmp_workloads::WorkloadProfile::default();
        profile.branches.code_footprint = 512 * 1024;
        profile.branches.easy_frac = 0.95;
        profile.branches.pattern_frac = 0.05;
        let icache_bound = profile.generate(20_000, 5);
        let perfect = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::Perfect)
            .build()
            .unwrap();
        let res2 = Simulator::new(perfect).run(&icache_bound);
        assert!(
            res2.fetch.stall > res2.fetch.redirect_wait,
            "I-cache misses dominate here: {:?}",
            res2.fetch
        );
    }

    /// Per-class issue stats reconcile with commit counts and reflect
    /// latency structure: a load-heavy kernel's loads wait longer than
    /// its ALU padding.
    #[test]
    fn class_issue_stats_reconcile() {
        let trace = micro::memory_kernel(10_000, 256 * 1024, 4, true, 3);
        let res = Simulator::new(presets::baseline_4wide()).run(&trace);
        let issued: u64 = res.class_issue.iter().map(|c| c.issued).sum();
        assert_eq!(issued, res.instructions, "every committed op issued once");
        let load = res.class_issue[OpClass::Load.index()];
        let alu = res.class_issue[OpClass::IntAlu.index()];
        assert!(load.issued > 1000 && alu.issued > 1000);
        assert!(
            load.mean_wait() > alu.mean_wait(),
            "chained loads must wait longer than free ALU ops: {} vs {}",
            load.mean_wait(),
            alu.mean_wait()
        );
    }

    /// Warmup removes compulsory-miss pollution: a cache-resident
    /// workload shows near-zero long misses after warmup, and the
    /// accounting (instructions, slot totals, occupancy samples) stays
    /// exact over the measured region.
    #[test]
    fn warmup_removes_compulsory_misses() {
        let trace = micro::memory_kernel(40_000, 16 * 1024, 4, false, 9);
        let cold = Simulator::new(presets::baseline_4wide()).run(&trace);
        let warm =
            Simulator::with_options(presets::baseline_4wide(), SimOptions::with_warmup(10_000))
                .run(&trace);
        // The boundary lands on a commit-group edge, so up to
        // commit_width-1 extra ops may fall on the warmup side.
        assert!((29_990..=30_000).contains(&warm.instructions));
        assert!(
            warm.hierarchy.long_dmisses * 5 < cold.hierarchy.long_dmisses.max(1),
            "warmup should shed compulsory misses: {} vs {}",
            warm.hierarchy.long_dmisses,
            cold.hierarchy.long_dmisses
        );
        // Accounting invariants hold over the measured region, modulo
        // the instructions in flight when the boundary was crossed.
        let in_flight = u64::from(presets::baseline_4wide().rob_size);
        assert!(warm.slots.used <= warm.instructions);
        assert!(warm.instructions - warm.slots.used <= in_flight);
        let occ: u64 = warm.rob_occupancy.iter().sum();
        assert_eq!(occ, warm.cycles);
        let issued: u64 = warm.class_issue.iter().map(|c| c.issued).sum();
        assert!(warm.instructions - issued <= in_flight);
    }

    /// Zero warmup behaves exactly like the default.
    #[test]
    fn zero_warmup_is_identity() {
        let trace = micro::chain_kernel(5_000, 2, 32, OpClass::IntAlu);
        let a = Simulator::new(presets::test_tiny()).run(&trace);
        let b =
            Simulator::with_options(presets::test_tiny(), SimOptions::with_warmup(0)).run(&trace);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn max_cycles_guard_stops_runs() {
        let trace = micro::chain_kernel(100_000, 1, 64, OpClass::IntAlu);
        let opts = SimOptions {
            max_cycles: 100,
            ..SimOptions::default()
        };
        let err = run_event(&Simulator::with_options(perfect_tiny(), opts), &trace).unwrap_err();
        let SimError::BudgetExceeded(f) = err;
        assert_eq!(f.budget, 100);
        assert_eq!(f.cycle, 100);
        assert_eq!(f.trace_ops, 100_000);
        assert!(f.committed < 100_000);
        // A serial dependence chain keeps the window mostly full while
        // the watchdog ticks down; the snapshot must see real state.
        assert!(f.fetched >= f.committed);
    }

    /// A run that fits its budget is unaffected by the watchdog: results
    /// with a generous explicit budget are bit-identical to the default.
    #[test]
    fn budget_is_inert_when_not_tripped() {
        let trace = micro::chain_kernel(5_000, 2, 32, OpClass::IntAlu);
        let plain = Simulator::new(presets::test_tiny()).run(&trace);
        let budgeted =
            Simulator::with_options(presets::test_tiny(), SimOptions::with_max_cycles(1 << 40))
                .run(&trace);
        assert_eq!(plain, budgeted);
    }

    /// The RAS predicts matched call/return pairs; unmatched returns
    /// mispredict.
    #[test]
    fn returns_predicted_via_ras() {
        let mut b = TraceBuilder::new();
        // call (0x100 -> 0x200), body, return (0x208 -> 0x104), repeated.
        for _ in 0..500 {
            b.push(MicroOp::branch(
                0x100,
                BranchKind::Call,
                true,
                0x200,
                [None, None],
            ))
            .unwrap();
            b.push(MicroOp::alu(0x200, OpClass::IntAlu, [None, None]))
                .unwrap();
            b.push(MicroOp::alu(0x204, OpClass::IntAlu, [None, None]))
                .unwrap();
            b.push(MicroOp::branch(
                0x208,
                BranchKind::Return,
                true,
                0x104,
                [None, None],
            ))
            .unwrap();
            b.push(MicroOp::branch(
                0x104,
                BranchKind::Jump,
                true,
                0x100,
                [None, None],
            ))
            .unwrap();
        }
        let trace = b.finish();
        let res = Simulator::new(presets::baseline_4wide()).run(&trace);
        assert!(
            res.mispredicts.is_empty(),
            "balanced call/return should be RAS-predicted, got {} misses",
            res.mispredicts.len()
        );
    }

    /// The event-driven engine and the reference engine agree bit-for-bit
    /// across structurally different kernels and configurations. (The
    /// proptest in `tests/engine_equivalence.rs` covers random profiles;
    /// this pins the named micro-kernels deterministically.)
    #[test]
    fn engines_agree_on_micro_kernels() {
        let traces = vec![
            micro::chain_kernel(8_000, 4, 32, OpClass::IntAlu),
            micro::chain_kernel(3_000, 1, 64, OpClass::IntMul),
            micro::branch_resolution_kernel(8_000, 8, 0.5, 7),
            micro::memory_kernel(6_000, 8 * 1024 * 1024, 4, false, 9),
            micro::memory_kernel(6_000, 512, 2, true, 1),
        ];
        let configs = vec![
            presets::test_tiny(),
            presets::baseline_4wide(),
            presets::baseline_4wide()
                .to_builder()
                .predictor(PredictorConfig::AlwaysNotTaken)
                .build()
                .unwrap(),
        ];
        for trace in &traces {
            for cfg in &configs {
                let sim = Simulator::new(cfg.clone());
                let fast = run_event(&sim, trace);
                let slow = sim.try_run_reference(trace);
                assert_eq!(fast, slow, "engines diverged on {cfg:?}");
            }
        }
    }

    /// Engine agreement holds under warmup and timeline options too —
    /// the statistics reset and per-cycle recording interact with
    /// idle-cycle skipping.
    #[test]
    fn engines_agree_with_options() {
        let trace = micro::memory_kernel(20_000, 16 * 1024, 4, false, 9);
        for opts in [
            SimOptions::with_timeline(),
            SimOptions::with_warmup(5_000),
            SimOptions {
                record_dispatch_timeline: true,
                max_cycles: 2_000,
                warmup_ops: 1_000,
            },
        ] {
            let sim = Simulator::with_options(presets::baseline_4wide(), opts);
            let fast = run_event(&sim, &trace);
            let slow = sim.try_run_reference(&trace);
            assert_eq!(fast, slow, "engines diverged with {opts:?}");
        }
    }

    /// A prebuilt superblock map produces the same result as the on-the-
    /// fly path, and the phased API reports non-degenerate timings.
    #[test]
    fn prebuilt_superblock_map_matches() {
        let trace = micro::branch_resolution_kernel(10_000, 4, 0.5, 3);
        let ct = trace.compile();
        let sim = Simulator::new(presets::baseline_4wide());
        let sb = SuperblockMap::build(&ct, sim.config().caches.l1i().line_bytes());
        let plain = sim.run(&trace);
        let with_map = sim.try_run_compiled_with(&ct, &sb).unwrap();
        assert_eq!(plain, with_map);
        let (phased, phases) = sim.try_run_compiled_phased(&ct, &sb).unwrap();
        assert_eq!(plain, phased);
        assert!(phases.execute_ns > 0, "cycle loop took measurable time");
    }

    /// Handing a map built for a different line size is a programming
    /// error and must fail loudly, not corrupt timing silently.
    #[test]
    #[should_panic(expected = "different L1I line size")]
    fn mismatched_superblock_map_panics() {
        let trace = micro::chain_kernel(100, 2, 16, OpClass::IntAlu);
        let ct = trace.compile();
        let sim = Simulator::new(presets::baseline_4wide());
        let wrong_line = sim.config().caches.l1i().line_bytes() * 2;
        let sb = SuperblockMap::build(&ct, wrong_line);
        let _ = sim.try_run_compiled_with(&ct, &sb);
    }

    /// Idle-cycle skipping must stop exactly at the budget cutoff even
    /// when the next event lies beyond it — and the forensic snapshot of
    /// the abort must match the reference engine's bit-for-bit.
    #[test]
    fn max_cycles_is_exact_under_skipping() {
        // Long memory misses create big skippable gaps.
        let trace = micro::memory_kernel(50_000, 64 * 1024 * 1024, 1, false, 3);
        let opts = SimOptions {
            max_cycles: 777,
            ..SimOptions::default()
        };
        let sim = Simulator::with_options(presets::test_tiny(), opts);
        let fast = run_event(&sim, &trace).unwrap_err();
        let SimError::BudgetExceeded(f) = fast;
        assert_eq!(f.cycle, 777, "skipping overshot the budget");
        assert_eq!(
            SimError::BudgetExceeded(f),
            sim.try_run_reference(&trace).unwrap_err()
        );
    }
}
