//! The interval-model CPI stack.
//!
//! Interval analysis predicts total execution time as ideal time plus a
//! penalty per miss event:
//!
//! * **base** — `N / D` cycles for `N` instructions at dispatch width `D`;
//! * **branch** — per misprediction, `resolution + c_fe` from the
//!   [`penalty`](crate::penalty) model;
//! * **icache** — per I-cache miss, the fetch-delivery delay of the level
//!   that served it;
//! * **long D-miss** — per *isolated* long data miss, the memory latency;
//!   long misses within one window-span of instructions of each other
//!   overlap (memory-level parallelism) and are charged once.
//!
//! The stack is a first-order model: it deliberately ignores second-order
//! interactions (penalty overlap across event kinds), which is exactly the
//! approximation the paper's framework makes.

use bmp_trace::{OpView, Trace};
use bmp_uarch::MachineConfig;
use serde::{Deserialize, Serialize};

use crate::functional::FunctionalOutcome;
use crate::intervals::{segment, IntervalEventKind};
use crate::penalty::{PenaltyBreakdown, PenaltyModel};

/// Predicted cycle counts per component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpiStack {
    /// Instructions the stack covers.
    pub instructions: u64,
    /// Ideal dispatch-bound cycles (`N / D`).
    pub base_cycles: f64,
    /// Branch misprediction cycles (resolution + refill, summed).
    pub branch_cycles: f64,
    /// I-cache miss cycles.
    pub icache_cycles: f64,
    /// Long D-cache miss cycles after the MLP overlap rule.
    pub long_dmiss_cycles: f64,
}

impl CpiStack {
    /// Total predicted cycles.
    pub fn total_cycles(&self) -> f64 {
        self.base_cycles + self.branch_cycles + self.icache_cycles + self.long_dmiss_cycles
    }

    /// Predicted cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.total_cycles() / self.instructions as f64
        }
    }

    /// The component CPIs `(base, branch, icache, long_dmiss)`.
    pub fn components(&self) -> (f64, f64, f64, f64) {
        if self.instructions == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let n = self.instructions as f64;
        (
            self.base_cycles / n,
            self.branch_cycles / n,
            self.icache_cycles / n,
            self.long_dmiss_cycles / n,
        )
    }
}

/// Builds the CPI stack for a trace on a machine.
///
/// Runs the functional pass and the penalty model's local pass
/// ([`PenaltyModel::analyze_local`]) internally; use [`predict_with`]
/// to reuse existing results.
///
/// # Examples
///
/// ```
/// use bmp_core::cpi;
/// use bmp_uarch::presets;
/// use bmp_workloads::spec;
///
/// let trace = spec::by_name("gzip").unwrap().generate(20_000, 1);
/// let stack = cpi::predict(&trace, &presets::baseline_4wide());
/// assert!(stack.cpi() >= 0.25); // cannot beat the 4-wide ideal
/// ```
pub fn predict(trace: &Trace, cfg: &MachineConfig) -> CpiStack {
    let ops = trace.ops();
    let outcome = FunctionalOutcome::compute(ops, cfg);
    let intervals = segment(0..ops.len(), &outcome.events);
    let model = PenaltyModel::new(cfg.clone());
    let breakdowns: Vec<_> = model.analyze_local(ops, &outcome, &intervals).collect();
    predict_with(ops, cfg, &outcome, &breakdowns)
}

/// Builds the CPI stack of a trace, in either layout, from an existing
/// functional pass and the penalty breakdowns of the same trace on the
/// same machine — those of a full analysis or of the local pass alone,
/// since the stack reads only their local terms.
pub fn predict_with<T: OpView + ?Sized>(
    trace: &T,
    cfg: &MachineConfig,
    outcome: &FunctionalOutcome,
    breakdowns: &[PenaltyBreakdown],
) -> CpiStack {
    // First-order stack: the *local* resolution per misprediction, so
    // overlap with other events (already counted in their own
    // components) is not double-charged.
    let branch_cycles: f64 = breakdowns
        .iter()
        .map(|b| (b.local_resolution + u64::from(b.frontend)) as f64)
        .sum();

    let short_ifetch = f64::from(cfg.caches.short_dmiss_latency());
    let long_ifetch = f64::from(cfg.caches.short_dmiss_latency() + cfg.caches.mem_latency());
    let mut icache_cycles = 0.0;
    let mut long_positions = Vec::new();
    for e in &outcome.events {
        match e.kind {
            IntervalEventKind::ICacheMiss => icache_cycles += short_ifetch,
            IntervalEventKind::ICacheLongMiss => icache_cycles += long_ifetch,
            IntervalEventKind::LongDCacheMiss => long_positions.push(e.pos),
            IntervalEventKind::BranchMispredict => {}
        }
    }

    // MLP rule: a long miss within one window-span of the previous
    // *charged* long miss overlaps with it and is free — unless its
    // address depends on that miss (a pointer chase), in which case the
    // two serialize and both are charged. Dependence is detected by a
    // bounded walk up the register-dependence DAG.
    let window = cfg.window_size as usize;
    let mem = f64::from(cfg.caches.mem_latency());
    let mut long_dmiss_cycles = 0.0;
    let mut last_charged: Option<usize> = None;
    let mut last_long: Option<usize> = None;
    for &pos in &long_positions {
        let in_window = last_charged.is_some_and(|lc| pos - lc < window);
        let chased = last_long.is_some_and(|prev| depends_on(trace, pos, prev, 3));
        if !in_window {
            long_dmiss_cycles += mem;
            last_charged = Some(pos);
        } else if chased {
            // A chased miss serializes behind its producer, but its wait
            // overlaps the window refill the producer already paid for.
            long_dmiss_cycles += (mem - window as f64 / f64::from(cfg.dispatch_width)).max(0.0);
            last_charged = Some(pos);
        }
        last_long = Some(pos);
    }

    CpiStack {
        instructions: trace.len() as u64,
        base_cycles: trace.len() as f64 / f64::from(cfg.dispatch_width),
        branch_cycles,
        icache_cycles,
        long_dmiss_cycles,
    }
}

/// Predicts total execution cycles via the whole-trace schedule
/// ("interval simulation") rather than the additive stack — slower than
/// [`predict`] but capturing event overlap, so it tracks the cycle-level
/// simulator more closely. A penalty analysis of the same trace and
/// machine already holds this figure as
/// [`PenaltyAnalysis::scheduled_cycles`](crate::PenaltyAnalysis::scheduled_cycles).
///
/// # Examples
///
/// ```
/// use bmp_core::cpi;
/// use bmp_uarch::presets;
/// use bmp_workloads::spec;
///
/// let trace = spec::by_name("gzip").unwrap().generate(10_000, 1);
/// let cfg = presets::baseline_4wide();
/// let cycles = cpi::predict_cycles_scheduled(&trace, &cfg);
/// assert!(cycles as usize >= trace.len() / 4);
/// ```
pub fn predict_cycles_scheduled(trace: &Trace, cfg: &MachineConfig) -> u64 {
    let ops = trace.ops();
    let outcome = FunctionalOutcome::compute(ops, cfg);
    let events = crate::penalty::frontend_events_of(cfg, &outcome);
    let mut cycles = 0;
    crate::drain::schedule_trace(
        ops,
        crate::drain::MachineModel::from(cfg),
        &cfg.latencies,
        |i| outcome.load_latency(i),
        &events,
        |_, t| cycles = cycles.max(t.done),
    );
    cycles
}

/// Returns `true` when `consumer`'s value transitively depends on
/// `producer` within `max_hops` dependence edges — the bounded DAG walk
/// behind the chase-serialization rule. A small hop bound targets
/// *address* dependences (pointer chases) rather than arbitrary value
/// flow.
fn depends_on<T: OpView + ?Sized>(
    trace: &T,
    consumer: usize,
    producer: usize,
    max_hops: u32,
) -> bool {
    if consumer <= producer {
        return false;
    }
    let mut stack = vec![(consumer, 0u32)];
    while let Some((node, hops)) = stack.pop() {
        if hops >= max_hops {
            continue;
        }
        for src in trace.producers(node) {
            let src = src as usize;
            if src >= node {
                continue; // no producer in this slot
            }
            if src == producer {
                return true;
            }
            if src > producer {
                stack.push((src, hops + 1));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_uarch::{presets, PredictorConfig};
    use bmp_workloads::{micro, spec};

    #[test]
    fn ideal_code_is_base_only() {
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::Perfect)
            .build()
            .unwrap();
        let trace = micro::chain_kernel(20_000, 16, 63, bmp_uarch::OpClass::IntAlu);
        let stack = predict(&trace, &cfg);
        assert_eq!(stack.branch_cycles, 0.0);
        assert_eq!(stack.long_dmiss_cycles, 0.0);
        // Cold I-misses only.
        assert!(stack.icache_cycles < 2000.0);
        assert!((stack.base_cycles - 5000.0).abs() < 1e-9);
        assert!(stack.cpi() < 0.4);
    }

    #[test]
    fn branch_component_tracks_mispredictions() {
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let trace = micro::branch_resolution_kernel(20_000, 8, 1.0, 3);
        let stack = predict(&trace, &cfg);
        // ~2200 mispredictions at >= 6 cycles each.
        assert!(
            stack.branch_cycles > 10_000.0,
            "branch cycles {}",
            stack.branch_cycles
        );
        let (_, branch_cpi, _, _) = stack.components();
        assert!(branch_cpi > 0.5);
    }

    #[test]
    fn mlp_rule_charges_isolated_misses_only() {
        // Dense long misses (every 16 ops, window 64): mostly overlapped.
        let cfg = presets::baseline_4wide();
        let dense = micro::memory_kernel(20_000, 64 * 1024 * 1024, 2, false, 7);
        let stack_dense = predict(&dense, &cfg);
        let outcome = FunctionalOutcome::compute(dense.ops(), &cfg);
        let n_long = outcome
            .events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::LongDCacheMiss)
            .count() as f64;
        let charged = stack_dense.long_dmiss_cycles / 200.0;
        assert!(
            charged < n_long * 0.2,
            "dense misses should mostly overlap: charged {charged} of {n_long}"
        );
    }

    #[test]
    fn serialized_chases_are_charged() {
        // Pointer chase: every long miss depends on the previous one; the
        // MLP rule's window test still sees them within a window span,
        // but chases with sparse loads (every 32 ops, window 64) show the
        // distinction between dense-independent and far-apart misses.
        let cfg = presets::baseline_4wide();
        let sparse = micro::memory_kernel(20_000, 64 * 1024 * 1024, 80, false, 7);
        let stack = predict(&sparse, &cfg);
        let outcome = FunctionalOutcome::compute(sparse.ops(), &cfg);
        let n_long = outcome
            .events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::LongDCacheMiss)
            .count() as f64;
        let charged = stack.long_dmiss_cycles / 200.0;
        assert!(
            charged > n_long * 0.8,
            "sparse misses are isolated: charged {charged} of {n_long}"
        );
    }

    /// Chased (dependent) long misses serialize: the stack charges them
    /// even inside the window span.
    #[test]
    fn chased_misses_are_charged() {
        let cfg = presets::baseline_4wide();
        // Dense chased misses: every load depends on the previous one.
        let chased = micro::memory_kernel(20_000, 64 * 1024 * 1024, 4, true, 7);
        let independent = micro::memory_kernel(20_000, 64 * 1024 * 1024, 4, false, 7);
        let s_chase = predict(&chased, &cfg);
        let s_indep = predict(&independent, &cfg);
        assert!(
            s_chase.long_dmiss_cycles > s_indep.long_dmiss_cycles * 2.0,
            "chased misses must be charged serially: {} vs {}",
            s_chase.long_dmiss_cycles,
            s_indep.long_dmiss_cycles
        );
    }

    #[test]
    fn depends_on_walks_the_dag() {
        use bmp_trace::MicroOp;
        use bmp_uarch::OpClass;
        let ops = vec![
            MicroOp::load(0, 0x100, [None, None]),             // 0
            MicroOp::alu(4, OpClass::IntAlu, [Some(1), None]), // 1 <- 0
            MicroOp::alu(8, OpClass::IntAlu, [Some(1), None]), // 2 <- 1
            MicroOp::load(12, 0x200, [Some(1), None]),         // 3 <- 2
            MicroOp::load(16, 0x300, [None, None]),            // 4 independent
        ];
        let t = Trace::from_ops_unchecked(ops);
        assert!(depends_on(t.ops(), 3, 0, 8), "3 -> 2 -> 1 -> 0");
        assert!(!depends_on(t.ops(), 4, 0, 8), "4 is independent");
        assert!(!depends_on(t.ops(), 3, 0, 2), "hop bound respected");
        assert!(!depends_on(t.ops(), 0, 3, 8), "direction matters");
    }

    #[test]
    fn components_sum_to_total() {
        let trace = spec::by_name("gcc").unwrap().generate(20_000, 3);
        let stack = predict(&trace, &presets::baseline_4wide());
        let (b, br, ic, dm) = stack.components();
        assert!(((b + br + ic + dm) - stack.cpi()).abs() < 1e-9);
        assert!(stack.cpi() > 0.25);
    }

    #[test]
    fn empty_trace() {
        let stack = predict(&Trace::new(), &presets::baseline_4wide());
        assert_eq!(stack.cpi(), 0.0);
        assert_eq!(stack.components(), (0.0, 0.0, 0.0, 0.0));
    }
}
