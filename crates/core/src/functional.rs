//! The timing-free functional frontend pass.
//!
//! Interval analysis needs to know *where* the miss events are and *which*
//! loads are short misses — but none of that requires cycle-level timing:
//! it only requires running the predictor and the caches over the
//! instruction stream in order. This pass does exactly that, making the
//! analytical model fully standalone.
//!
//! The pass is the model's view of the machine; the cycle-level simulator
//! performs the same accesses in (out-of-order) execution order, so the
//! two can classify borderline accesses differently. That divergence is
//! part of what experiment E-F10 quantifies.

use bmp_branch::{build_predictor, BranchStats, Btb, IndirectPredictor, ReturnAddressStack};
use bmp_cache::MemoryHierarchy;
use bmp_trace::{BranchKind, Trace};
use bmp_uarch::{MachineConfig, OpClass};

use crate::intervals::{IntervalEvent, IntervalEventKind};

/// Everything the functional pass learns about a trace under a machine
/// configuration.
#[derive(Debug, Clone)]
pub struct FunctionalOutcome {
    /// Miss events in trace order (mispredicted branches, I-cache misses,
    /// long D-cache misses).
    pub events: Vec<IntervalEvent>,
    /// For every op index that is a load, its latency in cycles
    /// (`None` for non-loads).
    pub load_latency: Vec<Option<u32>>,
    /// Direction-prediction accounting from the pass.
    pub branch_stats: BranchStats,
}

impl FunctionalOutcome {
    /// Runs the functional pass of `cfg`'s predictor and caches over
    /// `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn compute(trace: &Trace, cfg: &MachineConfig) -> Self {
        cfg.validate().expect("machine configuration must be valid");
        let mut predictor = build_predictor(&cfg.predictor);
        let mut ras = ReturnAddressStack::new(cfg.ras_entries);
        // The BTB must see the same update stream as the simulator's so
        // indirect-target predictions (and their aliasing) agree.
        let mut btb = Btb::new(cfg.btb_entries);
        let mut indirect = IndirectPredictor::build(&cfg.indirect_predictor);
        let mut mem = MemoryHierarchy::new(&cfg.caches);
        let mut branch_stats = BranchStats::new();
        let line_mask = !u64::from(cfg.caches.l1i().line_bytes() - 1);
        let mut current_line = u64::MAX;

        let n = trace.len();
        let mut events = Vec::new();
        let mut load_latency = vec![None; n];

        for (idx, op) in trace.iter().enumerate() {
            // Instruction side, per line.
            let line = op.pc() & line_mask;
            if line != current_line {
                current_line = line;
                let access = mem.fetch_access(op.pc());
                if access.l1i_miss {
                    events.push(IntervalEvent {
                        pos: idx,
                        kind: if access.long_miss {
                            IntervalEventKind::ICacheLongMiss
                        } else {
                            IntervalEventKind::ICacheMiss
                        },
                    });
                }
            }
            // Data side.
            match op.class() {
                OpClass::Load => {
                    let addr = op.mem_addr().expect("loads carry addresses");
                    let access = mem.data_access_at(op.pc(), addr);
                    load_latency[idx] = Some(access.latency);
                    if access.outcome.is_long_miss() {
                        events.push(IntervalEvent {
                            pos: idx,
                            kind: IntervalEventKind::LongDCacheMiss,
                        });
                    }
                }
                OpClass::Store => {
                    let addr = op.mem_addr().expect("stores carry addresses");
                    let _ = mem.data_access_at(op.pc(), addr);
                }
                _ => {}
            }
            // Branch side.
            if let Some(info) = op.branch_info() {
                let mispredicted = match info.kind {
                    BranchKind::Conditional => {
                        let pred = predictor.predict(op.pc(), info.taken);
                        branch_stats.record(pred, info.taken);
                        predictor.update(op.pc(), info.taken);
                        if info.taken {
                            btb.update(op.pc(), info.target);
                        }
                        pred != info.taken
                    }
                    BranchKind::Call => {
                        ras.push(op.pc().wrapping_add(4));
                        btb.update(op.pc(), info.target);
                        false
                    }
                    BranchKind::Return => !matches!(ras.pop(), Some(t) if t == info.target),
                    BranchKind::Jump => {
                        btb.update(op.pc(), info.target);
                        false
                    }
                    BranchKind::IndirectJump => {
                        let btb_target = btb.lookup(op.pc());
                        let predicted = indirect.predict(op.pc(), btb_target);
                        indirect.update(op.pc(), info.target);
                        btb.update(op.pc(), info.target);
                        !matches!(predicted, Some(t) if t == info.target)
                    }
                };
                if mispredicted {
                    events.push(IntervalEvent {
                        pos: idx,
                        kind: IntervalEventKind::BranchMispredict,
                    });
                }
            }
        }
        // Several events can share a position ordering already in trace
        // order because the loop is in order; enforce it anyway.
        events.sort_by_key(|e| e.pos);
        Self {
            events,
            load_latency,
            branch_stats,
        }
    }

    /// Positions of the mispredicted branches.
    pub fn mispredict_positions(&self) -> Vec<usize> {
        self.events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::BranchMispredict)
            .map(|e| e.pos)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_uarch::{presets, PredictorConfig};
    use bmp_workloads::{micro, spec};

    fn tiny_perfect() -> MachineConfig {
        presets::test_tiny()
            .to_builder()
            .predictor(PredictorConfig::Perfect)
            .build()
            .unwrap()
    }

    #[test]
    fn perfect_predictor_produces_no_branch_events() {
        let trace = micro::branch_resolution_kernel(5_000, 4, 0.5, 1);
        let out = FunctionalOutcome::compute(&trace, &tiny_perfect());
        assert!(out.mispredict_positions().is_empty());
        assert_eq!(out.branch_stats.mispredictions(), 0);
    }

    #[test]
    fn always_wrong_predictor_flags_every_conditional() {
        let trace = micro::branch_resolution_kernel(5_000, 4, 1.0, 1);
        let cfg = tiny_perfect()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let out = FunctionalOutcome::compute(&trace, &cfg);
        assert_eq!(
            out.mispredict_positions(),
            trace.conditional_branch_indices()
        );
    }

    #[test]
    fn load_latencies_cover_exactly_the_loads() {
        let trace = micro::memory_kernel(5_000, 4096, 4, false, 2);
        let out = FunctionalOutcome::compute(&trace, &tiny_perfect());
        for (idx, op) in trace.iter().enumerate() {
            assert_eq!(
                out.load_latency[idx].is_some(),
                op.class() == OpClass::Load,
                "latency presence mismatch at {idx}"
            );
        }
    }

    #[test]
    fn big_working_set_yields_long_miss_events() {
        let trace = micro::memory_kernel(5_000, 16 * 1024 * 1024, 4, false, 2);
        let out = FunctionalOutcome::compute(&trace, &tiny_perfect());
        let long = out
            .events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::LongDCacheMiss)
            .count();
        assert!(long > 500, "expected many long-miss events, got {long}");
    }

    #[test]
    fn small_working_set_is_mostly_hits() {
        let trace = micro::memory_kernel(20_000, 512, 4, false, 2);
        let cfg = tiny_perfect();
        let out = FunctionalOutcome::compute(&trace, &cfg);
        let l1_hit = cfg.caches.l1d().hit_latency();
        let hits = out
            .load_latency
            .iter()
            .flatten()
            .filter(|&&l| l == l1_hit)
            .count();
        let loads = out.load_latency.iter().flatten().count();
        assert!(hits as f64 > loads as f64 * 0.95);
    }

    #[test]
    fn events_are_sorted_by_position() {
        let trace = spec::by_name("gcc").unwrap().generate(30_000, 9);
        let out = FunctionalOutcome::compute(&trace, &presets::baseline_4wide());
        assert!(out.events.windows(2).all(|w| w[0].pos <= w[1].pos));
        assert!(!out.events.is_empty(), "gcc-like trace should have events");
    }
}
