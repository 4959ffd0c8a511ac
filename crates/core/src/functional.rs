//! The timing-free functional frontend pass.
//!
//! Interval analysis needs to know *where* the miss events are and *which*
//! loads are short misses — but none of that requires cycle-level timing:
//! it only requires running the predictor and the caches over the
//! instruction stream in order. This pass does exactly that, making the
//! analytical model fully standalone.
//!
//! Branches resolve through [`BranchUnit::resolve`], the routine the
//! event-driven simulator's fetch stage calls, in the same trace order,
//! so the pass flags exactly the simulator's mispredicted branches. The
//! data caches are a different matter: the simulator performs the same
//! accesses in (out-of-order) execution order, so the two can classify
//! borderline loads differently. That divergence is part of what
//! experiment E-F10 quantifies.

use bmp_branch::{BranchStats, BranchUnit, InlinePredictor, Resolution};
use bmp_cache::{DataOutcome, MemoryHierarchy};
use bmp_trace::OpView;
use bmp_uarch::{MachineConfig, OpClass};

use crate::intervals::{IntervalEvent, IntervalEventKind};

/// Everything the functional pass learns about a trace under a machine
/// configuration.
///
/// Per-load latencies are kept in compact form: one level byte per op
/// plus the latency of each level, read through
/// [`load_latency`](FunctionalOutcome::load_latency). The hierarchy
/// charges every access that ends at a level the same latency, so the
/// form is exact.
#[derive(Debug, Clone)]
pub struct FunctionalOutcome {
    /// Miss events in trace order (mispredicted branches, I-cache misses,
    /// long D-cache misses).
    pub events: Vec<IntervalEvent>,
    /// Per op: [`NOT_A_LOAD`] or the level that served the load
    /// (1 = L1 hit, 2 = short miss, 3 = long miss).
    load_levels: Vec<u8>,
    /// Latency of each level, indexed by level (slot 0 unused).
    level_latency: [u32; 4],
    /// Direction-prediction accounting from the pass.
    pub branch_stats: BranchStats,
}

/// The level byte of an op that is not a load.
const NOT_A_LOAD: u8 = 0;

/// The level byte of a load served with `outcome`.
fn load_level(outcome: DataOutcome) -> u8 {
    match outcome {
        DataOutcome::L1Hit => 1,
        DataOutcome::ShortMiss => 2,
        DataOutcome::LongMiss => 3,
    }
}

impl FunctionalOutcome {
    /// Runs the functional pass of `cfg`'s predictor and caches over
    /// `trace`, in either layout.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn compute<T: OpView + ?Sized>(trace: &T, cfg: &MachineConfig) -> Self {
        cfg.validate().expect("machine configuration must be valid");
        let mut branches = BranchUnit::new(cfg, InlinePredictor::build(&cfg.predictor));
        let mut mem = MemoryHierarchy::new(&cfg.caches);
        let line_mask = !u64::from(cfg.caches.l1i().line_bytes() - 1);
        let mut current_line = u64::MAX;

        let mut events = Vec::new();
        let mut load_levels = vec![NOT_A_LOAD; trace.len()];
        let mut level_latency = [0u32; 4];

        for (idx, load_level_at) in load_levels.iter_mut().enumerate() {
            let pc = trace.pc(idx);
            // Instruction side, per line.
            let line = pc & line_mask;
            if line != current_line {
                current_line = line;
                let access = mem.fetch_access(pc);
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
            match trace.class(idx) {
                OpClass::Load => {
                    let addr = trace.mem_addr(idx).expect("loads carry addresses");
                    let access = mem.data_access_at(pc, addr);
                    let level = load_level(access.outcome);
                    let slot = &mut level_latency[usize::from(level)];
                    debug_assert!(
                        *slot == 0 || *slot == access.latency,
                        "one latency per level"
                    );
                    *slot = access.latency;
                    *load_level_at = level;
                    if access.outcome.is_long_miss() {
                        events.push(IntervalEvent {
                            pos: idx,
                            kind: IntervalEventKind::LongDCacheMiss,
                        });
                    }
                }
                OpClass::Store => {
                    let addr = trace.mem_addr(idx).expect("stores carry addresses");
                    let _ = mem.data_access_at(pc, addr);
                }
                _ => {}
            }
            // Branch side.
            if let Some(info) = trace.branch_info(idx) {
                if branches.resolve(pc, info) == Resolution::Mispredict {
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
            load_levels,
            level_latency,
            branch_stats: branches.stats(),
        }
    }

    /// The heap bytes of the miss events and the per-op load levels.
    pub fn heap_bytes(&self) -> u64 {
        bmp_trace::vec_bytes(&self.events) + bmp_trace::vec_bytes(&self.load_levels)
    }

    /// A fingerprint of exactly the configuration fields the pass reads:
    /// the caches, the direction and indirect predictors, the BTB and
    /// the RAS. Configurations that differ only in timing (depth,
    /// widths, window, latencies) share one outcome.
    pub fn config_fingerprint(cfg: &MachineConfig) -> u64 {
        bmp_uarch::fp::fingerprint_debug(&(
            &cfg.caches,
            &cfg.predictor,
            &cfg.indirect_predictor,
            cfg.btb_entries,
            cfg.ras_entries,
        ))
    }

    /// The latency the pass recorded for the load at op `idx`, or
    /// `None` when op `idx` is not a load.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is past the end of the analyzed trace.
    #[inline]
    pub fn load_latency(&self, idx: usize) -> Option<u32> {
        let level = self.load_levels[idx];
        let latency = self.level_latency[usize::from(level)];
        (level != NOT_A_LOAD).then_some(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_trace::Trace;
    use bmp_uarch::{presets, PredictorConfig};
    use bmp_workloads::{micro, spec};

    /// The branches the interval model analyzes: one breakdown per
    /// mispredicted branch of the functional pass.
    fn mispredicted(trace: &Trace, cfg: &MachineConfig) -> Vec<usize> {
        let analysis = crate::PenaltyModel::new(cfg.clone()).analyze(trace);
        analysis.breakdowns.iter().map(|b| b.branch_idx).collect()
    }

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
        let out = FunctionalOutcome::compute(trace.ops(), &tiny_perfect());
        assert!(out
            .events
            .iter()
            .all(|e| e.kind != IntervalEventKind::BranchMispredict));
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
        assert_eq!(
            mispredicted(&trace, &cfg),
            trace.conditional_branch_indices()
        );
    }

    /// An indirect jump and a taken conditional alias in a 4-entry BTB
    /// and call each other. The conditional's first instance
    /// mispredicts and must not evict the jump's entry, so the jump's
    /// second instance hits; the conditional's correctly predicted
    /// second instance installs its target, so the third jump misses.
    #[test]
    fn btb_updates_follow_the_engines() {
        use bmp_sim::Simulator;
        use bmp_trace::{BranchKind, MicroOp, SuperblockMap, TraceBuilder};

        let (jump, cond) = (0x40, 0x0); // both BTB slot 0
        let mut b = TraceBuilder::new();
        for _ in 0..3 {
            b.push(MicroOp::branch(
                jump,
                BranchKind::IndirectJump,
                true,
                cond,
                [None, None],
            ))
            .unwrap();
            b.push(MicroOp::branch(
                cond,
                BranchKind::Conditional,
                true,
                jump,
                [None, None],
            ))
            .unwrap();
        }
        b.push(MicroOp::alu(jump, OpClass::IntAlu, [None, None]))
            .unwrap();
        let trace = b.finish();
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::Bimodal { entries: 1024 })
            .btb_entries(4)
            .build()
            .unwrap();

        // Op 0's fetch also misses the cold I-cache; the model still
        // analyzes the misprediction there.
        let model = mispredicted(&trace, &cfg);
        assert_eq!(model, [0, 1, 4]);
        let sim = Simulator::new(cfg.clone());
        let ct = trace.compile();
        let sb = SuperblockMap::build(&ct, cfg.caches.l1i().line_bytes());
        for res in [
            sim.try_run_compiled_with(&ct, &sb).unwrap(),
            sim.try_run_reference(&trace).unwrap(),
        ] {
            let sim_positions: Vec<usize> = res.mispredicts.iter().map(|m| m.branch_idx).collect();
            assert_eq!(model, sim_positions);
        }
    }

    #[test]
    fn load_latencies_cover_exactly_the_loads() {
        let trace = micro::memory_kernel(5_000, 4096, 4, false, 2);
        let out = FunctionalOutcome::compute(trace.ops(), &tiny_perfect());
        for (idx, op) in trace.iter().enumerate() {
            assert_eq!(
                out.load_latency(idx).is_some(),
                op.class() == OpClass::Load,
                "latency presence mismatch at {idx}"
            );
        }
    }

    #[test]
    fn big_working_set_yields_long_miss_events() {
        let trace = micro::memory_kernel(5_000, 16 * 1024 * 1024, 4, false, 2);
        let out = FunctionalOutcome::compute(trace.ops(), &tiny_perfect());
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
        let out = FunctionalOutcome::compute(trace.ops(), &cfg);
        let l1_hit = cfg.caches.l1d().hit_latency();
        let lats: Vec<u32> = (0..trace.len())
            .filter_map(|i| out.load_latency(i))
            .collect();
        let hits = lats.iter().filter(|&&l| l == l1_hit).count();
        let loads = lats.len();
        assert!(hits as f64 > loads as f64 * 0.95);
    }

    #[test]
    fn fingerprint_covers_exactly_the_fields_the_pass_reads() {
        let base = presets::baseline_4wide();
        let fp = FunctionalOutcome::config_fingerprint;
        let timing_only = base
            .to_builder()
            .frontend_depth(20)
            .window_size(128)
            .rob_size(256)
            .latencies(bmp_uarch::LatencyTable::default().scaled(2.0))
            .build()
            .unwrap();
        assert_eq!(fp(&timing_only), fp(&base));
        let mut caches = base.clone();
        caches.caches = presets::l1d_sized(8 * 1024).unwrap().caches;
        let mut predictor = base.clone();
        predictor.predictor = PredictorConfig::AlwaysNotTaken;
        let mut indirect = base.clone();
        indirect.indirect_predictor = bmp_uarch::IndirectPredictorConfig::GTarget {
            entries: 256,
            history_bits: 8,
        };
        let mut btb = base.clone();
        btb.btb_entries *= 2;
        let mut ras = base.clone();
        ras.ras_entries += 1;
        for (field, cfg) in [
            ("caches", caches),
            ("predictor", predictor),
            ("indirect predictor", indirect),
            ("btb", btb),
            ("ras", ras),
        ] {
            assert_ne!(fp(&cfg), fp(&base), "{field}");
        }
    }

    #[test]
    fn events_are_sorted_by_position() {
        let trace = spec::by_name("gcc").unwrap().generate(30_000, 9);
        let out = FunctionalOutcome::compute(trace.ops(), &presets::baseline_4wide());
        assert!(out.events.windows(2).all(|w| w[0].pos <= w[1].pos));
        assert!(!out.events.is_empty(), "gcc-like trace should have events");
    }
}
