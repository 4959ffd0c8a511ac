//! Per-static-branch (per-PC) introspection of a compiled trace.
//!
//! The interval model and the simulators consume traces *dynamically* —
//! one op at a time. The static analyzer additionally needs the *static*
//! view: every branch site (unique PC) with its execution count and
//! taken/not-taken split, the raw material for taken-rate entropy,
//! history-sensitivity probes and H2P flagging (see
//! `docs/STATIC_ANALYSIS.md`).
//!
//! # Examples
//!
//! ```
//! use bmp_trace::{sites, MicroOp, Trace, BranchKind};
//!
//! let t: Trace = vec![
//!     MicroOp::branch(0x10, BranchKind::Conditional, true, 0x40, [None, None]),
//!     MicroOp::branch(0x10, BranchKind::Conditional, false, 0x40, [None, None]),
//! ]
//! .into_iter()
//! .collect();
//! let stats = sites::branch_sites(&t.compile());
//! assert_eq!(stats.len(), 1);
//! assert_eq!(stats[0].executions, 2);
//! assert_eq!(stats[0].taken, 1);
//! ```

use std::collections::HashMap;

use crate::compiled::CompiledTrace;
use crate::op::BranchKind;

/// Aggregate statistics for one static branch site (unique branch PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchSiteStats {
    /// The site's program counter.
    pub pc: u64,
    /// Control-transfer flavor (from the site's first dynamic instance;
    /// the workload generator never reuses a PC across kinds).
    pub kind: BranchKind,
    /// Dynamic executions of this site.
    pub executions: u64,
    /// How many of those executions were taken.
    pub taken: u64,
}

impl BranchSiteStats {
    /// Fraction of executions that were taken.
    pub fn taken_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.taken as f64 / self.executions as f64
        }
    }
}

/// Groups every branch of `trace` by PC, in increasing PC order.
///
/// All branch kinds are included; conditional sites are the ones whose
/// direction statistics feed the predictability classifier.
pub fn branch_sites(trace: &CompiledTrace) -> Vec<BranchSiteStats> {
    let mut by_pc: HashMap<u64, BranchSiteStats> = HashMap::new();
    for i in 0..trace.len() {
        let Some(info) = trace.branch_info(i) else {
            continue;
        };
        let pc = trace.pc(i);
        let e = by_pc.entry(pc).or_insert(BranchSiteStats {
            pc,
            kind: info.kind,
            executions: 0,
            taken: 0,
        });
        e.executions += 1;
        e.taken += u64::from(info.taken);
    }
    let mut out: Vec<BranchSiteStats> = by_pc.into_values().collect();
    out.sort_by_key(|s| s.pc);
    out
}

/// Binary entropy `H(p)` in bits: 0 for a fully biased direction, 1 for
/// a coin flip.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Ideal accuracy of a per-history majority table over `outcomes` with
/// `bits` outcomes of local history: every history context predicts its
/// most frequent successor. This upper-bounds any real predictor with
/// the same history length, which is exactly what a *static* sensitivity
/// probe needs. Empty sequences score 1.0 (nothing to mispredict).
pub fn ideal_history_accuracy(outcomes: &[bool], bits: u32) -> f64 {
    if outcomes.is_empty() {
        return 1.0;
    }
    let mask: u64 = (1u64 << bits) - 1;
    // counts[history] = (taken, not taken)
    let mut counts: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut hist = 0u64;
    for &taken in outcomes {
        let e = counts.entry(hist).or_default();
        if taken {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
        hist = ((hist << 1) | u64::from(taken)) & mask;
    }
    let correct: u64 = counts.values().map(|&(t, n)| t.max(n)).sum();
    correct as f64 / outcomes.len() as f64
}

/// The dynamic outcome sequence (taken = `true`) of every *conditional*
/// branch site, keyed by PC — the input to history-length-sensitivity
/// probes. Sequences preserve trace order.
pub fn conditional_outcome_sequences(trace: &CompiledTrace) -> Vec<(u64, Vec<bool>)> {
    let mut by_pc: HashMap<u64, Vec<bool>> = HashMap::new();
    for i in 0..trace.len() {
        let Some(info) = trace.branch_info(i) else {
            continue;
        };
        if info.kind.is_conditional() {
            by_pc.entry(trace.pc(i)).or_default().push(info.taken);
        }
    }
    let mut out: Vec<(u64, Vec<bool>)> = by_pc.into_iter().collect();
    out.sort_by_key(|&(pc, _)| pc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MicroOp;
    use crate::trace::Trace;
    use bmp_uarch::OpClass;

    fn mixed_trace() -> Trace {
        vec![
            MicroOp::branch(0x10, BranchKind::Conditional, true, 0x40, [None, None]),
            MicroOp::alu(0x14, OpClass::IntAlu, [None, None]),
            MicroOp::branch(0x10, BranchKind::Conditional, false, 0x40, [None, None]),
            MicroOp::branch(0x20, BranchKind::Jump, true, 0x80, [None, None]),
            MicroOp::branch(0x10, BranchKind::Conditional, true, 0x40, [None, None]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn sites_group_and_sort() {
        let stats = branch_sites(&mixed_trace().compile());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].pc, 0x10);
        assert_eq!(stats[0].executions, 3);
        assert_eq!(stats[0].taken, 2);
        assert!(stats[0].kind.is_conditional());
        assert!((stats[0].taken_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats[1].pc, 0x20);
        assert_eq!(stats[1].kind, BranchKind::Jump);
        assert_eq!(stats[1].taken_rate(), 1.0);
    }

    #[test]
    fn outcome_sequences_are_conditional_only_and_ordered() {
        let seqs = conditional_outcome_sequences(&mixed_trace().compile());
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].0, 0x10);
        assert_eq!(seqs[0].1, vec![true, false, true]);
    }

    #[test]
    fn empty_trace_has_no_sites() {
        assert!(branch_sites(&Trace::new().compile()).is_empty());
        assert!(conditional_outcome_sequences(&Trace::new().compile()).is_empty());
    }

    #[test]
    fn entropy_shape() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.1) < binary_entropy(0.3));
    }

    #[test]
    fn ideal_accuracy_probe() {
        let alternating: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        assert!(ideal_history_accuracy(&alternating, 0) <= 0.5 + 1e-9);
        assert!(ideal_history_accuracy(&alternating, 1) > 0.95);
        let constant = vec![true; 64];
        assert_eq!(ideal_history_accuracy(&constant, 0), 1.0);
        assert_eq!(ideal_history_accuracy(&[], 8), 1.0);
    }
}
