//! Per-static-branch predictability classification and per-class
//! penalty attribution.
//!
//! Following the H2P literature ("Branch Prediction Is Not a Solved
//! Problem", "Workload Characterization for Branch Predictability"),
//! each conditional branch *site* (unique PC) is profiled from the
//! compiled trace's SoA payload arrays:
//!
//! * **taken-rate entropy** `H(p)` — how biased the site's direction is;
//! * **history-length sensitivity** — the accuracy gain of an *ideal*
//!   per-(site, history) table when the local-history length grows from
//!   0 to [`HISTORY_BITS`] bits: pattern-driven sites gain a lot,
//!   fundamentally hard sites gain little;
//! * **H2P flagging** — high-entropy sites that stay inaccurate even
//!   with history and execute often enough to matter.
//!
//! The class of each site then keys the penalty attribution: every
//! penalty breakdown of the interval model charges its exact local
//! resolution plus the frontend refill to the terminating branch's
//! class.

use std::collections::HashMap;

use bmp_core::PenaltyBreakdown;
use bmp_trace::{sites, CompiledTrace, OpView};

/// Local-history length (in branch outcomes) used by the
/// history-sensitivity probe.
pub const HISTORY_BITS: u32 = 8;

/// Minimum dynamic executions before a site can be flagged
/// hard-to-predict (thin sites are statistically meaningless).
pub const H2P_MIN_EXECUTIONS: u64 = 16;

/// Predictability class of a branch site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchClass {
    /// Strongly biased (taken rate ≥ 95% or ≤ 5%): any predictor gets
    /// these right.
    Biased,
    /// History explains the direction: an ideal 8-bit-history table
    /// reaches ≥ 95% accuracy.
    Patterned,
    /// In between: partially history-predictable.
    Mixed,
    /// Hard to predict: high entropy and < 80% ideal-history accuracy
    /// despite enough executions — the H2P set.
    HardToPredict,
    /// Non-conditional control transfer (return / indirect jump /
    /// call): mispredicts come from the BTB/RAS, not the direction
    /// predictor.
    Indirect,
}

impl BranchClass {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            BranchClass::Biased => "biased",
            BranchClass::Patterned => "patterned",
            BranchClass::Mixed => "mixed",
            BranchClass::HardToPredict => "h2p",
            BranchClass::Indirect => "indirect",
        }
    }
}

/// The static profile of one branch site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteProfile {
    /// The site's PC.
    pub pc: u64,
    /// Dynamic executions.
    pub executions: u64,
    /// Fraction taken.
    pub taken_rate: f64,
    /// Direction entropy `H(p)` in bits (0 = fully biased, 1 = coin
    /// flip). 0 for non-conditional sites.
    pub entropy: f64,
    /// Ideal prediction accuracy with no history (always guess the
    /// majority direction).
    pub accuracy_h0: f64,
    /// Ideal prediction accuracy with [`HISTORY_BITS`] outcomes of
    /// local history.
    pub accuracy_h8: f64,
    /// `accuracy_h8 − accuracy_h0`: how much history explains.
    pub history_sensitivity: f64,
    /// The assigned class.
    pub class: BranchClass,
}

impl SiteProfile {
    /// Whether the site is flagged hard-to-predict.
    pub fn is_h2p(&self) -> bool {
        self.class == BranchClass::HardToPredict
    }
}

// Entropy and the ideal-history probe live in `bmp_trace::sites`, next
// to the per-site outcome sequences they read.
use bmp_trace::sites::{binary_entropy, ideal_history_accuracy};

/// Classifies every branch site of `trace`.
///
/// Sites are returned in increasing PC order; non-conditional sites get
/// [`BranchClass::Indirect`] with degenerate direction statistics.
pub fn classify(trace: &CompiledTrace) -> Vec<SiteProfile> {
    let seqs: HashMap<u64, Vec<bool>> = sites::conditional_outcome_sequences(trace)
        .into_iter()
        .collect();
    sites::branch_sites(trace)
        .into_iter()
        .map(|s| {
            if !s.kind.is_conditional() {
                return SiteProfile {
                    pc: s.pc,
                    executions: s.executions,
                    taken_rate: s.taken_rate(),
                    entropy: 0.0,
                    accuracy_h0: 1.0,
                    accuracy_h8: 1.0,
                    history_sensitivity: 0.0,
                    class: BranchClass::Indirect,
                };
            }
            let rate = s.taken_rate();
            let entropy = binary_entropy(rate);
            let outcomes = seqs.get(&s.pc).map(Vec::as_slice).unwrap_or(&[]);
            let acc0 = ideal_history_accuracy(outcomes, 0);
            let acc8 = ideal_history_accuracy(outcomes, HISTORY_BITS);
            let class = if !(0.05..=0.95).contains(&rate) {
                BranchClass::Biased
            } else if acc8 < 0.8 && s.executions >= H2P_MIN_EXECUTIONS {
                BranchClass::HardToPredict
            } else if acc8 >= 0.95 {
                BranchClass::Patterned
            } else {
                BranchClass::Mixed
            };
            SiteProfile {
                pc: s.pc,
                executions: s.executions,
                taken_rate: rate,
                entropy,
                accuracy_h0: acc0,
                accuracy_h8: acc8,
                history_sensitivity: acc8 - acc0,
                class,
            }
        })
        .collect()
}

/// Penalty charged to one branch class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassAttribution {
    /// The class.
    pub class: BranchClass,
    /// Static sites in the class.
    pub sites: u64,
    /// Mispredicted-branch intervals terminated by a site of this
    /// class.
    pub intervals: u64,
    /// Exact local-resolution cycles charged to the class.
    pub local_resolution: u64,
    /// Frontend-refill cycles charged (`intervals × depth`).
    pub refill: u64,
}

impl ClassAttribution {
    /// Total cycles charged (local resolution + refill).
    pub fn total(&self) -> u64 {
        self.local_resolution + self.refill
    }
}

/// Distributes the local resolutions and refills of `breakdowns` (the
/// penalty breakdowns of `trace`, in either layout, from a full analysis or the local
/// pass) over branch classes, by the PC of each breakdown's branch.
/// PCs missing from `profiles` (not conditional sites) fall into
/// [`BranchClass::Indirect`].
///
/// Returns one row per class that has sites or charged intervals, in
/// class order.
pub fn attribute<T: OpView + ?Sized>(
    profiles: &[SiteProfile],
    trace: &T,
    breakdowns: &[PenaltyBreakdown],
) -> Vec<ClassAttribution> {
    let class_of: HashMap<u64, BranchClass> = profiles.iter().map(|p| (p.pc, p.class)).collect();
    let mut rows: HashMap<BranchClass, ClassAttribution> = HashMap::new();
    for p in profiles {
        let e = rows.entry(p.class).or_insert(ClassAttribution {
            class: p.class,
            sites: 0,
            intervals: 0,
            local_resolution: 0,
            refill: 0,
        });
        e.sites += 1;
    }
    for b in breakdowns {
        let pc = trace.pc(b.branch_idx);
        let class = class_of.get(&pc).copied().unwrap_or(BranchClass::Indirect);
        let e = rows.entry(class).or_insert(ClassAttribution {
            class,
            sites: 0,
            intervals: 0,
            local_resolution: 0,
            refill: 0,
        });
        e.intervals += 1;
        e.local_resolution += b.local_resolution;
        e.refill += u64::from(b.frontend);
    }
    let mut out: Vec<ClassAttribution> = rows.into_values().collect();
    out.sort_by_key(|r| r.class);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_trace::{BranchKind, MicroOp, Trace};
    use bmp_uarch::OpClass;

    fn branch(pc: u64, taken: bool) -> MicroOp {
        MicroOp::branch(pc, BranchKind::Conditional, taken, pc + 0x40, [None, None])
    }

    fn compiled(ops: Vec<MicroOp>) -> CompiledTrace {
        ops.into_iter().collect::<Trace>().compile()
    }

    #[test]
    fn biased_patterned_and_h2p_sites() {
        let mut ops = Vec::new();
        // PC 0x10: always taken — biased.
        // PC 0x20: alternating — fully history-predictable.
        // PC 0x30: pseudo-random — hard.
        // Enough samples that each of the 2^8 history contexts is seen
        // many times — with too few, an ideal majority table memorizes
        // any sequence and the probe reports false predictability.
        let mut lcg = 12345u64;
        for i in 0..4096 {
            ops.push(branch(0x10, true));
            ops.push(branch(0x20, i % 2 == 0));
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ops.push(branch(0x30, (lcg >> 33) & 1 == 1));
        }
        let profiles = classify(&compiled(ops));
        assert_eq!(profiles.len(), 3);
        assert_eq!(profiles[0].class, BranchClass::Biased);
        assert_eq!(profiles[0].entropy, 0.0);
        assert_eq!(profiles[1].class, BranchClass::Patterned);
        assert!(
            profiles[1].history_sensitivity > 0.4,
            "alternation is explained by history: {:?}",
            profiles[1]
        );
        assert_eq!(profiles[2].class, BranchClass::HardToPredict);
        assert!(profiles[2].is_h2p());
        assert!(profiles[2].entropy > 0.9);
        assert!(profiles[2].history_sensitivity < 0.3);
    }

    #[test]
    fn indirect_sites_are_separate() {
        let ops = vec![
            MicroOp::branch(0x50, BranchKind::IndirectJump, true, 0x100, [None, None]),
            MicroOp::branch(0x50, BranchKind::IndirectJump, true, 0x200, [None, None]),
        ];
        let profiles = classify(&compiled(ops));
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].class, BranchClass::Indirect);
    }

    #[test]
    fn thin_random_sites_are_not_h2p() {
        // 4 executions of a coin flip: too thin to flag.
        let ops = vec![
            branch(0x10, true),
            branch(0x10, false),
            branch(0x10, true),
            branch(0x10, false),
        ];
        let profiles = classify(&compiled(ops));
        assert_ne!(profiles[0].class, BranchClass::HardToPredict);
    }

    #[test]
    fn attribution_charges_classes() {
        // 64 biased branches at 0x10, then an op at 0x99 that is no
        // conditional site.
        let mut ops = vec![branch(0x10, true); 64];
        ops.push(MicroOp::alu(0x99, OpClass::IntAlu, [None, None]));
        let trace: Trace = ops.into_iter().collect();
        let compiled = trace.compile();
        let profiles = classify(&compiled);
        let breakdown = |branch_idx, local_resolution| PenaltyBreakdown {
            branch_idx,
            interval_start: branch_idx,
            interval_len: 1,
            resolution: local_resolution,
            local_resolution,
            frontend: 5,
            base: 0,
            ilp: 0,
            fu_latency: 0,
            short_dmiss: 0,
            carryover: 0,
        };
        let breakdowns = [breakdown(3, 12), breakdown(40, 8), breakdown(64, 5)];
        let rows = attribute(&profiles, trace.ops(), &breakdowns);
        assert_eq!(rows, attribute(&profiles, &compiled, &breakdowns));
        let biased = rows
            .iter()
            .find(|r| r.class == BranchClass::Biased)
            .unwrap();
        assert_eq!(biased.sites, 1);
        assert_eq!(biased.intervals, 2);
        assert_eq!(biased.local_resolution, 20);
        assert_eq!(biased.refill, 10);
        assert_eq!(biased.total(), 30);
        // Unknown PC falls into the indirect bucket.
        let ind = rows
            .iter()
            .find(|r| r.class == BranchClass::Indirect)
            .unwrap();
        assert_eq!(ind.intervals, 1);
        assert_eq!(ind.local_resolution, 5);
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

    #[test]
    fn entropy_shape() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.1) < binary_entropy(0.3));
    }
}
