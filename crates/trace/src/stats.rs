//! Summary statistics over traces.

use bmp_uarch::OpClass;
use serde::{Deserialize, Serialize};

use crate::op::MicroOp;

/// Histogram of register dependence distances, with a saturating tail
/// bucket.
///
/// Distance `d` means the producer is `d` dynamic instructions earlier.
/// Short distances mean long dependence chains and low inherent ILP —
/// contributor (iii) of the misprediction penalty.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepDistanceHistogram {
    /// `buckets[d-1]` counts sources at distance `d`, for `d` in
    /// `1..=cap`; the final element accumulates everything beyond.
    buckets: Vec<u64>,
    cap: u32,
    total: u64,
}

impl DepDistanceHistogram {
    /// Creates an empty histogram tracking exact distances up to `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: u32) -> Self {
        assert!(cap > 0, "histogram cap must be at least 1");
        Self {
            buckets: vec![0; cap as usize + 1],
            cap,
            total: 0,
        }
    }

    /// Records one source dependence at `distance`.
    pub fn record(&mut self, distance: u32) {
        let idx = if distance == 0 {
            return; // no dependence
        } else if distance <= self.cap {
            distance as usize - 1
        } else {
            self.cap as usize
        };
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Count of sources at exactly `distance` (`distance <= cap`), or in
    /// the overflow bucket when `distance > cap`.
    pub fn count(&self, distance: u32) -> u64 {
        if distance == 0 {
            0
        } else if distance <= self.cap {
            self.buckets[distance as usize - 1]
        } else {
            self.buckets[self.cap as usize]
        }
    }

    /// Total recorded dependences.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean distance, counting overflow entries as `cap + 1`. Returns
    /// `None` for an empty histogram.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 + 1.0) * c as f64)
            .sum();
        Some(sum / self.total as f64)
    }
}

/// Aggregate statistics of a trace: instruction mix, branch counts and the
/// dependence-distance profile.
///
/// # Examples
///
/// ```
/// use bmp_trace::{MicroOp, Trace};
/// use bmp_uarch::OpClass;
///
/// let t: Trace = (0..8)
///     .map(|i| MicroOp::alu(i * 4, OpClass::IntAlu, [None, None]))
///     .collect();
/// let s = t.stats();
/// assert_eq!(s.total(), 8);
/// assert_eq!(s.fraction(OpClass::IntAlu), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    counts: [u64; 9],
    conditional_branches: u64,
    taken_branches: u64,
    dep_distances: DepDistanceHistogram,
}

impl TraceStats {
    /// Default exact-tracking range for the dependence histogram.
    pub const DEFAULT_DEP_CAP: u32 = 256;

    /// Computes statistics from a slice of ops.
    pub fn from_ops(ops: &[MicroOp]) -> Self {
        let mut counts = [0u64; 9];
        let mut conditional_branches = 0;
        let mut taken_branches = 0;
        let mut dep_distances = DepDistanceHistogram::new(Self::DEFAULT_DEP_CAP);
        for op in ops {
            counts[op.class().index()] += 1;
            if let Some(info) = op.branch_info() {
                if info.kind.is_conditional() {
                    conditional_branches += 1;
                }
                if info.taken {
                    taken_branches += 1;
                }
            }
            for d in op.src_distances() {
                dep_distances.record(d);
            }
        }
        Self {
            counts,
            conditional_branches,
            taken_branches,
            dep_distances,
        }
    }

    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Dynamic count of `class`.
    pub fn count(&self, class: OpClass) -> u64 {
        self.counts[class.index()]
    }

    /// Fraction of instructions of `class` (0 for an empty trace).
    pub fn fraction(&self, class: OpClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }

    /// Number of conditional branches.
    pub fn conditional_branches(&self) -> u64 {
        self.conditional_branches
    }

    /// Number of taken branches (all kinds).
    pub fn taken_branches(&self) -> u64 {
        self.taken_branches
    }

    /// Average dynamic basic-block size: instructions per taken branch
    /// (total instructions if nothing is taken).
    pub fn avg_taken_run(&self) -> f64 {
        if self.taken_branches == 0 {
            self.total() as f64
        } else {
            self.total() as f64 / self.taken_branches as f64
        }
    }

    /// The dependence-distance histogram.
    pub fn dep_distances(&self) -> &DepDistanceHistogram {
        &self.dep_distances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BranchKind;

    #[test]
    fn histogram_basics() {
        let mut h = DepDistanceHistogram::new(4);
        for d in [1, 1, 2, 4, 9, 200] {
            h.record(d);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(3), 0);
        assert_eq!(h.count(4), 1);
        // overflow bucket
        assert_eq!(h.count(5), 2);
        assert_eq!(h.count(1000), 2);
    }

    #[test]
    fn histogram_ignores_zero() {
        let mut h = DepDistanceHistogram::new(4);
        h.record(0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn histogram_mean_and_cdf() {
        let mut h = DepDistanceHistogram::new(10);
        for d in [1, 2, 3] {
            h.record(d);
        }
        assert!((h.mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cap must be at least 1")]
    fn histogram_rejects_zero_cap() {
        let _ = DepDistanceHistogram::new(0);
    }

    #[test]
    fn stats_mix_and_branches() {
        let ops = vec![
            MicroOp::alu(0, OpClass::IntAlu, [None, None]),
            MicroOp::load(4, 0x100, [Some(1), None]),
            MicroOp::branch(8, BranchKind::Conditional, true, 0, [Some(1), None]),
            MicroOp::branch(12, BranchKind::Jump, true, 0x40, [None, None]),
            MicroOp::branch(16, BranchKind::Conditional, false, 0, [None, None]),
        ];
        let s = TraceStats::from_ops(&ops);
        assert_eq!(s.total(), 5);
        assert_eq!(s.count(OpClass::Branch), 3);
        assert_eq!(s.conditional_branches(), 2);
        assert_eq!(s.taken_branches(), 2);
        assert!((s.fraction(OpClass::Load) - 0.2).abs() < 1e-12);
        assert_eq!(s.dep_distances().total(), 2);
        assert!((s.avg_taken_run() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_trace() {
        let s = TraceStats::from_ops(&[]);
        assert_eq!(s.total(), 0);
        assert_eq!(s.fraction(OpClass::IntAlu), 0.0);
        assert_eq!(s.avg_taken_run(), 0.0);
    }
}
