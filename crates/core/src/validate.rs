//! Model-vs-measurement validation (experiment E-F10).
//!
//! The analytical model and the cycle-level simulator both produce a
//! resolution time per mispredicted branch, keyed by the branch's dynamic
//! index. This module inner-joins the two sets and reports error metrics.

use serde::{Deserialize, Serialize};

use crate::penalty::PenaltyAnalysis;

/// One (model, measured) resolution pair for a branch both sides saw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResolutionPair {
    /// Dynamic index of the branch.
    pub branch_idx: usize,
    /// The model's resolution.
    pub model: f64,
    /// The simulator's resolution.
    pub measured: f64,
}

/// Aggregate validation metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// All matched pairs, in branch order.
    pub pairs: Vec<ResolutionPair>,
    /// Branches only the model flagged.
    pub model_only: usize,
    /// Branches only the measurement flagged.
    pub measured_only: usize,
}

impl ValidationReport {
    /// Joins a model analysis with measured `(branch_idx, resolution)`
    /// records (e.g. from `bmp-sim`'s `MispredictRecord`s).
    ///
    /// The merge-join needs both inputs strictly sorted by branch index,
    /// which both in-tree producers guarantee. Unsorted or duplicated
    /// measured records trip a debug assertion; in release builds they
    /// are detected and the join runs on a sorted, deduplicated copy
    /// instead of silently miscounting.
    pub fn from_pairs(analysis: &PenaltyAnalysis, measured: &[(usize, u64)]) -> Self {
        let sorted = measured.windows(2).all(|w| w[0].0 < w[1].0);
        debug_assert!(
            sorted,
            "from_pairs requires measured records strictly sorted by \
             branch index; sorting a copy as fallback"
        );
        if !sorted {
            let mut owned = measured.to_vec();
            owned.sort_by_key(|&(idx, _)| idx);
            owned.dedup_by_key(|&mut (idx, _)| idx);
            return Self::from_pairs(analysis, &owned);
        }

        let mut pairs = Vec::new();
        let mut model_only = 0;
        let mut measured_only = 0;
        let mut mi = 0usize;
        for b in &analysis.breakdowns {
            while mi < measured.len() && measured[mi].0 < b.branch_idx {
                measured_only += 1;
                mi += 1;
            }
            if mi < measured.len() && measured[mi].0 == b.branch_idx {
                pairs.push(ResolutionPair {
                    branch_idx: b.branch_idx,
                    model: b.resolution as f64,
                    measured: measured[mi].1 as f64,
                });
                mi += 1;
            } else {
                model_only += 1;
            }
        }
        measured_only += measured.len() - mi;
        Self {
            pairs,
            model_only,
            measured_only,
        }
    }

    /// Mean of the model resolutions, or `None` with no pairs.
    pub fn model_mean(&self) -> Option<f64> {
        mean(self.pairs.iter().map(|p| p.model))
    }

    /// Mean of the measured resolutions, or `None` with no pairs.
    pub fn measured_mean(&self) -> Option<f64> {
        mean(self.pairs.iter().map(|p| p.measured))
    }

    /// Signed bias (model − measured), or `None` with no pairs.
    pub fn bias(&self) -> Option<f64> {
        mean(self.pairs.iter().map(|p| p.model - p.measured))
    }

    /// Relative error of the *aggregate* means (the figure the paper-style
    /// validation reports), or `None` with no pairs or a zero measured
    /// mean.
    pub fn aggregate_relative_error(&self) -> Option<f64> {
        let m = self.model_mean()?;
        let s = self.measured_mean()?;
        if s == 0.0 {
            None
        } else {
            Some((m - s).abs() / s)
        }
    }

    /// Pearson correlation between model and measured resolutions, or
    /// `None` with fewer than 2 pairs or zero variance.
    pub fn correlation(&self) -> Option<f64> {
        if self.pairs.len() < 2 {
            return None;
        }
        let mx = self.model_mean()?;
        let my = self.measured_mean()?;
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for p in &self.pairs {
            let dx = p.model - mx;
            let dy = p.measured - my;
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        if sxx == 0.0 || syy == 0.0 {
            return None;
        }
        Some(sxy / (sxx * syy).sqrt())
    }

    /// Fraction of mispredictions both sides agree on, relative to the
    /// union.
    pub fn event_agreement(&self) -> f64 {
        let union = self.pairs.len() + self.model_only + self.measured_only;
        if union == 0 {
            1.0
        } else {
            self.pairs.len() as f64 / union as f64
        }
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut n = 0u64;
    let mut s = 0.0;
    for v in values {
        n += 1;
        s += v;
    }
    if n == 0 {
        None
    } else {
        Some(s / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::penalty::{PenaltyAnalysis, PenaltyBreakdown};

    fn analysis_with(resolutions: &[(usize, u64)]) -> PenaltyAnalysis {
        PenaltyAnalysis {
            intervals: vec![],
            breakdowns: resolutions
                .iter()
                .map(|&(idx, r)| PenaltyBreakdown {
                    branch_idx: idx,
                    interval_start: 0,
                    interval_len: 1,
                    resolution: r,
                    local_resolution: r,
                    frontend: 5,
                    base: 1,
                    ilp: r.saturating_sub(1),
                    fu_latency: 0,
                    short_dmiss: 0,
                    carryover: 0,
                })
                .collect(),
            frontend_depth: 5,
            instructions: 1000,
            scheduled_cycles: 0,
        }
    }

    #[test]
    fn perfect_match() {
        let a = analysis_with(&[(10, 8), (20, 12)]);
        let r = ValidationReport::from_pairs(&a, &[(10, 8), (20, 12)]);
        assert_eq!(r.pairs.len(), 2);
        assert_eq!(r.bias(), Some(0.0));
        assert_eq!(r.event_agreement(), 1.0);
        assert_eq!(r.aggregate_relative_error(), Some(0.0));
    }

    #[test]
    fn disjoint_sets() {
        let a = analysis_with(&[(10, 8)]);
        let r = ValidationReport::from_pairs(&a, &[(11, 9)]);
        assert!(r.pairs.is_empty());
        assert_eq!(r.model_only, 1);
        assert_eq!(r.measured_only, 1);
        assert_eq!(r.event_agreement(), 0.0);
        assert!(r.bias().is_none());
    }

    #[test]
    fn partial_overlap_and_bias() {
        let a = analysis_with(&[(5, 10), (10, 10), (15, 10)]);
        let r = ValidationReport::from_pairs(&a, &[(5, 12), (15, 6), (30, 4)]);
        assert_eq!(r.pairs.len(), 2);
        assert_eq!(r.model_only, 1);
        assert_eq!(r.measured_only, 1);
        // model 10,10 vs measured 12,6: bias = (−2 + 4)/2 = 1.
        assert_eq!(r.bias(), Some(1.0));
    }

    #[test]
    fn correlation_detects_tracking() {
        let a = analysis_with(&[(1, 2), (2, 4), (3, 8), (4, 16)]);
        let tracking = ValidationReport::from_pairs(&a, &[(1, 3), (2, 5), (3, 9), (4, 17)]);
        assert!(tracking.correlation().unwrap() > 0.99);
        let anti = ValidationReport::from_pairs(&a, &[(1, 17), (2, 9), (3, 5), (4, 3)]);
        assert!(anti.correlation().unwrap() < -0.8);
    }

    #[test]
    fn correlation_none_for_constant_series() {
        let a = analysis_with(&[(1, 5), (2, 5)]);
        let r = ValidationReport::from_pairs(&a, &[(1, 3), (2, 9)]);
        assert!(r.correlation().is_none());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly sorted by branch index")]
    fn unsorted_measured_records_trip_the_debug_assertion() {
        let a = analysis_with(&[(10, 8)]);
        let _ = ValidationReport::from_pairs(&a, &[(20, 9), (10, 8)]);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn unsorted_measured_records_are_sorted_in_release() {
        let a = analysis_with(&[(10, 8), (20, 12)]);
        // Unsorted with a duplicate; the release fallback sorts and
        // dedups, so the join still matches both branches.
        let r = ValidationReport::from_pairs(&a, &[(20, 12), (10, 8), (10, 8)]);
        assert_eq!(r.pairs.len(), 2);
        assert_eq!(r.event_agreement(), 1.0);
    }

    #[test]
    fn relative_error() {
        let a = analysis_with(&[(1, 11)]);
        let r = ValidationReport::from_pairs(&a, &[(1, 10)]);
        assert!((r.aggregate_relative_error().unwrap() - 0.1).abs() < 1e-12);
    }
}
