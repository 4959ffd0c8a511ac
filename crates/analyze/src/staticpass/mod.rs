//! Static interval analysis: proven bounds on the five penalty
//! contributors, computed without simulation.
//!
//! The rest of this crate lints artifacts the simulator or the model
//! already produced. This module goes the other way: starting from a
//! trace and a [`MachineConfig`](bmp_uarch::MachineConfig) it *derives*
//! what the five contributors of the Eyerman/Smeets/Eeckhout
//! decomposition are allowed to be —
//!
//! * [`bounds`] runs the analytical model's local pass — the
//!   closed-form knock-out schedule of every inter-misprediction
//!   interval, so the four knock-out terms and the refill come out
//!   *cycle-exact* — and derives a proven per-branch envelope for the
//!   whole-trace effective resolution, yielding a guaranteed
//!   lower/upper bound per contributor;
//! * [`classify`] profiles every static branch site (taken-rate
//!   entropy, ideal-history accuracy at 0 and [`HISTORY_BITS`] bits of
//!   history, H2P flagging) and attributes the per-interval penalty
//!   terms to branch classes;
//! * [`lint`] packages both as the BMP6xx rule family: simulated
//!   contributor totals outside their statically proven bounds are
//!   hard lint errors.
//!
//! The derivations, the `base == 2` theorem and the envelope induction
//! are written out in `docs/STATIC_ANALYSIS.md`; the rule catalogue is
//! in `docs/ANALYZER.md`. `bmp-lint --static` is the command-line
//! entry point: it runs the BMP6xx family and prints each metrics
//! entry's bounds next to the model's recorded totals.
//!
//! # Examples
//!
//! ```
//! use bmp_analyze::staticpass::{bounds, classify};
//! use bmp_uarch::presets;
//! use bmp_workloads::spec;
//!
//! let trace = spec::by_name("gzip").unwrap().generate(4_000, 7);
//! let cfg = presets::baseline_4wide();
//! let b = bounds::compute(&cfg, &trace);
//! // The four local knock-out terms are exact; the effective
//! // resolution carries a proven envelope around its point estimate.
//! assert!(b.base.is_exact());
//! assert!(b.resolution.lo <= b.resolution.point);
//! assert!(!classify::classify(&trace.compile()).is_empty());
//! ```

pub mod bounds;
pub mod classify;
pub mod lint;

pub use bounds::{per_branch_resolution_bounds, Bound, StaticBounds};
pub use classify::{BranchClass, ClassAttribution, SiteProfile, HISTORY_BITS};
pub use lint::{csv_checked, lint_csv, lint_metrics, lint_metrics_doc, DocBounds};

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::PenaltyModel;
    use bmp_uarch::presets;
    use bmp_workloads::spec;

    /// The per-class attribution of the model's local terms partitions
    /// the static totals: every interval's local resolution and refill
    /// is charged to exactly one class.
    #[test]
    fn full_pass_is_self_consistent() {
        let trace = spec::by_name("twolf").unwrap().generate(6_000, 3);
        let cfg = presets::baseline_4wide();
        let b = bounds::compute(&cfg, &trace);
        let analysis = PenaltyModel::new(cfg).analyze(&trace);
        let sites = classify::classify(&trace.compile());
        let classes = classify::attribute(&sites, trace.ops(), &analysis.breakdowns);
        let attributed: u64 = classes.iter().map(|c| c.intervals).sum();
        assert_eq!(attributed, b.intervals);
        let local: u64 = classes.iter().map(|c| c.local_resolution).sum();
        assert_eq!(local as i64, b.local_resolution.point);
        let refill: u64 = classes.iter().map(|c| c.refill).sum();
        assert_eq!(refill as i64, b.refill.point);
    }
}
