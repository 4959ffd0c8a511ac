//! The model's accounting identities as checkable predicates.
//!
//! The penalty decomposition is held together by a handful of exact
//! integer identities (the knock-out waterfall, the carryover
//! reconciliation, the refill law). They are enforced in four places —
//! `debug_assert!`s inside [`penalty`](crate::penalty), the BMP202 model
//! lint, the BMP501/BMP505 metrics lints and the BMP603 simulator check
//! of the static bounds — and this module is the single definition all
//! four call, so the checks can never drift apart.
//!
//! Every predicate returns `true` when the identity holds. They operate
//! on plain integers (or the [`PenaltyBreakdown`]/[`ModelMetrics`]
//! aggregates), so they apply equally to a single misprediction, to
//! per-workload totals from `results/metrics/*.json`, and to values
//! recomputed statically.
//!
//! # Examples
//!
//! ```
//! use bmp_core::identities;
//!
//! // penalty = resolution + frontend refill, per misprediction...
//! assert!(identities::penalty_identity(12, 5, 17));
//! // ...and refill = intervals × depth, in aggregate.
//! assert!(identities::refill_identity(3, 5, 15));
//! ```

use crate::metrics::ModelMetrics;
use crate::penalty::PenaltyBreakdown;

/// Identity 1 — the knock-out waterfall is exact:
/// `base + ilp + fu_latency + short_dmiss == local_resolution`.
///
/// Guaranteed by the running-floor cascade in
/// [`PenaltyModel::analyze_with`](crate::PenaltyModel::analyze_with);
/// holds for any sum of breakdowns too, by linearity.
pub fn knockout_sums_to_local(
    base: u64,
    ilp: u64,
    fu_latency: u64,
    short_dmiss: u64,
    local_resolution: u64,
) -> bool {
    base + ilp + fu_latency + short_dmiss == local_resolution
}

/// Identity 2 — carryover reconciles the local and effective views:
/// `local_resolution + carryover == resolution` (signed; the carryover
/// may be negative when cross-interval overlap helps the branch).
pub fn carryover_reconciles(local_resolution: u64, carryover: i64, resolution: u64) -> bool {
    local_resolution as i64 + carryover == resolution as i64
}

/// Identity 3 — the refill law: every misprediction pays exactly the
/// frontend depth in refill, so `refill == intervals × depth`.
pub fn refill_identity(intervals: u64, frontend_depth: u32, refill: u64) -> bool {
    intervals * u64::from(frontend_depth) == refill
}

/// Identity 4 — the paper's penalty definition:
/// `penalty == resolution + frontend depth`.
pub fn penalty_identity(resolution: u64, frontend_depth: u32, penalty: u64) -> bool {
    resolution + u64::from(frontend_depth) == penalty
}

/// Checks identities 1 and 2 on one per-misprediction breakdown.
pub fn breakdown_consistent(b: &PenaltyBreakdown) -> bool {
    knockout_sums_to_local(
        b.base,
        b.ilp,
        b.fu_latency,
        b.short_dmiss,
        b.local_resolution,
    ) && carryover_reconciles(b.local_resolution, b.carryover, b.resolution)
}

/// Checks every identity that [`ModelMetrics`] must satisfy given the
/// machine's frontend depth, returning a human-readable message per
/// violated identity (empty means consistent).
///
/// All `ModelMetrics` fields are exact integer totals, so the checks are
/// exact equalities — no tolerance is involved.
pub fn model_metrics_violations(m: &ModelMetrics, frontend_depth: u32) -> Vec<String> {
    let mut v = Vec::new();
    if !knockout_sums_to_local(
        m.base,
        m.ilp,
        m.fu_latency,
        m.short_dmiss,
        m.local_resolution,
    ) {
        v.push(format!(
            "knock-out terms {} + {} + {} + {} = {} != local resolution {}",
            m.base,
            m.ilp,
            m.fu_latency,
            m.short_dmiss,
            m.base + m.ilp + m.fu_latency + m.short_dmiss,
            m.local_resolution
        ));
    }
    if !carryover_reconciles(m.local_resolution, m.carryover, m.resolution) {
        v.push(format!(
            "local resolution {} + carryover {} != effective resolution {}",
            m.local_resolution, m.carryover, m.resolution
        ));
    }
    if !refill_identity(m.intervals, frontend_depth, m.refill) {
        v.push(format!(
            "refill {} != intervals {} x frontend depth {frontend_depth}",
            m.refill, m.intervals
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ModelMetrics;
    use crate::PenaltyModel;
    use bmp_uarch::presets;
    use bmp_workloads::spec;

    #[test]
    fn predicates_accept_and_reject() {
        assert!(knockout_sums_to_local(2, 3, 4, 5, 14));
        assert!(!knockout_sums_to_local(2, 3, 4, 5, 13));
        assert!(carryover_reconciles(10, -3, 7));
        assert!(carryover_reconciles(10, 3, 13));
        assert!(!carryover_reconciles(10, 3, 12));
        assert!(refill_identity(4, 5, 20));
        assert!(!refill_identity(4, 5, 21));
        assert!(penalty_identity(12, 5, 17));
        assert!(!penalty_identity(12, 5, 16));
    }

    /// The per-breakdown check fails when either identity it covers
    /// breaks.
    #[test]
    fn breakdown_consistent_rejects_each_broken_identity() {
        let good = PenaltyBreakdown {
            branch_idx: 9,
            interval_start: 0,
            interval_len: 10,
            resolution: 16,
            local_resolution: 14,
            frontend: 5,
            base: 2,
            ilp: 3,
            fu_latency: 4,
            short_dmiss: 5,
            carryover: 2,
        };
        assert!(breakdown_consistent(&good));
        assert!(!breakdown_consistent(&PenaltyBreakdown { ilp: 4, ..good }));
        assert!(!breakdown_consistent(&PenaltyBreakdown {
            carryover: 1,
            ..good
        }));
    }

    #[test]
    fn real_analysis_satisfies_identities() {
        let trace = spec::by_name("twolf").unwrap().generate(20_000, 7);
        let cfg = presets::baseline_4wide();
        let analysis = PenaltyModel::new(cfg).analyze(&trace);
        assert!(!analysis.breakdowns.is_empty());
        for b in &analysis.breakdowns {
            assert!(breakdown_consistent(b), "breakdown {}", b.branch_idx);
        }
    }

    #[test]
    fn model_metrics_violations_reported() {
        let mut m = ModelMetrics {
            intervals: 2,
            resolution: 20,
            local_resolution: 18,
            base: 4,
            ilp: 6,
            fu_latency: 5,
            short_dmiss: 3,
            carryover: 2,
            refill: 10,
            cpi_stack: crate::cpi::CpiStack {
                instructions: 0,
                base_cycles: 0.0,
                branch_cycles: 0.0,
                icache_cycles: 0.0,
                long_dmiss_cycles: 0.0,
            },
        };
        assert!(model_metrics_violations(&m, 5).is_empty());
        m.refill = 11;
        m.carryover = 3;
        m.base = 5;
        let v = model_metrics_violations(&m, 5);
        assert_eq!(v.len(), 3);
    }
}
