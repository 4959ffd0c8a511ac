//! The closed-form penalty estimate: interval analysis from *aggregate
//! statistics only*.
//!
//! The per-interval models in [`drain`](crate::drain) schedule actual
//! instructions. The paper's framework also supports a coarser estimate
//! that needs only two program characterizations:
//!
//! * the window-ILP curve `I_W(k)` (average IPC achievable from a window
//!   of `k` instructions — [`bmp_trace::dag::ilp_curve`]), and
//! * the distribution of interval lengths.
//!
//! For an interval of length `L` before a mispredicted branch, the window
//! backlog when the branch dispatches is approximated by the fixed point
//! of
//!
//! ```text
//! n = clamp( L · (1 − I_W(n) / D), 1, min(L, W) )
//! ```
//!
//! (instructions entered minus instructions the machine could complete at
//! the program's ILP, capped by the window), and the branch's resolution
//! is the drain of that backlog, `n / I_W(n)`. The estimate costs O(1)
//! per misprediction once the two characterizations exist — three orders
//! of magnitude cheaper than even the trace-scheduling model — and
//! experiment E-X3 quantifies what that buys and costs in accuracy.

use bmp_trace::{dag, OpView, Trace};
use bmp_uarch::MachineConfig;

use crate::functional::FunctionalOutcome;
use crate::intervals::{segment, IntervalEventKind};

/// The interpolated window-ILP characterization `I_W(k)`.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpCurve {
    /// Sample points `(k, I_W(k))`, sorted by `k`.
    points: Vec<(usize, f64)>,
}

impl IlpCurve {
    /// Characterizes `trace` at window sizes that are powers of two up to
    /// `max_k`, with execution latencies from `cfg` (loads costed at the
    /// L1 hit latency).
    ///
    /// # Panics
    ///
    /// Panics if `max_k` is zero.
    pub fn characterize<T: OpView + ?Sized>(trace: &T, cfg: &MachineConfig, max_k: usize) -> Self {
        let l1 = u64::from(cfg.caches.l1d().hit_latency());
        Self::characterize_latencies(trace, cfg, max_k, |_| l1)
    }

    /// Characterizes `trace` with per-load latencies from a functional
    /// cache pass, capped at the short-miss latency (long misses are
    /// interval-terminating events, not steady-state latency). This is
    /// the curve the closed-form estimate should use: cache-stretched
    /// chains lower the *effective* ILP that forms the window backlog.
    pub fn characterize_with<T: OpView + ?Sized>(
        trace: &T,
        cfg: &MachineConfig,
        outcome: &crate::functional::FunctionalOutcome,
        max_k: usize,
    ) -> Self {
        let cap = cfg.caches.short_dmiss_latency();
        Self::characterize_latencies(trace, cfg, max_k, |i| {
            u64::from(outcome.load_latency(i).unwrap_or(cap).min(cap))
        })
    }

    fn characterize_latencies<T, F>(
        trace: &T,
        cfg: &MachineConfig,
        max_k: usize,
        mut load_lat: F,
    ) -> Self
    where
        T: OpView + ?Sized,
        F: FnMut(usize) -> u64,
    {
        assert!(max_k > 0, "max_k must be at least 1");
        let ks: Vec<usize> =
            std::iter::successors(Some(1usize), |&k| (k < max_k).then_some((k * 2).min(max_k)))
                .collect();
        let points = dag::ilp_curve(trace, &ks, |i, class| {
            if class == bmp_uarch::OpClass::Load {
                load_lat(i)
            } else {
                u64::from(cfg.latencies.latency(class))
            }
        });
        Self { points }
    }

    /// Builds a curve from explicit points (must be sorted by `k`).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or unsorted.
    pub fn from_points(points: Vec<(usize, f64)>) -> Self {
        assert!(!points.is_empty(), "need at least one point");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "points must be strictly sorted by k"
        );
        Self { points }
    }

    /// Interpolated `I_W(k)` (linear between samples, clamped at the
    /// ends). Always at least a small positive rate.
    pub fn at(&self, k: usize) -> f64 {
        let eps = 1e-6;
        if self.points.is_empty() {
            return eps;
        }
        let first = self.points[0];
        let last = *self.points.last().expect("non-empty");
        if k <= first.0 {
            return first.1.max(eps);
        }
        if k >= last.0 {
            return last.1.max(eps);
        }
        for w in self.points.windows(2) {
            let (k0, i0) = w[0];
            let (k1, i1) = w[1];
            if k <= k1 {
                let t = (k - k0) as f64 / (k1 - k0) as f64;
                return (i0 + t * (i1 - i0)).max(eps);
            }
        }
        last.1.max(eps)
    }
}

/// The closed-form resolution estimate for one interval of length `L`.
///
/// See the module docs for the fixed-point backlog model.
pub fn resolution_estimate(
    interval_len: usize,
    dispatch_width: u32,
    window_size: u32,
    curve: &IlpCurve,
) -> f64 {
    let d = f64::from(dispatch_width.max(1));
    let cap = (window_size as usize).min(interval_len.max(1));
    // Fixed-point iteration on the backlog.
    let mut n = cap as f64;
    for _ in 0..32 {
        let ilp = curve.at(n.round().max(1.0) as usize);
        let fill = interval_len as f64 * (1.0 - (ilp / d).min(1.0));
        let next = fill.clamp(1.0, cap as f64);
        if (next - n).abs() < 0.25 {
            n = next;
            break;
        }
        n = next;
    }
    let ilp = curve.at(n.round().max(1.0) as usize);
    (n / ilp).max(1.0)
}

/// Aggregate closed-form estimate for a whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedFormEstimate {
    /// Number of mispredictions found by the functional pass.
    pub mispredictions: usize,
    /// Estimated mean resolution time.
    pub mean_resolution: f64,
    /// Estimated mean penalty (resolution + frontend refill).
    pub mean_penalty: f64,
}

/// Runs the closed-form model on a trace: functional pass for the event
/// stream, `I_W(k)` characterization, then the O(1)-per-event estimate.
pub fn estimate(trace: &Trace, cfg: &MachineConfig) -> ClosedFormEstimate {
    let ops = trace.ops();
    let outcome = FunctionalOutcome::compute(ops, cfg);
    estimate_with(ops, cfg, &outcome)
}

/// Closed-form estimate of a trace, in either layout, reusing an
/// existing functional pass.
pub fn estimate_with<T: OpView + ?Sized>(
    trace: &T,
    cfg: &MachineConfig,
    outcome: &FunctionalOutcome,
) -> ClosedFormEstimate {
    let curve = IlpCurve::characterize_with(trace, cfg, outcome, cfg.window_size as usize);
    let intervals = segment(0..trace.len(), &outcome.events);
    let mut n = 0usize;
    let mut sum = 0.0;
    for iv in &intervals {
        if iv.kind != Some(IntervalEventKind::BranchMispredict) {
            continue;
        }
        n += 1;
        sum += resolution_estimate(iv.len(), cfg.dispatch_width, cfg.window_size, &curve);
    }
    let mean_resolution = if n == 0 { 0.0 } else { sum / n as f64 };
    ClosedFormEstimate {
        mispredictions: n,
        mean_resolution,
        mean_penalty: mean_resolution + f64::from(cfg.frontend_depth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_uarch::{presets, PredictorConfig};
    use bmp_workloads::{micro, spec};

    fn flat_curve(ilp: f64) -> IlpCurve {
        IlpCurve::from_points(vec![(1, ilp), (64, ilp)])
    }

    #[test]
    fn curve_interpolates_and_clamps() {
        let c = IlpCurve::from_points(vec![(1, 1.0), (16, 2.5), (64, 4.0)]);
        assert!((c.at(1) - 1.0).abs() < 1e-9);
        assert!((c.at(64) - 4.0).abs() < 1e-9);
        assert!((c.at(128) - 4.0).abs() < 1e-9, "clamped above");
        let mid = c.at(8);
        assert!(mid > 1.0 && mid < 2.5, "interpolated: {mid}");
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn curve_rejects_unsorted_points() {
        let _ = IlpCurve::from_points(vec![(8, 1.0), (2, 2.0)]);
    }

    #[test]
    fn high_ilp_means_tiny_resolution() {
        // ILP above dispatch width: no backlog forms.
        let r = resolution_estimate(1000, 4, 64, &flat_curve(8.0));
        assert!(r <= 2.0, "no backlog at high ILP, got {r}");
    }

    #[test]
    fn serial_code_saturates_at_window_drain() {
        // ILP 1 against width 4: long intervals fill the window; drain
        // is ~W/I = 64 cycles.
        let r = resolution_estimate(10_000, 4, 64, &flat_curve(1.0));
        assert!(
            (50.0..=70.0).contains(&r),
            "saturated drain should be near W, got {r}"
        );
    }

    #[test]
    fn resolution_grows_with_interval_length() {
        let curve = flat_curve(2.0);
        let mut last = 0.0;
        for len in [2usize, 8, 32, 128, 512] {
            let r = resolution_estimate(len, 4, 64, &curve);
            assert!(r >= last, "must be monotone in L: {r} after {last}");
            last = r;
        }
    }

    #[test]
    fn characterized_curve_is_monotone_in_k() {
        let trace = spec::by_name("gcc").unwrap().generate(20_000, 3);
        let cfg = presets::baseline_4wide();
        let curve = IlpCurve::characterize(trace.ops(), &cfg, 64);
        let a = curve.at(2);
        let b = curve.at(64);
        assert!(b >= a, "bigger windows expose more ILP: {a} vs {b}");
    }

    #[test]
    fn estimate_lands_in_the_simulators_ballpark() {
        // The closed form is coarse; demand order-of-magnitude agreement
        // on a controlled kernel where the answer is known.
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let trace = micro::branch_resolution_kernel(20_000, 8, 1.0, 3);
        let est = estimate(&trace, &cfg);
        assert!(est.mispredictions > 1000);
        assert!(
            (2.0..=40.0).contains(&est.mean_resolution),
            "estimate {} should be near the ~8-cycle truth",
            est.mean_resolution
        );
        assert!(est.mean_penalty > est.mean_resolution);
    }

    #[test]
    fn empty_trace_estimate() {
        let est = estimate(&Trace::new(), &presets::baseline_4wide());
        assert_eq!(est.mispredictions, 0);
        assert_eq!(est.mean_resolution, 0.0);
    }
}
