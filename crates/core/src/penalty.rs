//! The branch misprediction penalty model and its five-contributor
//! decomposition — the paper's core contribution.
//!
//! For each mispredicted branch, the model schedules the inter-miss
//! interval ending at that branch under the window model
//! ([`drain`](crate::drain)) and reads off the *branch resolution time*.
//! The full penalty is
//!
//! ```text
//! penalty = resolution + frontend refill (c_fe)
//! ```
//!
//! The resolution is then decomposed by *knock-out re-scheduling*: the
//! same interval is re-scheduled with one mechanism neutralized at a
//! time, and the differences attribute the resolution to the paper's
//! contributors:
//!
//! | term | knock-out | contributor |
//! |---|---|---|
//! | `short_dmiss` | loads forced to L1-hit latency | (v) short D-cache misses |
//! | `fu_latency` | all latencies forced to 1 | (iv) functional-unit latencies |
//! | `ilp` | dependences ignored | (iii) inherent program ILP |
//! | `base` | — | dispatch-to-issue plus the branch's execution (the resolution floor) |
//!
//! Latency shrinking moves every *completion* earlier in a data-flow
//! schedule; because the resolution is a difference (`done − enter`) and
//! the window cap moves `enter` too, the knocked-out resolutions are
//! additionally cascaded through a running floor, so every term is
//! non-negative and they sum exactly to the *local* resolution (the
//! interval scheduled in isolation, window empty at its start). One
//! kernel, [`drain::knockout_interval`](crate::drain::knockout_interval),
//! computes every knock-out of an interval in a single pass, and
//! [`PenaltyModel::analyze_local`] runs it over every mispredicted
//! interval: the *local pass*, which the static bounds and the CPI stack
//! read on their own.
//!
//! The branch's *effective* resolution comes from the
//! whole-trace schedule ([`drain::schedule_trace`](crate::drain)), which
//! additionally sees issue-bandwidth contention, ROB fill from long
//! misses, and the window state carried over from before the interval;
//! the difference is reported as [`PenaltyBreakdown::carryover`].
//!
//! Contributor (ii) — instructions since the last miss event — manifests
//! twice: as the ramp-up inside the local schedule, and as the
//! *dependence of the resolution on interval length* exposed by
//! [`PenaltyAnalysis::resolution_by_interval_length`] (experiment E-F3).

use bmp_trace::{OpView, Trace};
use bmp_uarch::MachineConfig;
use serde::{Deserialize, Serialize};

use crate::drain::{
    knockout_interval, schedule_trace, FrontendEvent, KnockoutScratch, MachineModel, WindowParams,
};
use crate::functional::FunctionalOutcome;
use crate::intervals::{bucket_means, segment, Interval, IntervalEventKind};

/// Translates the functional pass's miss events into the frontend events
/// of the whole-trace schedule (long D-misses act through load latencies
/// and the ROB cap, not through the frontend).
pub(crate) fn frontend_events_of(
    cfg: &MachineConfig,
    outcome: &FunctionalOutcome,
) -> Vec<FrontendEvent> {
    outcome
        .events
        .iter()
        .filter_map(|e| match e.kind {
            IntervalEventKind::BranchMispredict => Some(FrontendEvent::Mispredict { pos: e.pos }),
            IntervalEventKind::ICacheMiss => Some(FrontendEvent::FetchStall {
                pos: e.pos,
                extra: cfg.caches.short_dmiss_latency(),
            }),
            IntervalEventKind::ICacheLongMiss => Some(FrontendEvent::FetchStall {
                pos: e.pos,
                extra: cfg.caches.short_dmiss_latency() + cfg.caches.mem_latency(),
            }),
            IntervalEventKind::LongDCacheMiss => None,
        })
        .collect()
}

/// Per-misprediction penalty decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PenaltyBreakdown {
    /// Dynamic index of the mispredicted branch.
    pub branch_idx: usize,
    /// First instruction of the branch's interval.
    pub interval_start: usize,
    /// Instructions since the last miss event, the branch included —
    /// the x-axis of contributor (ii).
    pub interval_len: usize,
    /// Modeled branch resolution time, from the whole-trace schedule
    /// (equal to `local_resolution` in the local pass's breakdowns,
    /// [`PenaltyModel::analyze_local`]).
    pub resolution: u64,
    /// Resolution of the interval scheduled in isolation (window empty at
    /// interval start); the knock-out terms below sum to exactly this.
    pub local_resolution: u64,
    /// Contributor (i): the frontend refill, `c_fe`.
    pub frontend: u32,
    /// The resolution floor: dispatch-to-issue plus the branch's own
    /// execution.
    pub base: u64,
    /// Contributor (iii): dependence-chain (inherent ILP) share.
    pub ilp: u64,
    /// Contributor (iv): functional-unit-latency share.
    pub fu_latency: u64,
    /// Contributor (v): short D-cache-miss share.
    pub short_dmiss: u64,
    /// Window/bandwidth state carried over from before the interval
    /// (`resolution − local_resolution`; part of contributor (ii)). Can
    /// be slightly negative when cross-interval overlap *helps* the
    /// branch. 0 in the local pass's breakdowns.
    pub carryover: i64,
}

impl PenaltyBreakdown {
    /// The full penalty: resolution plus frontend refill.
    pub fn penalty(&self) -> u64 {
        self.resolution + u64::from(self.frontend)
    }
}

/// The result of analyzing one trace: intervals, per-misprediction
/// breakdowns and aggregate views.
#[derive(Debug, Clone)]
pub struct PenaltyAnalysis {
    /// Every inter-miss interval of the trace.
    pub intervals: Vec<Interval>,
    /// One breakdown per mispredicted branch, in trace order.
    pub breakdowns: Vec<PenaltyBreakdown>,
    /// The frontend depth of the analyzed machine.
    pub frontend_depth: u32,
    /// Total instructions analyzed.
    pub instructions: usize,
    /// Makespan of the whole-trace schedule: the latest completion of
    /// any op (0 for an empty trace) — the model's predicted cycle count.
    pub scheduled_cycles: u64,
}

impl PenaltyAnalysis {
    /// Mean resolution time, or `None` without mispredictions.
    pub fn mean_resolution(&self) -> Option<f64> {
        if self.breakdowns.is_empty() {
            return None;
        }
        let s: u64 = self.breakdowns.iter().map(|b| b.resolution).sum();
        Some(s as f64 / self.breakdowns.len() as f64)
    }

    /// Mean full penalty, or `None` without mispredictions.
    pub fn mean_penalty(&self) -> Option<f64> {
        self.mean_resolution()
            .map(|r| r + f64::from(self.frontend_depth))
    }

    /// Mean contributor shares `(base, ilp, fu_latency, short_dmiss)`,
    /// or `None` without mispredictions.
    pub fn mean_contributions(&self) -> Option<(f64, f64, f64, f64)> {
        if self.breakdowns.is_empty() {
            return None;
        }
        let n = self.breakdowns.len() as f64;
        let sum =
            |f: fn(&PenaltyBreakdown) -> u64| self.breakdowns.iter().map(f).sum::<u64>() as f64 / n;
        Some((
            sum(|b| b.base),
            sum(|b| b.ilp),
            sum(|b| b.fu_latency),
            sum(|b| b.short_dmiss),
        ))
    }

    fn bucketize(&self, value: fn(&PenaltyBreakdown) -> u64) -> Vec<(usize, f64, u64)> {
        bucket_means(
            self.breakdowns
                .iter()
                .map(|b| (b.interval_len as u64, value(b))),
        )
    }

    /// Mean *effective* resolution (whole-trace schedule) bucketed by
    /// interval length. Returns `(bucket, mean resolution, count)` per
    /// non-empty [`bucket_index`](crate::intervals::bucket_index) bucket,
    /// in increasing length order.
    ///
    /// Note the effective resolution of very short intervals can be
    /// *inflated* by the shadow of the preceding miss event (a pending
    /// long D-miss blocking the ROB); use
    /// [`local_resolution_by_interval_length`] for the paper's pure
    /// window-ramp-up mechanism.
    ///
    /// [`local_resolution_by_interval_length`]:
    /// PenaltyAnalysis::local_resolution_by_interval_length
    pub fn resolution_by_interval_length(&self) -> Vec<(usize, f64, u64)> {
        self.bucketize(|b| b.resolution)
    }

    /// Mean *local* resolution (interval scheduled in isolation, window
    /// empty at its start) bucketed by interval length — the
    /// contributor-(ii) ramp-up characterization of experiment E-F3:
    /// short intervals dispatch the branch into an emptier window and
    /// resolve it faster; long intervals saturate near the window drain
    /// bound.
    pub fn local_resolution_by_interval_length(&self) -> Vec<(usize, f64, u64)> {
        self.bucketize(|b| b.local_resolution)
    }

    /// Histogram of effective resolutions over the given bucket
    /// boundaries: returns one count per bucket `[bounds[i],
    /// bounds[i+1])` plus a final overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or unsorted.
    pub fn resolution_histogram(&self, bounds: &[u64]) -> Vec<u64> {
        assert!(!bounds.is_empty(), "need at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        let mut counts = vec![0u64; bounds.len() + 1];
        for b in &self.breakdowns {
            let bucket = bounds
                .iter()
                .position(|&bound| b.resolution < bound)
                .unwrap_or(bounds.len());
            counts[bucket] += 1;
        }
        counts
    }

    /// Number of mispredictions per kilo-instruction.
    pub fn mispredict_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.breakdowns.len() as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// The analytical penalty model for one machine configuration.
///
/// # Examples
///
/// ```
/// use bmp_core::PenaltyModel;
/// use bmp_uarch::presets;
/// use bmp_workloads::micro;
///
/// // Random branches at the end of 8-op chains, always-not-taken
/// // predictor: every taken branch mispredicts.
/// let cfg = presets::baseline_4wide()
///     .to_builder()
///     .predictor(bmp_uarch::PredictorConfig::AlwaysNotTaken)
///     .build()?;
/// let trace = micro::branch_resolution_kernel(10_000, 8, 1.0, 7);
/// let analysis = PenaltyModel::new(cfg).analyze(&trace);
/// assert!(!analysis.breakdowns.is_empty());
/// # Ok::<(), bmp_uarch::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PenaltyModel {
    cfg: MachineConfig,
}

impl PenaltyModel {
    /// Creates the model for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("machine configuration must be valid");
        Self { cfg }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Runs the functional pass and analyzes every misprediction.
    pub fn analyze(&self, trace: &Trace) -> PenaltyAnalysis {
        let ops = trace.ops();
        let outcome = FunctionalOutcome::compute(ops, &self.cfg);
        self.analyze_with(ops, &outcome)
    }

    /// Analyzes a trace, in either layout, given an existing functional
    /// pass (lets callers reuse one pass across several analyses): the
    /// local pass, then the whole-trace schedule for the effective
    /// resolutions.
    pub fn analyze_with<T: OpView + ?Sized>(
        &self,
        trace: &T,
        outcome: &FunctionalOutcome,
    ) -> PenaltyAnalysis {
        let intervals = segment(0..trace.len(), &outcome.events);
        // Sized exactly: the analysis is often cached for a whole run.
        let mispredicted = intervals
            .iter()
            .filter(|iv| iv.kind == Some(IntervalEventKind::BranchMispredict))
            .count();
        let mut breakdowns = Vec::with_capacity(mispredicted);
        breakdowns.extend(self.analyze_local(trace, outcome, &intervals));

        // Whole-trace schedule: effective resolutions with cross-interval
        // state (window carryover, issue bandwidth, ROB fill), written
        // over the local ones at the mispredicted branches.
        let mut next = 0;
        let mut scheduled_cycles = 0;
        let frontend_events = frontend_events_of(&self.cfg, outcome);
        schedule_trace(
            trace,
            MachineModel::from(&self.cfg),
            &self.cfg.latencies,
            |i| outcome.load_latency(i),
            &frontend_events,
            |i, t| {
                scheduled_cycles = scheduled_cycles.max(t.done);
                let Some(b) = breakdowns.get_mut(next).filter(|b| b.branch_idx == i) else {
                    return;
                };
                b.resolution = t.resolution();
                b.carryover = b.resolution as i64 - b.local_resolution as i64;
                // Conservation identities, mirrored by lint BMP202 and
                // the static-bounds checks (`crate::identities`).
                debug_assert!(
                    crate::identities::breakdown_consistent(b),
                    "knock-out terms must sum to the local resolution and \
                     carryover must reconcile it with the effective resolution \
                     (BMP202): {b:?}"
                );
                next += 1;
            },
        );
        debug_assert_eq!(next, breakdowns.len(), "the schedule visits every branch");

        PenaltyAnalysis {
            intervals,
            breakdowns,
            frontend_depth: self.cfg.frontend_depth,
            instructions: trace.len(),
            scheduled_cycles,
        }
    }

    /// The model's local pass over `intervals` (the segmentation of
    /// `outcome`'s miss events over `trace`): every mispredicted interval
    /// scheduled in isolation and decomposed by [`knockout_interval`],
    /// one breakdown per mispredicted branch in trace order, with
    /// `resolution = local_resolution` and `carryover = 0`.
    ///
    /// This is the half of [`analyze_with`](Self::analyze_with) that
    /// needs no whole-trace schedule. The static bounds
    /// (`bmp_analyze::staticpass::bounds`) and the first-order CPI stack
    /// ([`crate::cpi::predict`]) read nothing else. The breakdowns are
    /// yielded one at a time, so a caller that only aggregates them
    /// holds none.
    pub fn analyze_local<'a, T: OpView + ?Sized>(
        &'a self,
        trace: &'a T,
        outcome: &'a FunctionalOutcome,
        intervals: &'a [Interval],
    ) -> impl Iterator<Item = PenaltyBreakdown> + 'a {
        let params = WindowParams::from(&self.cfg);
        let l1_hit = self.cfg.caches.l1d().hit_latency();
        let mut scratch = KnockoutScratch::default();
        intervals
            .iter()
            .filter(|iv| iv.kind == Some(IntervalEventKind::BranchMispredict))
            .map(move |iv| {
                let local = knockout_interval(
                    trace,
                    iv.start..iv.end + 1,
                    params,
                    &self.cfg.latencies,
                    l1_hit,
                    |i| outcome.load_latency(i),
                    &mut scratch,
                );
                PenaltyBreakdown {
                    branch_idx: iv.end,
                    interval_start: iv.start,
                    interval_len: iv.len(),
                    resolution: local.local_resolution,
                    local_resolution: local.local_resolution,
                    frontend: self.cfg.frontend_depth,
                    base: local.base,
                    ilp: local.ilp,
                    fu_latency: local.fu_latency,
                    short_dmiss: local.short_dmiss,
                    carryover: 0,
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_uarch::{presets, PredictorConfig};
    use bmp_workloads::{micro, spec};

    fn wrong_predictor() -> MachineConfig {
        presets::baseline_4wide()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap()
    }

    #[test]
    fn decomposition_sums_to_resolution() {
        let trace = spec::by_name("twolf").unwrap().generate(30_000, 5);
        let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&trace);
        assert!(!analysis.breakdowns.is_empty());
        for b in &analysis.breakdowns {
            assert_eq!(
                b.base + b.ilp + b.fu_latency + b.short_dmiss,
                b.local_resolution,
                "waterfall must be exact for branch {}",
                b.branch_idx
            );
            assert_eq!(
                b.local_resolution as i64 + b.carryover,
                b.resolution as i64,
                "carryover must reconcile local and global for branch {}",
                b.branch_idx
            );
            assert_eq!(b.penalty(), b.resolution + 5);
        }
    }

    #[test]
    fn chain_length_drives_ilp_share() {
        // always-taken branches + not-taken predictor: every branch
        // mispredicts; the chain ahead of it is pure contributor (iii).
        let model = PenaltyModel::new(wrong_predictor());
        let short = model.analyze(&micro::branch_resolution_kernel(20_000, 2, 1.0, 3));
        let long = model.analyze(&micro::branch_resolution_kernel(20_000, 16, 1.0, 3));
        let (_, ilp_s, _, _) = short.mean_contributions().unwrap();
        let (_, ilp_l, _, _) = long.mean_contributions().unwrap();
        assert!(
            ilp_l > ilp_s + 5.0,
            "16-op chains must dwarf 2-op chains: {ilp_l} vs {ilp_s}"
        );
    }

    #[test]
    fn resolution_grows_with_interval_length() {
        // Low-ILP code with rare mispredictions at varying interval
        // lengths: the bucketed curve must be non-decreasing (within
        // noise) and saturate near W/ILP-ish values.
        let mut profile = spec::by_name("twolf").unwrap();
        profile.deps.mean_distance = 2.0; // serial enough to bind
        let trace = profile.generate(60_000, 9);
        let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&trace);
        // Only well-populated buckets; the tail is statistically thin.
        let curve: Vec<_> = analysis
            .local_resolution_by_interval_length()
            .into_iter()
            .filter(|&(_, _, n)| n >= 100)
            .collect();
        assert!(curve.len() >= 3, "need several buckets, got {curve:?}");
        let first = curve.first().unwrap().1;
        let last = curve.last().unwrap().1;
        assert!(
            last > first,
            "local resolution must grow with interval length: {curve:?}"
        );
        // And the growth is monotone across the populated range.
        for pair in curve.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 * 0.7,
                "ramp-up should be (near-)monotone: {curve:?}"
            );
        }
    }

    #[test]
    fn short_dmiss_share_reacts_to_working_set() {
        // Loads feeding chains: with a working set that fits L1 the (v)
        // share is ~0; blowing past L1 (but within L2) raises it.
        let model = PenaltyModel::new(wrong_predictor());
        let mut profile = spec::by_name("gzip").unwrap();
        profile.branches.easy_frac = 0.0;
        profile.branches.pattern_frac = 0.0;
        profile.memory.hot_bytes = 8 * 1024; // fits 32K L1
        profile.memory.hot_frac = 1.0;
        profile.memory.warm_frac = 0.0;
        let fits = model.analyze(&profile.generate(30_000, 4));
        profile.memory.hot_bytes = 128 * 1024; // L1-busting, L2-resident
        let spills = model.analyze(&profile.generate(30_000, 4));
        let (_, _, _, v_fits) = fits.mean_contributions().unwrap();
        let (_, _, _, v_spills) = spills.mean_contributions().unwrap();
        assert!(
            v_spills > v_fits + 0.3,
            "short-miss share must grow when L1 is blown: {v_spills} vs {v_fits}"
        );
    }

    #[test]
    fn fu_latency_share_reacts_to_latency_scaling() {
        let trace = micro::latency_kernel(20_000, bmp_uarch::OpClass::IntMul);
        // Interleave mispredictions by running a branchy trace instead:
        // use the resolution kernel but with multiply-latency ALUs via
        // scaled latencies.
        let branchy = micro::branch_resolution_kernel(20_000, 8, 1.0, 3);
        let base = PenaltyModel::new(wrong_predictor()).analyze(&branchy);
        let scaled_cfg = wrong_predictor()
            .to_builder()
            .latencies(bmp_uarch::LatencyTable::default().scaled(3.0))
            .build()
            .unwrap();
        let scaled = PenaltyModel::new(scaled_cfg).analyze(&branchy);
        let (_, _, lat_b, _) = base.mean_contributions().unwrap();
        let (_, _, lat_s, _) = scaled.mean_contributions().unwrap();
        assert!(
            lat_s > lat_b + 5.0,
            "3x latencies must inflate contributor (iv): {lat_s} vs {lat_b}"
        );
        let _ = trace;
    }

    #[test]
    fn penalty_exceeds_frontend_depth_on_real_profiles() {
        // The paper's headline: penalty > c_fe.
        for name in ["gcc", "twolf", "parser"] {
            let trace = spec::by_name(name).unwrap().generate(40_000, 2);
            let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&trace);
            let p = analysis.mean_penalty().expect("profiles mispredict");
            assert!(
                p > 5.0 + 1.0,
                "{name}: mean penalty {p} should exceed the 5-cycle frontend"
            );
        }
    }

    #[test]
    fn empty_trace_analysis() {
        let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&Trace::new());
        assert!(analysis.breakdowns.is_empty());
        assert!(analysis.mean_penalty().is_none());
        assert!(analysis.mean_contributions().is_none());
        assert_eq!(analysis.mispredict_mpki(), 0.0);
        assert!(analysis.resolution_by_interval_length().is_empty());
        assert_eq!(analysis.scheduled_cycles, 0);
    }

    /// `scheduled_cycles` is the makespan of the whole-trace schedule:
    /// it equals an independent `schedule_trace` run keeping the latest
    /// completion, across workloads, predictors, depths and windows.
    #[test]
    fn scheduled_cycles_is_the_schedule_makespan() {
        let base = presets::baseline_4wide();
        let machines = [
            base.clone(),
            presets::generation_machine("tage").unwrap(),
            presets::deep_frontend(20).unwrap(),
            base.to_builder()
                .window_size(128)
                .rob_size(base.rob_size.max(128))
                .build()
                .unwrap(),
        ];
        for name in ["gcc", "mcf", "twolf", "gzip", "vortex"] {
            let trace = spec::by_name(name).unwrap().generate(20_000, 7);
            for cfg in &machines {
                let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
                assert_eq!(
                    analysis.scheduled_cycles,
                    crate::cpi::predict_cycles_scheduled(&trace, cfg),
                    "{name} on {cfg}"
                );
            }
        }
    }

    #[test]
    fn histogram_counts_every_breakdown() {
        let trace = spec::by_name("twolf").unwrap().generate(30_000, 5);
        let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&trace);
        let bounds = [2u64, 5, 10, 20, 50, 100];
        let hist = analysis.resolution_histogram(&bounds);
        assert_eq!(hist.len(), bounds.len() + 1);
        let total: u64 = hist.iter().sum();
        assert_eq!(total as usize, analysis.breakdowns.len());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&Trace::new());
        let _ = analysis.resolution_histogram(&[5, 3]);
    }

    #[test]
    fn mpki_is_counted() {
        let trace = micro::branch_resolution_kernel(10_000, 9, 1.0, 3);
        let analysis = PenaltyModel::new(wrong_predictor()).analyze(&trace);
        // One misprediction per 10 ops = 100 MPKI.
        let mpki = analysis.mispredict_mpki();
        assert!((90.0..=110.0).contains(&mpki), "mpki {mpki}");
    }
}
