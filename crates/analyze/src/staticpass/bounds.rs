//! Guaranteed bounds on the five penalty contributors, computed
//! without running a simulator.
//!
//! Two observations make this possible (derivations in
//! `docs/STATIC_ANALYSIS.md`):
//!
//! 1. **The local contributors are exact.** The model's per-interval
//!    knock-out decomposition is itself a closed-form dependence-graph
//!    computation (`bmp_core::drain::knockout_interval`) over the
//!    interval's ops — no cycle-level state is involved. The static pass
//!    *is* the model's local pass ([`PenaltyModel::analyze_local`]), so
//!    `base`, `ilp`, `fu_latency`, `short_dmiss` and `local_resolution`
//!    come out *exactly*, and their bounds collapse to a point. Likewise
//!    `refill = intervals × frontend_depth` by construction.
//!
//! 2. **The effective resolution admits a per-branch envelope.** What the
//!    static pass deliberately does not compute is whole-trace interplay
//!    (window carryover, issue-bandwidth contention, ROB fill) — the
//!    `carryover` term. But every engine dispatches in order and caps the
//!    in-flight set, which yields machine-derived constants
//!    `per_branch_lo`/`per_branch_hi` bracketing *any* engine's
//!    per-misprediction resolution. Summed over the misprediction count,
//!    they bound the effective-resolution and carryover totals.
//!
//! A ranged bound's `point` is the local total (carryover 0), a
//! lower-biased value no tool prints. The estimate the tools print is
//! the interval model's full penalty:
//! `bmp-lint --static` reads it from each metrics entry's `model`
//! section and `run_all`'s surrogate from the cached analysis (see
//! `docs/STATIC_ANALYSIS.md`).

use bmp_core::functional::FunctionalOutcome;
use bmp_core::identities;
use bmp_core::intervals::segment;
use bmp_core::metrics::ModelMetrics;
use bmp_core::{PenaltyBreakdown, PenaltyModel};
use bmp_trace::Trace;
use bmp_uarch::{MachineConfig, OpClass};

/// A closed interval `[lo, hi]` with a point estimate, all in cycles
/// (signed so the carryover total fits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// Guaranteed lower bound.
    pub lo: i64,
    /// Point estimate (always within `[lo, hi]`).
    pub point: i64,
    /// Guaranteed upper bound.
    pub hi: i64,
}

impl Bound {
    /// An exact value: `lo == point == hi`.
    pub fn exact(v: i64) -> Self {
        Self {
            lo: v,
            point: v,
            hi: v,
        }
    }

    /// A ranged bound with the point estimate clamped inside.
    pub fn ranged(lo: i64, point: i64, hi: i64) -> Self {
        debug_assert!(lo <= hi, "bound must be ordered: [{lo}, {hi}]");
        Self {
            lo,
            point: point.clamp(lo, hi),
            hi,
        }
    }

    /// Whether the bound has collapsed to a single value.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `v` lies within `[lo, hi]`.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Static bounds on every penalty-accounting total of one
/// (config, trace) pair. All fields are *totals* over the trace's
/// mispredicted-branch intervals, mirroring [`ModelMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct StaticBounds {
    /// Instructions analyzed.
    pub instructions: u64,
    /// Mispredicted-branch intervals found by the functional pass.
    pub intervals: u64,
    /// Frontend depth of the analyzed machine.
    pub frontend_depth: u32,
    /// Per-misprediction resolution lower bound (engine-independent).
    pub per_branch_lo: u64,
    /// Per-misprediction resolution upper bound (engine-independent).
    pub per_branch_hi: u64,
    /// Contributor (i): frontend refill total — exact.
    pub refill: Bound,
    /// The resolution floor total — exact, and equal to
    /// `2 × intervals` (see the base-term theorem in
    /// `docs/STATIC_ANALYSIS.md`).
    pub base: Bound,
    /// Contributor (iii): ILP share total — exact.
    pub ilp: Bound,
    /// Contributor (iv): FU-latency share total — exact.
    pub fu_latency: Bound,
    /// Contributor (v): short D-miss share total — exact.
    pub short_dmiss: Bound,
    /// Local (isolated-interval) resolution total — exact; the sum of
    /// the four terms above.
    pub local_resolution: Bound,
    /// Contributor (ii)'s cross-interval part: carryover total —
    /// bounded via the per-branch envelope, point estimate 0-ish.
    pub carryover: Bound,
    /// Effective resolution total — bounded, point = local total.
    pub resolution: Bound,
    /// Full penalty total (resolution + refill) — bounded.
    pub penalty: Bound,
}

impl StaticBounds {
    /// Aggregates the bounds of a trace of `instructions` ops on `cfg`
    /// from its penalty breakdowns: the local terms are summed exactly,
    /// and the effective resolution, carryover and penalty get the
    /// per-branch envelope around the local total (carryover point 0).
    ///
    /// Reads only the local terms, so the breakdowns of the model's
    /// local pass ([`PenaltyModel::analyze_local`]) and of a full
    /// analysis give the same bounds.
    pub fn from_breakdowns(
        cfg: &MachineConfig,
        instructions: usize,
        breakdowns: impl IntoIterator<Item = PenaltyBreakdown>,
    ) -> Self {
        let [n, base, ilp, fu, sd, local] = breakdowns.into_iter().fold([0u64; 6], |t, b| {
            [
                t[0] + 1,
                t[1] + b.base,
                t[2] + b.ilp,
                t[3] + b.fu_latency,
                t[4] + b.short_dmiss,
                t[5] + b.local_resolution,
            ]
        });
        let (per_lo, per_hi) = per_branch_resolution_bounds(cfg);
        let refill = (n * u64::from(cfg.frontend_depth)) as i64;
        let res_lo = (n * per_lo) as i64;
        let res_hi = (n * per_hi) as i64;
        let local = local as i64;
        Self {
            instructions: instructions as u64,
            intervals: n,
            frontend_depth: cfg.frontend_depth,
            per_branch_lo: per_lo,
            per_branch_hi: per_hi,
            refill: Bound::exact(refill),
            base: Bound::exact(base as i64),
            ilp: Bound::exact(ilp as i64),
            fu_latency: Bound::exact(fu as i64),
            short_dmiss: Bound::exact(sd as i64),
            local_resolution: Bound::exact(local),
            carryover: Bound::ranged(res_lo - local, 0, res_hi - local),
            resolution: Bound::ranged(res_lo, local, res_hi),
            penalty: Bound::ranged(res_lo + refill, local + refill, res_hi + refill),
        }
    }

    /// The contributor table in the paper's order:
    /// `(label, bound, exact?)` rows for reports.
    pub fn contributor_rows(&self) -> [(&'static str, Bound); 8] {
        [
            ("frontend (i)", self.refill),
            ("base", self.base),
            ("ilp (iii)", self.ilp),
            ("fu-latency (iv)", self.fu_latency),
            ("short-dmiss (v)", self.short_dmiss),
            ("carryover (ii)", self.carryover),
            ("resolution", self.resolution),
            ("penalty", self.penalty),
        ]
    }

    /// Checks the *exact* part of a model-metrics section: the local
    /// contributors and refill must match the static recomputation to
    /// the cycle (the static pass calls the model's own per-interval
    /// kernel).
    ///
    /// Returns one message per violation; the empty vector is a pass.
    pub fn check_model_exact(&self, m: &ModelMetrics) -> Vec<String> {
        if m.intervals != self.intervals {
            return vec![format!(
                "model analyzed {} intervals but the static pass found {} \
                 — different trace or config",
                m.intervals, self.intervals
            )];
        }
        let mut v = Vec::new();
        let exact = [
            ("base", m.base, self.base),
            ("ilp", m.ilp, self.ilp),
            ("fu-latency", m.fu_latency, self.fu_latency),
            ("short-dmiss", m.short_dmiss, self.short_dmiss),
            (
                "local resolution",
                m.local_resolution,
                self.local_resolution,
            ),
            ("refill", m.refill, self.refill),
        ];
        for (name, got, want) in exact {
            if got as i64 != want.point {
                v.push(format!(
                    "{name} total {got} != statically recomputed {}",
                    want.point
                ));
            }
        }
        v
    }

    /// Checks the *bounded* part of a model-metrics section: the
    /// effective resolution and carryover totals must fall within the
    /// proven per-branch envelope.
    pub fn check_model_envelope(&self, m: &ModelMetrics) -> Vec<String> {
        let mut v = Vec::new();
        if !self.resolution.contains(m.resolution as i64) {
            v.push(format!(
                "resolution total {} outside proven bounds [{}, {}]",
                m.resolution, self.resolution.lo, self.resolution.hi
            ));
        }
        if !self.carryover.contains(m.carryover) {
            v.push(format!(
                "carryover total {} outside proven bounds [{}, {}]",
                m.carryover, self.carryover.lo, self.carryover.hi
            ));
        }
        v
    }

    /// [`check_model_exact`](Self::check_model_exact) and
    /// [`check_model_envelope`](Self::check_model_envelope) combined.
    pub fn check_model(&self, m: &ModelMetrics) -> Vec<String> {
        let mut v = self.check_model_exact(m);
        if v.is_empty() || m.intervals == self.intervals {
            v.extend(self.check_model_envelope(m));
        }
        v
    }

    /// Checks a simulator's recorded totals against the per-branch
    /// envelope and the refill law. `mispredicts` must be the *engine's
    /// own* misprediction count (the simulated predictor state can
    /// diverge slightly from the functional pass — experiment E-F10), so
    /// the envelope is applied per recorded event.
    pub fn check_sim(
        &self,
        mispredicts: u64,
        resolution_total: u64,
        refill_total: u64,
    ) -> Vec<String> {
        let mut v = Vec::new();
        let lo = mispredicts * self.per_branch_lo;
        let hi = mispredicts * self.per_branch_hi;
        if !(lo..=hi).contains(&resolution_total) {
            v.push(format!(
                "simulated resolution total {resolution_total} outside \
                 [{lo}, {hi}] for {mispredicts} mispredictions \
                 (per-branch envelope [{}, {}])",
                self.per_branch_lo, self.per_branch_hi
            ));
        }
        let want_refill = mispredicts * u64::from(self.frontend_depth);
        if !identities::refill_identity(mispredicts, self.frontend_depth, refill_total) {
            v.push(format!(
                "simulated refill total {refill_total} != {mispredicts} \
                 mispredictions x frontend depth {} = {want_refill}",
                self.frontend_depth
            ));
        }
        v
    }
}

/// The engine-independent per-misprediction resolution envelope of a
/// machine: every engine's `resolution = done − dispatch` of a
/// mispredicted branch lies in `[lo, hi]`.
///
/// * `lo = 1 + latency(Branch)`: dispatch-to-issue takes one cycle in
///   every engine and the branch then executes.
/// * `hi = M·(L + O + 2) + L` with `M = max(window, rob)`,
///   `L` the largest possible op latency (table maximum or the full
///   L1+L2+memory data path) and `O` the largest non-pipelined FU
///   occupancy (the divide latencies): in-order dispatch plus the
///   ROB/window caps leave at most `M` older unissued ops at the
///   branch's dispatch, and oldest-first issue retires each within
///   `L + O + 2` cycles once it is the oldest. See
///   `docs/STATIC_ANALYSIS.md` for the full induction.
pub fn per_branch_resolution_bounds(cfg: &MachineConfig) -> (u64, u64) {
    let lo = 1 + u64::from(cfg.latencies.latency(OpClass::Branch));
    let data_path = u64::from(cfg.caches.l1d().hit_latency())
        + cfg.caches.l2().map_or(0, |l2| u64::from(l2.hit_latency()))
        + u64::from(cfg.caches.mem_latency());
    let max_lat = u64::from(cfg.latencies.max_latency()).max(data_path);
    let max_occ = u64::from(
        cfg.latencies
            .latency(OpClass::IntDiv)
            .max(cfg.latencies.latency(OpClass::FpDiv)),
    );
    let m = u64::from(cfg.window_size.max(cfg.rob_size));
    let hi = m * (max_lat + max_occ + 2) + max_lat;
    (lo, hi)
}

/// Runs the functional pass and the penalty model's local pass
/// ([`PenaltyModel::analyze_local`]) and computes the static bounds for
/// `trace` on `cfg`.
pub fn compute(cfg: &MachineConfig, trace: &Trace) -> StaticBounds {
    let ops = trace.ops();
    let outcome = FunctionalOutcome::compute(ops, cfg);
    let intervals = segment(0..ops.len(), &outcome.events);
    let model = PenaltyModel::new(cfg.clone());
    let local = model.analyze_local(ops, &outcome, &intervals);
    StaticBounds::from_breakdowns(cfg, ops.len(), local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::PenaltyModel;
    use bmp_uarch::presets;
    use bmp_workloads::spec;

    fn bounds_for(name: &str, ops: usize, seed: u64) -> (StaticBounds, bmp_core::PenaltyAnalysis) {
        let cfg = presets::baseline_4wide();
        let trace = spec::by_name(name).unwrap().generate(ops, seed);
        let b = compute(&cfg, &trace);
        let a = PenaltyModel::new(cfg).analyze(&trace);
        (b, a)
    }

    #[test]
    fn local_terms_match_model_exactly() {
        let (b, a) = bounds_for("twolf", 20_000, 11);
        assert!(b.intervals > 0);
        assert_eq!(b.intervals as usize, a.breakdowns.len());
        let sum = |f: fn(&bmp_core::PenaltyBreakdown) -> u64| {
            a.breakdowns.iter().map(f).sum::<u64>() as i64
        };
        assert_eq!(b.base.point, sum(|x| x.base));
        assert_eq!(b.ilp.point, sum(|x| x.ilp));
        assert_eq!(b.fu_latency.point, sum(|x| x.fu_latency));
        assert_eq!(b.short_dmiss.point, sum(|x| x.short_dmiss));
        assert_eq!(b.local_resolution.point, sum(|x| x.local_resolution));
        assert!(b.base.is_exact() && b.ilp.is_exact());
    }

    #[test]
    fn base_theorem_two_cycles_per_interval() {
        // With unit latencies and dependences ignored, every op's
        // resolution is exactly 2 (enter → issue+1 → done+1), and the
        // cascade cannot push it below the unit-latency floor of 2.
        for name in ["gzip", "gcc", "mcf"] {
            let (b, _) = bounds_for(name, 15_000, 3);
            assert_eq!(
                b.base.point,
                2 * b.intervals as i64,
                "{name}: base must be exactly 2 per interval"
            );
        }
    }

    #[test]
    fn model_resolution_within_bounds() {
        let (b, a) = bounds_for("gcc", 20_000, 5);
        let res: i64 = a.breakdowns.iter().map(|x| x.resolution as i64).sum();
        let carry: i64 = a.breakdowns.iter().map(|x| x.carryover).sum();
        assert!(b.resolution.contains(res), "{res} in {:?}", b.resolution);
        assert!(b.carryover.contains(carry), "{carry} in {:?}", b.carryover);
        let m = bmp_core::metrics::ModelMetrics::from_analysis(
            &a,
            bmp_core::cpi::CpiStack {
                instructions: 0,
                base_cycles: 0.0,
                branch_cycles: 0.0,
                icache_cycles: 0.0,
                long_dmiss_cycles: 0.0,
            },
        );
        assert!(b.check_model(&m).is_empty(), "{:?}", b.check_model(&m));
    }

    #[test]
    fn check_model_flags_violations() {
        let (b, a) = bounds_for("twolf", 10_000, 2);
        let mut m = bmp_core::metrics::ModelMetrics::from_analysis(
            &a,
            bmp_core::cpi::CpiStack {
                instructions: 0,
                base_cycles: 0.0,
                branch_cycles: 0.0,
                icache_cycles: 0.0,
                long_dmiss_cycles: 0.0,
            },
        );
        m.base += 1;
        m.resolution = b.resolution.hi as u64 + 1;
        let v = b.check_model(&m);
        assert_eq!(v.len(), 2, "{v:?}");
        m.intervals += 1;
        assert_eq!(b.check_model(&m).len(), 1);
    }

    #[test]
    fn check_sim_envelope_and_refill() {
        let (b, _) = bounds_for("twolf", 10_000, 2);
        let n = 100u64;
        assert!(b
            .check_sim(n, n * b.per_branch_lo + 1, n * u64::from(b.frontend_depth))
            .is_empty());
        let v = b.check_sim(
            n,
            n * b.per_branch_hi + 1,
            n * u64::from(b.frontend_depth) + 1,
        );
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn envelope_constants_for_baseline() {
        let cfg = presets::baseline_4wide();
        let (lo, hi) = per_branch_resolution_bounds(&cfg);
        assert_eq!(lo, 2, "1 + unit branch latency");
        // L = max(24, 2+12+200) = 214, O = 24, M = max(64, 128) = 128.
        assert_eq!(hi, 128 * (214 + 24 + 2) + 214);
    }

    #[test]
    fn empty_trace_bounds() {
        let cfg = presets::baseline_4wide();
        let b = compute(&cfg, &Trace::new());
        assert_eq!(b.intervals, 0);
        assert_eq!(b.resolution, Bound::exact(0));
    }

    #[test]
    fn bound_arithmetic() {
        let b = Bound::ranged(2, 10, 20);
        assert!(b.contains(2) && b.contains(20) && !b.contains(21));
        assert!(!b.is_exact());
        // Point clamps into the range.
        assert_eq!(Bound::ranged(5, 1, 9).point, 5);
        assert_eq!(Bound::exact(7).point, 7);
    }
}
