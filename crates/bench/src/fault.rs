//! Deterministic panic injection for the experiment engine.
//!
//! Per-cell panic isolation and retry determinism are only trustworthy
//! if they are exercised, so a run can be told to panic on purpose. A
//! [`FaultPlan`] is threaded explicitly through
//! [`RunPolicy`](crate::engine::RunPolicy) — there is no global state,
//! so tests construct plans directly and run in parallel. `run_all`
//! always runs with [`FaultPlan::none`].
//!
//! # Spec grammar
//!
//! A spec is one or more rules joined by `;`:
//!
//! ```text
//! rule  := 'panic' ':' target [':' 'times=' N]
//! target:= 'exp=' NAME | 'cell=' LABEL
//! ```
//!
//! Examples:
//!
//! * `panic:exp=fig8_ilp` — every attempt of experiment `fig8_ilp`
//!   panics (so it ultimately fails);
//! * `panic:cell=gcc/sim-baseline:times=1` — the first computation of
//!   that cell panics; the cell error is soft, and the owning
//!   experiments recompute the artifact (proving retry determinism).
//!
//! A `cell=` target names a cell by the label derived from its
//! typed fields ([`crate::grid::Cell::label`]):
//!
//! ```text
//! label    := workload '/' artifact '-' machine [ '-' mode ]
//! workload := PROFILE | KERNEL | 'chain' N | 'parser-hot24k'
//! artifact := 'sim' | 'analysis' | 'classes'
//! machine  := 'baseline' | 'pred-' GENERATION | SWEEP-TAG
//! mode     := 'warmup' | 'timeline'            (sim cells only)
//! ```
//!
//! e.g. `gzip/sim-baseline`, `gzip/analysis-baseline`,
//! `gzip/sim-baseline-warmup`, `gcc/sim-pred-tage`, `twolf/sim-depth20`.
//! Cells with equal content are computed once, under the label of the
//! first experiment in the engine's schedule that declares them.
//!
//! Rules match by name and fire a bounded number of times (`times=N`;
//! default: every time), so a plan plus a seed fully determines the run.

use std::sync::atomic::{AtomicU32, Ordering};

/// The unit of work a rule selects, or a query asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultSite<'a> {
    /// An experiment by registry name.
    Exp(&'a str),
    /// A cell, by label.
    Cell(&'a str),
}

/// One parsed rule with its firing budget.
#[derive(Debug)]
struct FaultRule {
    /// `true` for an `exp=` rule, `false` for a `cell=` rule.
    exp: bool,
    /// The experiment name or cell label the rule matches.
    name: String,
    /// Maximum number of times this rule fires (`u32::MAX` = unlimited).
    times: u32,
    fired: AtomicU32,
}

/// A parsed, counting panic schedule. An empty (default) plan never
/// fires and costs one slice iteration per query.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed rule.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for raw in spec.split(';').map(str::trim).filter(|r| !r.is_empty()) {
            let rest = raw
                .strip_prefix("panic:")
                .ok_or_else(|| format!("bad fault rule {raw:?} (panic:exp=|panic:cell=)"))?;
            let (target, times) = match rest.rsplit_once(":times=") {
                Some((target, n)) => (
                    target,
                    n.parse()
                        .map_err(|_| format!("bad times={n:?} in {raw:?}"))?,
                ),
                None => (rest, u32::MAX),
            };
            let (exp, name) = if let Some(name) = target.strip_prefix("exp=") {
                (true, name)
            } else if let Some(label) = target.strip_prefix("cell=") {
                (false, label)
            } else {
                return Err(format!("bad target {target:?} in {raw:?} (exp=|cell=)"));
            };
            rules.push(FaultRule {
                exp,
                name: name.to_string(),
                times,
                fired: AtomicU32::new(0),
            });
        }
        Ok(Self { rules })
    }

    /// Returns `true` when a rule matches `site` and still has firing
    /// budget left. Each `true` consumes one firing.
    pub(crate) fn fires(&self, site: FaultSite<'_>) -> bool {
        let (exp, name) = match site {
            FaultSite::Exp(n) => (true, n),
            FaultSite::Cell(l) => (false, l),
        };
        self.rules
            .iter()
            .filter(|r| r.exp == exp && r.name == name)
            // Claim a firing slot atomically so concurrent cells never
            // over-fire a bounded rule.
            .any(|r| {
                r.fired
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                        (n < r.times).then_some(n + 1)
                    })
                    .is_ok()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        let plan =
            FaultPlan::parse("panic:exp=fig8_ilp; panic:cell=gzip/sim-baseline:times=2").unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[1].times, 2);
        assert!(FaultPlan::parse("").unwrap().rules.is_empty());
        assert!(FaultPlan::parse("explode:exp=x").is_err());
        assert!(FaultPlan::parse("panic:everything").is_err());
        assert!(FaultPlan::parse("panic:exp=x:times=many").is_err());
        // The retired kinds and targets are errors, not silent no-ops.
        for retired in [
            "io:file=fig9_cpi",
            "budget:exp=x",
            "torn-write:store",
            "corrupt:index=3",
            "panic:index=7",
        ] {
            assert!(FaultPlan::parse(retired).is_err(), "{retired}");
        }
    }

    #[test]
    fn firing_respects_times_and_targets() {
        let plan = FaultPlan::parse("panic:exp=a:times=1; panic:cell=c").unwrap();
        assert!(plan.fires(FaultSite::Exp("a")));
        assert!(!plan.fires(FaultSite::Exp("a")), "times=1 fires once");
        assert!(!plan.fires(FaultSite::Exp("b")));
        assert!(!plan.fires(FaultSite::Cell("a")), "exp rules skip cells");
        assert!(!plan.fires(FaultSite::Exp("c")), "cell rules skip exps");
        assert!(plan.fires(FaultSite::Cell("c")));
        assert!(
            plan.fires(FaultSite::Cell("c")),
            "unbounded rules keep firing"
        );
    }

    #[test]
    fn cell_labels_with_colons_match() {
        let plan = FaultPlan::parse("panic:cell=sim:gcc:base:times=1").unwrap();
        assert!(!plan.fires(FaultSite::Cell("sim:gcc")));
        assert!(plan.fires(FaultSite::Cell("sim:gcc:base")));
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.fires(FaultSite::Exp("a")));
        assert!(!plan.fires(FaultSite::Cell("a")));
    }
}
