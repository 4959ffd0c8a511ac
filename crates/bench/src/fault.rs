//! Deterministic panic injection for the experiment engine.
//!
//! Per-experiment panic isolation and retry determinism are only
//! trustworthy if they are exercised, so a run can be told to panic on
//! purpose. A [`FaultPlan`] is threaded explicitly through
//! [`RunPolicy`](crate::engine::RunPolicy) — there is no global state,
//! so tests construct plans directly and run in parallel. `run_all`
//! always runs with [`FaultPlan::none`].
//!
//! # Spec grammar
//!
//! A spec is one or more rules joined by `;`:
//!
//! ```text
//! rule  := 'panic' ':' 'exp=' NAME [':' 'times=' N]
//! ```
//!
//! Examples:
//!
//! * `panic:exp=fig8_ilp` — every attempt of experiment `fig8_ilp`
//!   panics (so it ultimately fails);
//! * `panic:exp=fig8_ilp:times=1` — the first attempt panics and the
//!   retry recomputes the table (proving retry determinism).
//!
//! Rules match by experiment name and fire a bounded number of times
//! (`times=N`; default: every time), so a plan plus a seed fully
//! determines the run.

use std::sync::atomic::{AtomicU32, Ordering};

/// One parsed rule with its firing budget.
#[derive(Debug)]
struct FaultRule {
    /// The experiment name the rule matches.
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
                .ok_or_else(|| format!("bad fault rule {raw:?} (panic:exp=)"))?;
            let (target, times) = match rest.rsplit_once(":times=") {
                Some((target, n)) => (
                    target,
                    n.parse()
                        .map_err(|_| format!("bad times={n:?} in {raw:?}"))?,
                ),
                None => (rest, u32::MAX),
            };
            let name = target
                .strip_prefix("exp=")
                .ok_or_else(|| format!("bad target {target:?} in {raw:?} (exp=)"))?;
            rules.push(FaultRule {
                name: name.to_string(),
                times,
                fired: AtomicU32::new(0),
            });
        }
        Ok(Self { rules })
    }

    /// Returns `true` when a rule matches experiment `name` and still has
    /// firing budget left. Each `true` consumes one firing.
    pub(crate) fn fires(&self, name: &str) -> bool {
        self.rules
            .iter()
            .filter(|r| r.name == name)
            // Claim a firing slot atomically so concurrent experiments
            // never over-fire a bounded rule.
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
            FaultPlan::parse("panic:exp=fig8_ilp; panic:exp=fig9_l1d_misses:times=2").unwrap();
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
            "panic:cell=x",
        ] {
            assert!(FaultPlan::parse(retired).is_err(), "{retired}");
        }
    }

    #[test]
    fn firing_respects_times_and_targets() {
        let plan = FaultPlan::parse("panic:exp=a:times=1; panic:exp=c").unwrap();
        assert!(plan.fires("a"));
        assert!(!plan.fires("a"), "times=1 fires once");
        assert!(!plan.fires("b"));
        assert!(plan.fires("c"));
        assert!(plan.fires("c"), "unbounded rules keep firing");
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.fires("a"));
    }
}
