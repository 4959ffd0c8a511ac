//! Simulation options orthogonal to the machine configuration.

/// Knobs controlling what the simulator records, independent of the
/// machine being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Record the per-cycle dispatch count (used by the interval-profile
    /// experiment E-F1). Costs one byte per simulated cycle.
    pub record_dispatch_timeline: bool,
    /// Cycle-budget watchdog: a run that reaches this many cycles with
    /// instructions still uncommitted aborts with
    /// [`SimError::BudgetExceeded`](crate::SimError::BudgetExceeded)
    /// instead of hanging its worker. The default (`u64::MAX`) means
    /// "derive a generous budget from the trace length" — see
    /// [`cycle_budget`](SimOptions::cycle_budget).
    pub max_cycles: u64,
    /// Instructions to run before statistics start counting. Machine
    /// state (caches, predictors, BTB) carries over; every counter,
    /// event log and penalty record resets at the boundary — the
    /// standard warmup idiom that keeps compulsory misses from
    /// dominating short runs.
    pub warmup_ops: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            record_dispatch_timeline: false,
            max_cycles: u64::MAX,
            warmup_ops: 0,
        }
    }
}

impl SimOptions {
    /// Cycles allowed per trace instruction when `max_cycles` is left at
    /// its auto default. The slowest legitimate per-op cost is a serial
    /// chain of memory-level misses (a few hundred cycles each); 4096
    /// leaves an order of magnitude of slack above that, so only a
    /// genuinely wedged machine trips the watchdog.
    pub const AUTO_BUDGET_SLACK: u64 = 4096;

    /// Flat cycle allowance added to the auto budget, covering drain and
    /// cold-start costs of very short traces.
    pub const AUTO_BUDGET_BASE: u64 = 100_000;

    /// Options with the dispatch timeline enabled.
    pub fn with_timeline() -> Self {
        Self {
            record_dispatch_timeline: true,
            ..Self::default()
        }
    }

    /// Options with a warmup of `ops` instructions.
    pub fn with_warmup(ops: u64) -> Self {
        Self {
            warmup_ops: ops,
            ..Self::default()
        }
    }

    /// Options with an explicit cycle budget.
    pub fn with_max_cycles(max_cycles: u64) -> Self {
        Self {
            max_cycles,
            ..Self::default()
        }
    }

    /// The effective watchdog budget for a trace of `ops` instructions:
    /// `max_cycles` when set explicitly, otherwise
    /// `ops × AUTO_BUDGET_SLACK + AUTO_BUDGET_BASE`.
    pub fn cycle_budget(&self, ops: u64) -> u64 {
        if self.max_cycles != u64::MAX {
            self.max_cycles
        } else {
            ops.saturating_mul(Self::AUTO_BUDGET_SLACK)
                .saturating_add(Self::AUTO_BUDGET_BASE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = SimOptions::default();
        assert!(!o.record_dispatch_timeline);
        assert_eq!(o.max_cycles, u64::MAX);
        assert!(SimOptions::with_timeline().record_dispatch_timeline);
        assert_eq!(SimOptions::with_warmup(100).warmup_ops, 100);
        assert_eq!(o.warmup_ops, 0);
    }

    #[test]
    fn budget_is_explicit_or_derived() {
        assert_eq!(
            SimOptions::with_max_cycles(500).cycle_budget(1_000_000),
            500
        );
        let auto = SimOptions::default().cycle_budget(1_000);
        assert_eq!(
            auto,
            1_000 * SimOptions::AUTO_BUDGET_SLACK + SimOptions::AUTO_BUDGET_BASE
        );
        // Saturates instead of overflowing on absurd trace lengths.
        assert_eq!(SimOptions::default().cycle_budget(u64::MAX), u64::MAX);
    }
}
