//! Deterministic fault injection for the experiment harness.
//!
//! The fault-tolerance machinery (per-cell panic isolation, retries, the
//! crash-safe journal, `--resume`) is only trustworthy if it is
//! exercised, so the harness can be told to fail on purpose. A
//! [`FaultPlan`] is parsed from the `BMP_FAULT` environment variable (or
//! `run_all --inject <spec>`) and threaded explicitly to the few
//! places that consult it — there is no global state, so tests can
//! construct plans directly and run in parallel.
//!
//! # Spec grammar
//!
//! A spec is one or more rules joined by `;`:
//!
//! ```text
//! rule  := kind ':' target [':' 'times=' N]
//! kind  := 'panic' | 'io' | 'budget' | 'torn-write' | 'corrupt'
//! target:= 'exp=' NAME | 'cell=' LABEL | 'index=' N | 'file=' NAME | 'store'
//! ```
//!
//! Examples:
//!
//! * `panic:exp=fig8_ilp` — every attempt of experiment `fig8_ilp`
//!   panics (so it ultimately fails and lands in the journal);
//! * `panic:cell=gcc/sim-baseline:times=1` — the first computation of
//!   that fan-out cell panics; the cell error is soft, and the owning
//!   experiments recompute the artifact (proving retry determinism);
//! * `io:file=fig9_l1d_misses` — writing `fig9_l1d_misses.csv` fails;
//! * `budget:exp=table2_benchmarks` — the experiment runs a sacrificial
//!   simulation with a tiny cycle budget, so a *real*
//!   `SimError::BudgetExceeded` travels the failure path.
//!
//! A `cell=` target names a fan-out cell by the label derived from its
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
//! Cells with equal content are fanned out once, under the label of the
//! first experiment (in registry order) that declares them.
//!
//! The `torn-write` and `corrupt` kinds target the persistent artifact
//! store (`BMP_STORE`, see `docs/STORE.md`): `torn-write` leaves a
//! truncated record at the final path (a crash mid-write), `corrupt`
//! flips one payload bit after checksumming (silent media corruption).
//! Both are detected — never served — by the store's verification, so
//! they exercise the quarantine-and-recompute path end to end:
//!
//! * `torn-write:store:times=1` — the first store write this process
//!   performs is torn;
//! * `corrupt:index=3:times=1` — the store's 4th write (its write
//!   sequence number is the site index) is bit-flipped;
//! * `torn-write:store` — every store write is torn (the store
//!   degrades to a pure recompute cache, results stay correct).
//!
//! Every injected fault is deterministic: rules match by name/index and
//! fire a bounded number of times (`times=N`; default: every time), so
//! a fault schedule plus a seed fully determines the run.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// What kind of failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the targeted unit of work.
    Panic,
    /// Fail the write of the targeted output file.
    Io,
    /// Trip the cycle-budget watchdog in the targeted experiment.
    Budget,
    /// Leave a truncated record visible at the final path of a store
    /// write — the on-disk state a crash mid-write produces.
    TornWrite,
    /// Flip one payload bit of a store write after checksumming —
    /// silent corruption the next read must catch.
    Corrupt,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "io" => Some(FaultKind::Io),
            "budget" => Some(FaultKind::Budget),
            "torn-write" => Some(FaultKind::TornWrite),
            "corrupt" => Some(FaultKind::Corrupt),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
            FaultKind::Budget => "budget",
            FaultKind::TornWrite => "torn-write",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// What unit of work a rule selects.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FaultTarget {
    /// An experiment by registry name.
    Exp(String),
    /// A shared cell by label.
    Cell(String),
    /// A job by flat index (cells and experiments both count).
    Index(usize),
    /// An output file by table id (filename stem).
    File(String),
    /// Any write of the persistent artifact store.
    Store,
}

/// One parsed rule with its firing budget.
#[derive(Debug)]
struct FaultRule {
    kind: FaultKind,
    target: FaultTarget,
    /// Maximum number of times this rule fires (`u32::MAX` = unlimited).
    times: u32,
    fired: AtomicU32,
}

/// Identifies the unit of work asking "should I fail?".
///
/// Construct with the helpers and chain the optional dimensions:
/// `FaultSite::exp("fig8_ilp")`, `FaultSite::cell("gcc/sim-baseline").index(3)`,
/// `FaultSite::file("fig9_l1d_misses")`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSite<'a> {
    exp: Option<&'a str>,
    cell: Option<&'a str>,
    index: Option<usize>,
    file: Option<&'a str>,
    store: bool,
}

impl<'a> FaultSite<'a> {
    /// A site identified by experiment name.
    pub fn exp(name: &'a str) -> Self {
        Self {
            exp: Some(name),
            ..Self::default()
        }
    }

    /// A site identified by cell label.
    pub fn cell(label: &'a str) -> Self {
        Self {
            cell: Some(label),
            ..Self::default()
        }
    }

    /// A site identified by output file stem (table id).
    pub fn file(stem: &'a str) -> Self {
        Self {
            file: Some(stem),
            ..Self::default()
        }
    }

    /// Adds a flat job index to the site.
    pub fn index(mut self, index: usize) -> Self {
        self.index = Some(index);
        self
    }

    /// A persistent-store write site; `seq` is the store's write
    /// sequence number, so `index=N` rules can pick an arbitrary write
    /// point (the crash-recovery proptest's lever).
    pub fn store(seq: usize) -> Self {
        Self {
            store: true,
            index: Some(seq),
            ..Self::default()
        }
    }
}

/// A parsed, counting fault schedule. An empty (default) plan never
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

    /// Whether the plan contains any rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed rule.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let mut parts = raw.split(':');
            let kind = parts
                .next()
                .and_then(FaultKind::parse)
                .ok_or_else(|| format!("bad fault kind in {raw:?} (panic|io|budget)"))?;
            let target_raw = parts
                .next()
                .ok_or_else(|| format!("missing target in {raw:?}"))?;
            // The cell label itself may contain ':', so everything up to
            // a trailing `times=N` segment belongs to the target.
            let mut target_parts = vec![target_raw];
            let mut times = u32::MAX;
            for extra in parts {
                if let Some(n) = extra.strip_prefix("times=") {
                    times = n
                        .parse()
                        .map_err(|_| format!("bad times={n:?} in {raw:?}"))?;
                } else {
                    target_parts.push(extra);
                }
            }
            let target_full = target_parts.join(":");
            let target = if let Some(name) = target_full.strip_prefix("exp=") {
                FaultTarget::Exp(name.to_string())
            } else if let Some(label) = target_full.strip_prefix("cell=") {
                FaultTarget::Cell(label.to_string())
            } else if let Some(n) = target_full.strip_prefix("index=") {
                FaultTarget::Index(
                    n.parse()
                        .map_err(|_| format!("bad index={n:?} in {raw:?}"))?,
                )
            } else if let Some(stem) = target_full.strip_prefix("file=") {
                FaultTarget::File(stem.to_string())
            } else if target_full == "store" {
                FaultTarget::Store
            } else {
                return Err(format!(
                    "bad target {target_full:?} in {raw:?} (exp=|cell=|index=|file=|store)"
                ));
            };
            rules.push(FaultRule {
                kind,
                target,
                times,
                fired: AtomicU32::new(0),
            });
        }
        Ok(Self { rules })
    }

    /// Reads `BMP_FAULT` from the environment.
    ///
    /// # Errors
    ///
    /// Propagates parse errors so a typo in the spec aborts the run
    /// loudly instead of silently injecting nothing.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("BMP_FAULT") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => Ok(Self::none()),
        }
    }

    /// Returns `true` when a rule of `kind` matches `site` and still has
    /// firing budget left. Each `true` consumes one firing.
    pub fn fires(&self, kind: FaultKind, site: FaultSite<'_>) -> bool {
        for rule in &self.rules {
            if rule.kind != kind {
                continue;
            }
            let matched = match &rule.target {
                FaultTarget::Exp(n) => site.exp == Some(n.as_str()),
                FaultTarget::Cell(l) => site.cell == Some(l.as_str()),
                FaultTarget::Index(i) => site.index == Some(*i),
                FaultTarget::File(f) => site.file == Some(f.as_str()),
                FaultTarget::Store => site.store,
            };
            if !matched {
                continue;
            }
            // Claim a firing slot atomically so concurrent cells never
            // over-fire a bounded rule.
            if rule
                .fired
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < rule.times).then_some(n + 1)
                })
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    /// The injected I/O error used for `io:` faults.
    pub fn io_error(context: &str) -> std::io::Error {
        std::io::Error::other(format!("injected io fault at {context}"))
    }

    /// Builds the persistent store's write-fault hook from a shared
    /// plan: `torn-write`/`corrupt` rules matching a store site (the
    /// write sequence number is the site index) become the store's
    /// injected faults. The hook owns its `Arc`, so it can outlive the
    /// caller; firing budgets are shared with every other query of the
    /// same plan.
    pub fn store_hook(plan: std::sync::Arc<FaultPlan>) -> bmp_core::store::WriteFaultHook {
        use bmp_core::store::InjectedWriteFault;
        Box::new(move |_key, seq| {
            let site = FaultSite::store(seq as usize);
            if plan.fires(FaultKind::TornWrite, site) {
                InjectedWriteFault::Torn
            } else if plan.fires(FaultKind::Corrupt, site) {
                InjectedWriteFault::BitFlip
            } else {
                InjectedWriteFault::None
            }
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            let target = match &r.target {
                FaultTarget::Exp(n) => format!("exp={n}"),
                FaultTarget::Cell(l) => format!("cell={l}"),
                FaultTarget::Index(i) => format!("index={i}"),
                FaultTarget::File(s) => format!("file={s}"),
                FaultTarget::Store => "store".to_string(),
            };
            write!(f, "{}:{}", r.kind.as_str(), target)?;
            if r.times != u32::MAX {
                write!(f, ":times={}", r.times)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        let plan = FaultPlan::parse(
            "panic:exp=fig8_ilp; io:file=fig9_cpi:times=2;budget:cell=sim:gcc:base:times=1",
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(
            plan.to_string(),
            "panic:exp=fig8_ilp; io:file=fig9_cpi:times=2; budget:cell=sim:gcc:base:times=1"
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("explode:exp=x").is_err());
        assert!(FaultPlan::parse("panic:everything").is_err());
        assert!(FaultPlan::parse("panic:index=many").is_err());
    }

    #[test]
    fn firing_respects_times_and_targets() {
        let plan = FaultPlan::parse("panic:exp=a:times=1; panic:index=7").unwrap();
        assert!(plan.fires(FaultKind::Panic, FaultSite::exp("a")));
        assert!(
            !plan.fires(FaultKind::Panic, FaultSite::exp("a")),
            "times=1 fires once"
        );
        assert!(!plan.fires(FaultKind::Panic, FaultSite::exp("b")));
        assert!(!plan.fires(FaultKind::Io, FaultSite::exp("a")));
        assert!(plan.fires(FaultKind::Panic, FaultSite::cell("x").index(7)));
        assert!(
            plan.fires(FaultKind::Panic, FaultSite::cell("y").index(7)),
            "unbounded rules keep firing"
        );
    }

    #[test]
    fn cell_labels_with_colons_match() {
        let plan = FaultPlan::parse("panic:cell=sim:gcc:base").unwrap();
        assert!(plan.fires(FaultKind::Panic, FaultSite::cell("sim:gcc:base")));
        assert!(!plan.fires(FaultKind::Panic, FaultSite::cell("sim:gcc")));
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.fires(FaultKind::Panic, FaultSite::exp("a").index(0)));
    }

    #[test]
    fn store_rules_parse_and_fire() {
        let plan = FaultPlan::parse("torn-write:store:times=1; corrupt:index=3:times=1").unwrap();
        assert_eq!(
            plan.to_string(),
            "torn-write:store:times=1; corrupt:index=3:times=1"
        );
        assert!(plan.fires(FaultKind::TornWrite, FaultSite::store(0)));
        assert!(
            !plan.fires(FaultKind::TornWrite, FaultSite::store(1)),
            "times=1 fires once"
        );
        assert!(!plan.fires(FaultKind::Corrupt, FaultSite::store(2)));
        assert!(
            plan.fires(FaultKind::Corrupt, FaultSite::store(3)),
            "index rules pick the store's Nth write"
        );
        // Store rules never leak onto non-store sites of the same index.
        let plan = FaultPlan::parse("torn-write:store").unwrap();
        assert!(!plan.fires(FaultKind::TornWrite, FaultSite::cell("sim:gcc").index(0)));
    }

    #[test]
    fn store_hook_maps_rules_to_injected_faults() {
        use bmp_core::store::InjectedWriteFault;
        let plan = std::sync::Arc::new(
            FaultPlan::parse("torn-write:index=0:times=1; corrupt:index=1:times=1").unwrap(),
        );
        let hook = FaultPlan::store_hook(plan);
        assert_eq!(hook(99, 0), InjectedWriteFault::Torn);
        assert_eq!(hook(99, 1), InjectedWriteFault::BitFlip);
        assert_eq!(hook(99, 2), InjectedWriteFault::None);
    }
}
