//! Structured experiment failures.
//!
//! One experiment failing must not take the suite down with it:
//! [`ThreadPool::try_map`](crate::pool::ThreadPool::try_map) catches the
//! panic, and everything downstream — retry accounting, the run journal,
//! the partial-results report — works in terms of [`CellError`] instead
//! of an opaque panic payload. Code on the experiment path that *knows*
//! why it is failing panics with a structured payload via
//! [`std::panic::panic_any`] — a `CellError` for an unknown workload
//! profile or an invalid oracle machine config, the simulator's
//! [`SimError`] for a tripped cycle budget — so the cause survives the
//! unwind intact; [`CellError::from_panic_payload`] classifies it, and
//! any other payload, at the catch site.

use std::fmt;

use bmp_sim::SimError;

/// Broad classification of what went wrong in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellErrorKind {
    /// An unclassified panic escaped the cell's work closure.
    Panic,
    /// A workload profile name had no entry in the registry.
    UnknownProfile,
    /// A machine configuration failed validation.
    InvalidConfig,
    /// A simulation exhausted its cycle budget (watchdog).
    Budget,
}

impl CellErrorKind {
    /// Short lowercase tag used in journals and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CellErrorKind::Panic => "panic",
            CellErrorKind::UnknownProfile => "unknown-profile",
            CellErrorKind::InvalidConfig => "invalid-config",
            CellErrorKind::Budget => "budget",
        }
    }
}

/// A structured error carried out of a failing experiment cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// What class of failure this is.
    pub kind: CellErrorKind,
    /// Where it happened — an experiment name, workload name or memo key.
    pub context: String,
    /// Human-readable cause.
    pub message: String,
}

impl CellError {
    /// A cell failed with an arbitrary panic.
    pub fn panic(context: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            kind: CellErrorKind::Panic,
            context: context.into(),
            message: message.into(),
        }
    }

    /// A workload profile lookup failed.
    pub fn unknown_profile(name: &str) -> Self {
        Self {
            kind: CellErrorKind::UnknownProfile,
            context: name.to_string(),
            message: format!("no workload profile named {name:?} in the registry"),
        }
    }

    /// An executed-kernel lookup failed. Shares the
    /// [`CellErrorKind::UnknownProfile`] journal tag — both mean "the
    /// cell named a workload source that does not exist" — while the
    /// message distinguishes the kernel suite from the profile registry.
    pub fn unknown_kernel(name: &str) -> Self {
        Self {
            kind: CellErrorKind::UnknownProfile,
            context: name.to_string(),
            message: format!("no RV32IM kernel named {name:?} in the bmp-isa suite"),
        }
    }

    /// A machine configuration failed validation.
    pub fn invalid_config(context: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            kind: CellErrorKind::InvalidConfig,
            context: context.into(),
            message: message.into(),
        }
    }

    /// A simulation tripped the cycle-budget watchdog.
    pub fn budget(context: impl Into<String>, err: SimError) -> Self {
        Self {
            kind: CellErrorKind::Budget,
            context: context.into(),
            message: err.to_string(),
        }
    }

    /// Classifies a caught panic payload into a `CellError`.
    ///
    /// Structured payloads pass through: a `CellError` thrown with
    /// `panic_any` is returned as-is (keeping its original context), a
    /// [`SimError`] becomes a budget error. String payloads — what
    /// `panic!`/`assert!` produce — become [`CellErrorKind::Panic`].
    pub fn from_panic_payload(context: &str, payload: Box<dyn std::any::Any + Send>) -> Self {
        match payload.downcast::<CellError>() {
            Ok(e) => *e,
            Err(payload) => match payload.downcast::<SimError>() {
                Ok(e) => Self::budget(context, *e),
                Err(payload) => {
                    let message = if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else {
                        "non-string panic payload".to_string()
                    };
                    Self::panic(context, message)
                }
            },
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.kind.as_str(),
            self.context,
            self.message
        )
    }
}

impl std::error::Error for CellError {}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_sim::BudgetForensics;

    #[test]
    fn payload_classification() {
        let structured = CellError::unknown_profile("nope");
        let back = CellError::from_panic_payload("outer", Box::new(structured.clone()));
        assert_eq!(back, structured, "structured payloads pass through");

        let sim = SimError::BudgetExceeded(BudgetForensics {
            budget: 10,
            cycle: 10,
            committed: 1,
            trace_ops: 5,
            fetched: 2,
            window_occupancy: 1,
        });
        let back = CellError::from_panic_payload("cell", Box::new(sim));
        assert_eq!(back.kind, CellErrorKind::Budget);
        assert_eq!(back.context, "cell");
        assert!(back.message.contains("cycle budget exceeded"));

        let back = CellError::from_panic_payload("cell", Box::new("boom".to_string()));
        assert_eq!(back.kind, CellErrorKind::Panic);
        assert_eq!(back.message, "boom");

        let back = CellError::from_panic_payload("cell", Box::new(42_u32));
        assert_eq!(back.message, "non-string panic payload");
    }

    #[test]
    fn display_is_compact() {
        let e = CellError::panic("fig8:gcc", "index out of bounds");
        assert_eq!(e.to_string(), "[panic] fig8:gcc: index out of bounds");
    }
}
