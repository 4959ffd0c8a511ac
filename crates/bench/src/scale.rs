//! Experiment scaling knobs.

use std::env::VarError;
use std::str::FromStr;

/// Workload size and seed shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Dynamic instructions per workload run.
    pub ops: usize,
    /// Workload synthesis seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            ops: 200_000,
            seed: 42,
        }
    }
}

impl Scale {
    /// Reads the scale from the environment: `BMP_OPS` (instructions,
    /// default 200 000) and `BMP_SEED` (default 42). An unset or empty
    /// variable takes the default.
    ///
    /// # Errors
    ///
    /// Names the variable when `BMP_OPS` is not a positive integer or
    /// `BMP_SEED` not an integer.
    pub fn from_env() -> Result<Self, String> {
        let d = Self::default();
        Ok(Self {
            ops: env_count("BMP_OPS")?.unwrap_or(d.ops),
            seed: env_parsed("BMP_SEED")?.unwrap_or(d.seed),
        })
    }

    /// A small scale for unit tests.
    pub fn tiny() -> Self {
        Self {
            ops: 20_000,
            seed: 7,
        }
    }
}

/// Environment variable `name` parsed as a `T`; `None` when it is unset
/// or empty.
fn env_parsed<T: FromStr>(name: &str) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) => (v.parse().map(Some)).map_err(|_| format!("{name}={v:?} is not an integer")),
        Err(VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("{name}: {e}")),
    }
}

/// Environment variable `name` as a positive count; `None` when it is
/// unset or empty.
pub(crate) fn env_count(name: &str) -> Result<Option<usize>, String> {
    match env_parsed(name)? {
        Some(0) => Err(format!("{name}=0: must be at least 1")),
        count => Ok(count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let s = Scale::default();
        assert_eq!(s.ops, 200_000);
        assert_eq!(s.seed, 42);
        assert!(Scale::tiny().ops < s.ops);
    }
}
