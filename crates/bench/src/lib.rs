//! Experiment harness for the `mispredict` workspace.
//!
//! Every table and figure of the reconstructed evaluation (see
//! `DESIGN.md`, experiment index E-T1 … E-F11 and E-X1 … E-X11) is
//! implemented as a function in [`experiments`] returning a [`Table`],
//! and named once in the [`engine`]'s registry together with its typed
//! [`grid`] of cells. The `run_all` binary is the one way to run them:
//! all of them by default, or a subset with `--only NAME[,NAME]` (see
//! [`engine::defs_named`]). It schedules the selection through the
//! fault-tolerant [`engine`]: one job per experiment runs on a
//! shared-cursor [`pool`], every synthesized trace, simulation result
//! and interval-model analysis is computed once into the shared
//! content-addressed [`artifacts`] cache and held there only while an
//! experiment still needs it, and each table body assembles its rows
//! from that cache. Each table is written to `results/<name>.csv`.
//!
//! Experiments scale with the `BMP_OPS` environment variable (dynamic
//! instructions per workload; default 200 000) and `BMP_SEED` (default
//! 42), so CI can run cheap versions and full runs stay reproducible.
//! `BMP_THREADS` picks the worker count (default: available
//! parallelism); every count runs the same schedule, and results are
//! independent of it, byte for byte.
//!
//! `BMP_METRICS=1` turns on the observability layer: `run_all` derives
//! per-interval accounting records from the cached simulation results
//! and writes one aggregated metrics file per experiment under
//! `results/metrics/` (see [`metrics`], the `bmp-report` binary, and
//! `docs/OBSERVABILITY.md`). Off by default; the CSV outputs are
//! byte-identical either way.

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod codec;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod fault;
pub mod grid;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod scale;
pub mod surrogate;
pub mod table;

pub use engine::{Ctx, Engine, EngineChoice, PhaseReport};
pub use error::{CellError, CellErrorKind};
pub use fault::FaultPlan;
pub use metrics::{collect_experiment, metrics_enabled, MetricsRecorder};
pub use scale::Scale;
pub use table::Table;

/// Exit code when every experiment completed and every write succeeded.
pub const EXIT_OK: u8 = 0;
/// Exit code when at least one experiment (cell) ultimately failed.
pub const EXIT_EXPERIMENT_FAILED: u8 = 1;
/// Exit code when the experiments succeeded but persisting their output
/// did not — so callers can tell "your model broke" from "your disk did".
pub const EXIT_WRITE_FAILED: u8 = 2;

// The crash-safe write primitive moved to `bmp_core::io` (the store and
// journal share it); re-exported here so every existing call site —
// and the doc references across the workspace — keep working.
pub use bmp_core::io::write_atomic;

/// Persists the table's CSV as `<dir>/<id>.csv`, creating `dir` first.
/// The write is crash-safe (see [`write_atomic`]).
///
/// # Errors
///
/// Returns the underlying I/O error when the directory or the CSV file
/// cannot be written.
pub fn save_under(dir: &std::path::Path, table: &Table) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", table.id));
    write_atomic(&path, table.to_csv().as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_under_reports_unwritable_dir() {
        let mut t = Table::new("t_unwritable", "T", &["a"]);
        t.push_row(vec!["1".into()]);
        // A regular file occupies the directory path component, so the
        // save must fail with an error instead of panicking.
        let tmp = std::env::temp_dir().join("bmp_bench_unwritable_test");
        std::fs::create_dir_all(&tmp).unwrap();
        let blocker = tmp.join("results");
        std::fs::write(&blocker, b"not a dir").unwrap();
        let r = save_under(&blocker, &t);
        std::fs::remove_dir_all(&tmp).ok();
        assert!(r.is_err(), "writing into a file-as-dir must fail");
    }

    /// A directory at the CSV's path fails the save with an error (the
    /// write-failure drill in `tests/fault_tolerance.rs` relies on it).
    #[test]
    fn save_under_reports_a_directory_at_the_csv_path() {
        let mut t = Table::new("t_blocked", "T", &["a"]);
        t.push_row(vec!["1".into()]);
        let tmp = std::env::temp_dir().join("bmp_bench_blocked_test");
        std::fs::create_dir_all(tmp.join("t_blocked.csv")).unwrap();
        let r = save_under(&tmp, &t);
        let still_a_dir = tmp.join("t_blocked.csv").is_dir();
        std::fs::remove_dir_all(&tmp).ok();
        assert!(r.is_err(), "a directory at the CSV path must fail the save");
        assert!(still_a_dir, "the failed save leaves the directory alone");
    }

    #[test]
    fn save_under_roundtrips() {
        let mut t = Table::new("t_roundtrip", "T", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let tmp = std::env::temp_dir().join("bmp_bench_save_test");
        let path = save_under(&tmp, &t).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&tmp).ok();
        assert_eq!(body, t.to_csv());
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp_droppings() {
        let tmp = std::env::temp_dir().join("bmp_bench_atomic_test");
        std::fs::create_dir_all(&tmp).unwrap();
        let path = tmp.join("out.csv");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        let leftovers: Vec<_> = std::fs::read_dir(&tmp)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        std::fs::remove_dir_all(&tmp).ok();
        assert!(leftovers.is_empty(), "no temp files survive a write");
    }

    #[test]
    fn write_atomic_failure_keeps_the_old_file() {
        let tmp = std::env::temp_dir().join("bmp_bench_atomic_fail_test");
        std::fs::create_dir_all(&tmp).unwrap();
        let path = tmp.join("out.csv");
        write_atomic(&path, b"precious").unwrap();
        // Renaming over a path whose parent component is now a *file*
        // must fail without touching the original.
        let bad = tmp.join("out.csv").join("nested.csv");
        assert!(write_atomic(&bad, b"x").is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "precious");
        std::fs::remove_dir_all(&tmp).ok();
    }
}
