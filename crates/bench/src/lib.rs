//! Experiment harness for the `mispredict` workspace.
//!
//! Every table and figure of the reconstructed evaluation (see
//! `DESIGN.md`, experiment index E-T1 … E-F11 and E-X1 … E-X11) is
//! implemented as a function in [`experiments`] returning a [`Table`],
//! and named once in the [`engine`]'s registry together with its typed
//! [`grid`] of cells. The `run_all` binary is the one way to run them:
//! all of them by default, or a subset with `--only NAME[,NAME]` (see
//! [`engine::defs_named`]). It schedules the selection through the
//! fault-tolerant [`engine`]: the experiments' cells fan out over a
//! work-stealing [`pool`], every synthesized trace, simulation result
//! and interval-model analysis is computed once into the shared
//! content-addressed [`artifacts`] cache, and each table body assembles
//! its rows from that cache. Each table is written to
//! `results/<name>.csv`.
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
pub use fault::{FaultKind, FaultPlan, FaultSite};
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

/// [`save_under`] with a fault-injection hook: an `io:file=<table id>`
/// rule in `faults` fails the write with an injected error before any
/// byte reaches disk.
///
/// # Errors
///
/// The injected error, or any real I/O error from [`save_under`].
pub fn save_under_with(
    dir: &std::path::Path,
    table: &Table,
    faults: &fault::FaultPlan,
) -> std::io::Result<std::path::PathBuf> {
    if faults.fires(fault::FaultKind::Io, fault::FaultSite::file(&table.id)) {
        return Err(fault::FaultPlan::io_error(&table.id));
    }
    save_under(dir, table)
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

    #[test]
    fn save_under_with_injects_io_faults() {
        let mut t = Table::new("t_fault", "T", &["a"]);
        t.push_row(vec!["1".into()]);
        let tmp = std::env::temp_dir().join("bmp_bench_save_fault_test");
        let plan = fault::FaultPlan::parse("io:file=t_fault:times=1").unwrap();
        let first = save_under_with(&tmp, &t, &plan);
        assert!(first.is_err(), "the injected fault fails the first write");
        assert!(
            !tmp.join("t_fault.csv").exists(),
            "the fault fires before any byte reaches disk"
        );
        let second = save_under_with(&tmp, &t, &plan).unwrap();
        let body = std::fs::read_to_string(second).unwrap();
        std::fs::remove_dir_all(&tmp).ok();
        assert_eq!(body, t.to_csv(), "a retry after the fault succeeds");
    }
}
