//! End-to-end crash-safety of the persistent artifact store
//! (`BMP_STORE`): a run interrupted mid-write — simulated with the
//! `torn-write` fault at arbitrary write points — or silently corrupted
//! on disk must, on restart against the same store, quarantine the
//! damage, recompute, and reproduce byte-identical CSVs. The store may
//! lose work; it must never serve bad bytes or change a result.
//!
//! Also covers the `--resume` hardening: a journal record whose CSV was
//! corrupted (not just deleted) after the fact triggers a recompute
//! instead of a silent skip.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

use bmp_core::json::{self, ObjectExt};

/// Runs the `run_all` binary in `dir` at the shared tiny scale.
fn run_all_in(dir: &Path, args: &[&str], fault: Option<&str>, store: Option<&Path>) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.current_dir(dir)
        .args(args)
        .env("BMP_OPS", "500")
        .env("BMP_SEED", "42")
        .env("BMP_THREADS", "2")
        .env("BMP_ATTEMPTS", "2")
        .env_remove("BMP_FAULT")
        .env_remove("BMP_STORE");
    if let Some(spec) = fault {
        cmd.env("BMP_FAULT", spec);
    }
    if let Some(store) = store {
        cmd.env("BMP_STORE", store);
    }
    let out = cmd.output().expect("run_all spawns");
    out.status.code().expect("run_all exits normally")
}

/// All `*.csv` files under `dir/results`, as name → bytes.
fn csvs_under(dir: &Path) -> HashMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("results"))
        .expect("results dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("csv readable"),
            )
        })
        .collect()
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bmp_store_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Files in the store's quarantine directory.
fn quarantined(store: &Path) -> usize {
    std::fs::read_dir(store.join("quarantine"))
        .map(|it| it.flatten().count())
        .unwrap_or(0)
}

/// Every `.rec` record file in the store's shard directories.
fn record_files(store: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(store).expect("store readable").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_dir() && name.len() == 2 {
            for rec in std::fs::read_dir(entry.path())
                .expect("shard readable")
                .flatten()
            {
                if rec.file_name().to_string_lossy().ends_with(".rec") {
                    out.push(rec.path());
                }
            }
        }
    }
    out
}

/// The acceptance flow: tear a store write at several different write
/// points (a crash mid-write leaves exactly this on-disk state), then
/// restart against the same store. The faulted run itself is already
/// byte-identical to a clean run — a store fault may cost recompute,
/// never correctness — and the restart's recovery scan quarantines the
/// torn record instead of serving it.
#[test]
fn torn_writes_at_arbitrary_points_recover_on_restart() {
    let clean = fresh_dir("torn_clean");
    assert_eq!(run_all_in(&clean, &[], None, None), 0, "clean run exits 0");
    let baseline = csvs_under(&clean);
    assert!(!baseline.is_empty());

    for write_point in [0usize, 5] {
        let dir = fresh_dir(&format!("torn_{write_point}"));
        let store = dir.join("store");
        let spec = format!("torn-write:index={write_point}:times=1");
        assert_eq!(
            run_all_in(&dir, &[], Some(&spec), Some(&store)),
            0,
            "a torn store write must not fail the run (write point {write_point})"
        );
        assert_eq!(
            csvs_under(&dir),
            baseline,
            "CSVs byte-identical despite the torn write at point {write_point}"
        );

        // Restart: wipe the results and recompute from the same store.
        std::fs::remove_dir_all(dir.join("results")).expect("wipe results");
        assert_eq!(run_all_in(&dir, &[], None, Some(&store)), 0);
        assert_eq!(
            csvs_under(&dir),
            baseline,
            "restart against the damaged store reproduces the bytes (point {write_point})"
        );
        assert!(
            quarantined(&store) >= 1,
            "the torn record was quarantined, not silently dropped (point {write_point})"
        );
    }
}

/// Silent media corruption: flip one bit in a stored record between
/// runs. The next run's recovery scan must quarantine it and recompute;
/// the corrupt bytes must never influence a CSV.
#[test]
fn bit_flipped_records_are_quarantined_never_served() {
    let dir = fresh_dir("bitflip");
    let store = dir.join("store");
    assert_eq!(run_all_in(&dir, &[], None, Some(&store)), 0);
    let baseline = csvs_under(&dir);
    let records = record_files(&store);
    assert!(!records.is_empty(), "the run persisted records");

    // Corrupt one record on disk, the way failing media would.
    let victim = &records[records.len() / 2];
    let mut bytes = std::fs::read(victim).expect("record readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(victim, &bytes).expect("record rewritable");

    std::fs::remove_dir_all(dir.join("results")).expect("wipe results");
    assert_eq!(run_all_in(&dir, &[], None, Some(&store)), 0);
    assert_eq!(
        csvs_under(&dir),
        baseline,
        "recomputed CSVs are byte-identical; corruption never leaked"
    );
    assert!(
        quarantined(&store) >= 1,
        "the flipped record was quarantined"
    );
    // The run report publishes the same count as a number.
    let text = std::fs::read_to_string(dir.join("results/bench_timings.json"))
        .expect("the timing report was written");
    let timings = json::parse(&text).expect("the timing report parses");
    let reported = timings
        .as_object("timings")
        .and_then(|t| t.get_object("store"))
        .and_then(|s| s.get_u64("quarantined"))
        .expect("a numeric store.quarantined counter");
    assert!(
        reported >= 1,
        "bench_timings.json reports {reported} quarantined"
    );
    assert!(
        !store.join("LOCK").exists(),
        "the exiting process released the store lock"
    );
}

/// The in-process `corrupt` fault (bit flip after checksumming) writes
/// records that *look* atomic but fail verification: the same run stays
/// byte-identical, and a warm restart quarantines them.
#[test]
fn injected_corruption_faults_keep_results_identical() {
    let clean = fresh_dir("corrupt_clean");
    assert_eq!(run_all_in(&clean, &[], None, None), 0);
    let baseline = csvs_under(&clean);

    let dir = fresh_dir("corrupt_store");
    let store = dir.join("store");
    assert_eq!(
        run_all_in(&dir, &[], Some("corrupt:store:times=2"), Some(&store)),
        0
    );
    assert_eq!(csvs_under(&dir), baseline);

    std::fs::remove_dir_all(dir.join("results")).expect("wipe results");
    assert_eq!(run_all_in(&dir, &[], None, Some(&store)), 0);
    assert_eq!(csvs_under(&dir), baseline);
    assert!(
        quarantined(&store) >= 2,
        "both corrupted writes quarantined"
    );
}

/// `--resume` validates journal records against CSV *content*, not mere
/// existence: a corrupted (but present) CSV is recomputed.
#[test]
fn resume_recomputes_a_corrupted_csv() {
    let dir = fresh_dir("resume_hash");
    assert_eq!(run_all_in(&dir, &[], None, None), 0);
    let baseline = csvs_under(&dir);

    // Corrupt one CSV in place — same file, same mtime semantics a
    // partial disk failure would leave. The legacy existence check
    // would happily skip this experiment.
    let victim = dir.join("results/fig8_ilp.csv");
    std::fs::write(&victim, b"id,garbage\n1,2\n").expect("csv writable");

    assert_eq!(run_all_in(&dir, &["--resume"], None, None), 0);
    assert_eq!(
        csvs_under(&dir),
        baseline,
        "--resume detected the hash mismatch and recomputed the CSV"
    );
}
