//! The robustness contract end to end: under *any* injected fault
//! schedule, the experiments that survive produce CSVs byte-identical to
//! a clean run (property test over random schedules), the `run_all`
//! binary's journal / exit-code / `--resume` flow recovers a faulted run
//! into exactly the clean run's results directory, `--only` rewrites just
//! its selection, and the journal decoder it reads never panics.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::process::Command;

use bmp_bench::engine::{defs_named, OutcomeKind, RunPolicy};
use bmp_bench::{Engine, FaultPlan, Scale};
use bmp_core::journal::{ExperimentRecord, RunJournal, RunStatus};
use proptest::prelude::*;

/// A small cross-section of the registry: a table, two figure
/// experiments sharing baseline cells, and an extension study.
const SUBSET: &[&str] = &[
    "table1_config",
    "fig2_penalty_per_benchmark",
    "fig8_ilp",
    "ex3_closed_form",
];

const SCALE: Scale = Scale {
    ops: 1_000,
    seed: 42,
};

/// CSV bytes per experiment from a clean (fault-free) tolerant run.
fn clean_csvs(threads: usize) -> HashMap<&'static str, String> {
    let plan = FaultPlan::none();
    let policy = RunPolicy::with_attempts(2, &plan);
    let report =
        Engine::new(threads).run_tolerant(&defs_named(SUBSET).unwrap(), SCALE, &policy, &|_| {});
    report
        .outcomes
        .iter()
        .map(|o| match &o.kind {
            OutcomeKind::Completed(t) => (o.name, t.to_csv()),
            other => panic!("clean run must complete {}: {other:?}", o.name),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every random schedule of panic/budget faults over the subset,
    /// the surviving experiments' CSVs are byte-identical to a clean
    /// run's, and exactly the experiments whose fault outlasts the retry
    /// budget fail.
    #[test]
    fn surviving_csvs_match_a_clean_run_under_any_fault_schedule(
        threads in prop::sample::select(vec![1usize, 4]),
        faults in prop::collection::vec(
            (
                prop::sample::select(SUBSET.to_vec()),
                prop::sample::select(vec!["panic", "budget"]),
                1u32..=3,
            ),
            0..=3,
        ),
    ) {
        let attempts = 2u32;
        // One rule per experiment; a later tuple for the same name
        // is dropped so the expected-failure predicate stays simple.
        let mut by_name: HashMap<&str, (&str, u32)> = HashMap::new();
        for (name, kind, times) in &faults {
            by_name.entry(name).or_insert((kind, *times));
        }
        let spec = by_name
            .iter()
            .map(|(name, (kind, times))| format!("{kind}:exp={name}:times={times}"))
            .collect::<Vec<_>>()
            .join(";");
        let plan = if spec.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan::parse(&spec).expect("generated spec parses")
        };
        let expected_failed: HashSet<&str> = by_name
            .iter()
            .filter(|(_, (_, times))| *times >= attempts)
            .map(|(name, _)| *name)
            .collect();

        let clean = clean_csvs(threads);
        let policy = RunPolicy::with_attempts(attempts, &plan);
        let report = Engine::new(threads).run_tolerant(&defs_named(SUBSET).unwrap(), SCALE, &policy, &|_| {});

        for outcome in &report.outcomes {
            match &outcome.kind {
                OutcomeKind::Completed(table) => {
                    prop_assert!(
                        !expected_failed.contains(outcome.name),
                        "{} completed but its fault outlasts the retry budget (spec {spec})",
                        outcome.name
                    );
                    prop_assert_eq!(
                        &table.to_csv(),
                        &clean[outcome.name],
                        "{} must be byte-identical to the clean run (spec {})",
                        outcome.name, spec
                    );
                }
                OutcomeKind::Failed(e) => {
                    prop_assert!(
                        expected_failed.contains(outcome.name),
                        "{} failed unexpectedly under spec {spec}: {e}",
                        outcome.name
                    );
                    prop_assert_eq!(outcome.attempts, attempts);
                }
                OutcomeKind::Skipped => prop_assert!(false, "nothing was skipped"),
            }
        }
    }
}

/// The `run_all` binary in `dir` at `ops` per workload and seed 42, with
/// no inherited fault, store or metrics settings.
fn run_all_cmd(dir: &Path, ops: u32) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.current_dir(dir)
        .env("BMP_OPS", ops.to_string())
        .env("BMP_SEED", "42")
        .env("BMP_THREADS", "2")
        .env("BMP_ATTEMPTS", "2")
        .env_remove("BMP_FAULT")
        .env_remove("BMP_STORE")
        .env_remove("BMP_METRICS");
    cmd
}

/// Runs the `run_all` binary in `dir` at 500 ops with the given extra
/// args/env and returns its exit code.
fn run_all_in(dir: &Path, args: &[&str], fault_env: Option<&str>) -> i32 {
    let mut cmd = run_all_cmd(dir, 500);
    cmd.args(args);
    if let Some(spec) = fault_env {
        cmd.env("BMP_FAULT", spec);
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

fn journal_in(dir: &Path) -> RunJournal {
    let text =
        std::fs::read_to_string(dir.join("results/run_journal.json")).expect("journal exists");
    RunJournal::parse(&text).expect("journal parses")
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bmp_fault_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The acceptance flow: a run where one experiment panics exits non-zero
/// with the failure journaled while every sibling completes; removing
/// the fault and re-running with `--resume` skips the completed work and
/// recovers a results directory byte-identical to a clean run's.
#[test]
fn a_faulted_run_resumes_into_the_clean_results() {
    let clean = fresh_dir("clean");
    assert_eq!(run_all_in(&clean, &[], None), 0, "clean run exits 0");
    let clean_journal = journal_in(&clean);
    assert_eq!(clean_journal.failed_count(), 0);
    let clean_files = csvs_under(&clean);
    assert!(!clean_files.is_empty());

    // Fault the run through the environment (the CLI flag takes the same
    // path): fig8_ilp panics on every attempt and ultimately fails.
    let faulted = fresh_dir("faulted");
    assert_eq!(
        run_all_in(&faulted, &[], Some("panic:exp=fig8_ilp")),
        i32::from(bmp_bench::EXIT_EXPERIMENT_FAILED),
        "a failed experiment makes the run exit 1"
    );
    let journal = journal_in(&faulted);
    let rec = journal.find("fig8_ilp").expect("failure is journaled");
    assert_eq!(rec.status, RunStatus::Failed);
    assert_eq!(rec.attempts, 2, "both attempts were consumed");
    assert!(rec.error.as_deref().is_some_and(|e| e.contains("injected")));
    assert!(
        !faulted.join("results/fig8_ilp.csv").exists(),
        "a failed experiment writes no CSV"
    );
    let survivors = csvs_under(&faulted);
    assert_eq!(survivors.len(), clean_files.len() - 1, "siblings completed");

    // Remove the fault and resume: only fig8_ilp re-runs, and the
    // recovered directory matches the clean one byte for byte.
    assert_eq!(run_all_in(&faulted, &["--resume"], None), 0);
    let resumed = journal_in(&faulted);
    assert_eq!(resumed.failed_count(), 0);
    assert_eq!(resumed.experiments.len(), clean_journal.experiments.len());
    let recovered = csvs_under(&faulted);
    assert_eq!(recovered.len(), clean_files.len());
    for (name, bytes) in &clean_files {
        assert_eq!(
            recovered.get(name),
            Some(bytes),
            "{name} must be byte-identical to the clean run after resume"
        );
    }

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&faulted);
}

/// Write failures are the *other* failure domain: the experiment itself
/// succeeds, the run exits 2 (not 1), the journal marks the record
/// failed so `--resume` re-runs it once the disk heals.
#[test]
fn an_injected_write_failure_exits_2_and_resumes() {
    let dir = fresh_dir("iofault");
    assert_eq!(
        run_all_in(
            &dir,
            &["--inject", "io:file=fig2_penalty_per_benchmark"],
            None
        ),
        i32::from(bmp_bench::EXIT_WRITE_FAILED),
        "a write failure with no experiment failure exits 2"
    );
    let rec = journal_in(&dir)
        .find("fig2_penalty_per_benchmark")
        .cloned()
        .expect("write failure is journaled");
    assert_eq!(rec.status, RunStatus::Failed);
    assert!(rec
        .error
        .as_deref()
        .is_some_and(|e| e.contains("write failed")));
    assert!(!dir.join("results/fig2_penalty_per_benchmark.csv").exists());

    assert_eq!(
        run_all_in(&dir, &["--resume"], None),
        0,
        "resume heals the write"
    );
    assert!(dir.join("results/fig2_penalty_per_benchmark.csv").exists());
    assert_eq!(journal_in(&dir).failed_count(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed fault spec is a usage error: exit 2 before any work runs.
#[test]
fn a_bad_fault_spec_is_a_usage_error() {
    let dir = fresh_dir("badspec");
    assert_eq!(
        run_all_in(&dir, &["--inject", "frobnicate:exp=x"], None),
        i32::from(bmp_bench::EXIT_WRITE_FAILED)
    );
    assert!(!dir.join("results").exists(), "no work ran");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--only` re-runs just its selection: the selected CSVs come back
/// byte-identical, every other CSV and journal record stays exactly as
/// it was, and `--resume` on top skips the already-completed selection.
#[test]
fn only_rewrites_its_selection_and_keeps_the_rest() {
    let dir = fresh_dir("only");
    let run = |args: &[&str]| {
        let out = run_all_cmd(&dir, 2_000).args(args).output();
        let out = out.expect("run_all spawns");
        assert_eq!(out.status.code(), Some(0), "run_all {args:?} exits 0");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    run(&[]);
    let full = csvs_under(&dir);
    let full_journal = journal_in(&dir);
    assert_eq!(full_journal.experiments.len(), full.len());

    // Delete the selection, so a rewrite is visible, and stamp one
    // unselected CSV, so any write to it would be too.
    for name in ["fig8_ilp.csv", "table1_config.csv"] {
        std::fs::remove_file(dir.join("results").join(name)).expect("csv exists");
    }
    let stamped = "fig2_penalty_per_benchmark.csv";
    std::fs::write(dir.join("results").join(stamped), "stamp").expect("stamp");
    let mut expected = full.clone();
    expected.insert(stamped.to_string(), b"stamp".to_vec());

    let stdout = run(&["--only", "fig8_ilp,table1_config"]);
    assert!(
        !stdout.contains("Static surrogate"),
        "the surrogate table is for full runs only"
    );
    assert!(
        csvs_under(&dir) == expected,
        "the selection is rewritten byte-identically and nothing else is written"
    );
    assert_eq!(
        journal_in(&dir),
        full_journal,
        "the selected records are replaced in kind, every other record survives"
    );

    // --resume composes: the selection is intact, so nothing re-runs.
    let stdout = run(&["--only", "table1_config", "--only", "fig8_ilp", "--resume"]);
    for name in ["fig8_ilp", "table1_config"] {
        assert!(
            stdout.contains(&format!("[skipped {name} (resume)]")),
            "{stdout}"
        );
    }
    assert_eq!(journal_in(&dir), full_journal);

    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown `--only` name is a usage error: exit 2, the valid names on
/// stderr, and nothing written.
#[test]
fn an_unknown_only_name_is_a_usage_error() {
    let dir = fresh_dir("only_unknown");
    let out = run_all_cmd(&dir, 2_000)
        .args(["--only", "nope"])
        .output()
        .expect("run_all spawns");
    assert_eq!(
        out.status.code(),
        Some(i32::from(bmp_bench::EXIT_WRITE_FAILED))
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment(s): nope"), "{stderr}");
    assert!(
        stderr.contains("table1_config"),
        "usage lists the valid names"
    );
    assert!(!dir.join("results").exists(), "no work ran");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journals with every optional field, escapes in names and errors,
/// and full-range fingerprints.
fn journal_strategy() -> impl Strategy<Value = RunJournal> {
    let rec = (
        prop::sample::select(vec!["fig8_ilp", "table1_config", "n\"q\\é"]),
        any::<u64>(),
        1u32..5,
        prop::collection::vec(0u8..=255, 0..24),
        0u8..8,
    );
    let rec = rec.prop_map(|(name, fingerprint, attempts, error, flags)| {
        let failed = flags & 1 != 0;
        ExperimentRecord {
            name: name.to_string(),
            status: if failed {
                RunStatus::Failed
            } else {
                RunStatus::Completed
            },
            fingerprint,
            attempts,
            error: failed.then(|| String::from_utf8_lossy(&error).into_owned()),
            metrics: (flags & 2 != 0).then(|| "metrics/fig8_ilp.json".to_string()),
            csv_fnv: (flags & 4 != 0).then(|| format!("{:016x}", fingerprint.rotate_left(7))),
        }
    });
    (any::<u64>(), any::<u64>(), prop::collection::vec(rec, 0..6)).prop_map(|(ops, seed, recs)| {
        let mut j = RunJournal::new(ops, seed);
        recs.into_iter().for_each(|r| j.upsert(r));
        j
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid journals round-trip exactly, and serialization is stable.
    #[test]
    fn journals_round_trip(j in journal_strategy()) {
        let text = j.to_json();
        let back = RunJournal::parse(&text).expect("a written journal parses");
        prop_assert_eq!(&back, &j);
        prop_assert_eq!(back.to_json(), text);
    }

    /// Arbitrary bytes are rejected with an error, never a panic.
    #[test]
    fn arbitrary_bytes_never_parse(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        prop_assert!(RunJournal::parse(&String::from_utf8_lossy(&bytes)).is_err());
    }

    /// Flipped, truncated and spliced journals never panic the decoder;
    /// whatever still parses re-serializes to itself.
    #[test]
    fn mutated_journals_never_panic(
        j in journal_strategy(),
        edits in prop::collection::vec((any::<usize>(), 0u8..=255, 0u8..3), 1..6),
    ) {
        let mut bytes = j.to_json().into_bytes();
        for (at, byte, op) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.truncate(at),
                _ => bytes.insert(at, byte),
            }
        }
        if let Ok(parsed) = RunJournal::parse(&String::from_utf8_lossy(&bytes)) {
            let again = RunJournal::parse(&parsed.to_json()).expect("re-serialized journal parses");
            prop_assert_eq!(again, parsed);
        }
    }
}
