//! The robustness contract end to end: under *any* injected panic
//! schedule, the experiments that survive produce CSVs byte-identical to
//! a clean run (property test over random schedules), the `run_all`
//! binary's journal / exit-code / `--resume` flow recovers a run whose
//! CSV write failed into exactly the clean run's results directory,
//! `--only` rewrites just its selection, and the journal decoder it reads
//! never panics.
//!
//! `run_all` itself cannot be made to panic, so its exit-1 path (an
//! experiment failed) is checked in process, through
//! [`Engine::run_tolerant`]'s failure outcomes.

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

    /// For every random schedule of panics over the subset, the
    /// surviving experiments' CSVs are byte-identical to a clean run's,
    /// and exactly the experiments whose panics outlast the retry budget
    /// fail.
    #[test]
    fn surviving_csvs_match_a_clean_run_under_any_fault_schedule(
        threads in prop::sample::select(vec![1usize, 4]),
        faults in prop::collection::vec(
            (prop::sample::select(SUBSET.to_vec()), 1u32..=3),
            0..=3,
        ),
    ) {
        let attempts = 2u32;
        // One rule per experiment; a later tuple for the same name
        // is dropped so the expected-failure predicate stays simple.
        let mut by_name: HashMap<&str, u32> = HashMap::new();
        for (name, times) in &faults {
            by_name.entry(name).or_insert(*times);
        }
        let spec = by_name
            .iter()
            .map(|(name, times)| format!("panic:exp={name}:times={times}"))
            .collect::<Vec<_>>()
            .join(";");
        let plan = if spec.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan::parse(&spec).expect("generated spec parses")
        };
        let expected_failed: HashSet<&str> = by_name
            .iter()
            .filter(|(_, times)| **times >= attempts)
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
/// no inherited store or metrics settings.
fn run_all_cmd(dir: &Path, ops: u32) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.current_dir(dir)
        .env("BMP_OPS", ops.to_string())
        .env("BMP_SEED", "42")
        .env("BMP_THREADS", "2")
        .env_remove("BMP_STORE")
        .env_remove("BMP_METRICS");
    cmd
}

/// Runs the `run_all` binary in `dir` at 500 ops with `args` and returns
/// its exit code and stdout.
fn run_all_in(dir: &Path, args: &[&str]) -> (i32, String) {
    let out = run_all_cmd(dir, 500).args(args).output();
    let out = out.expect("run_all spawns");
    let code = out.status.code().expect("run_all exits normally");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

/// All regular files under `dir/results` whose name ends in `suffix`,
/// as name → bytes.
fn files_under(dir: &Path, suffix: &str) -> HashMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("results"))
        .expect("results dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file() && e.file_name().to_string_lossy().ends_with(suffix))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("file readable"),
            )
        })
        .collect()
}

/// All `*.csv` files under `dir/results`, as name → bytes.
fn csvs_under(dir: &Path) -> HashMap<String, Vec<u8>> {
    files_under(dir, ".csv")
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

/// The experiment whose CSV write the drills below make fail.
const BLOCKED: &str = "fig2_penalty_per_benchmark";

/// Runs `run_all` in a fresh directory `name` with a directory sitting at
/// `BLOCKED`'s CSV path, so that one write fails for real, and returns
/// the directory, the blocking path, the exit code and the journal text.
fn blocked_write_run(name: &str) -> (std::path::PathBuf, std::path::PathBuf, i32, String) {
    let dir = fresh_dir(name);
    let blocker = dir.join("results").join(format!("{BLOCKED}.csv"));
    std::fs::create_dir_all(&blocker).expect("blocking directory");
    let (code, _) = run_all_in(&dir, &[]);
    let text =
        std::fs::read_to_string(dir.join("results/run_journal.json")).expect("journal exists");
    (dir, blocker, code, text)
}

/// Write failures are the *other* failure domain: the experiment itself
/// succeeds, so the run exits 2 (not 1), every sibling completes, and
/// the journal — still a valid journal — marks the record failed. Once
/// the path is clear, `--resume` re-runs only that experiment.
#[test]
fn an_injected_write_failure_exits_2_and_resumes() {
    let (dir, blocker, code, text) = blocked_write_run("iofault");
    assert_eq!(
        code,
        i32::from(bmp_bench::EXIT_WRITE_FAILED),
        "a write failure with no experiment failure exits 2"
    );
    let journal = RunJournal::parse(&text).expect("journal parses");
    let rec = journal.find(BLOCKED).expect("write failure is journaled");
    assert_eq!(rec.status, RunStatus::Failed);
    assert!(rec
        .error
        .as_deref()
        .is_some_and(|e| e.contains("write failed")));
    assert_eq!(journal.failed_count(), 1, "only the blocked write failed");
    let findings = bmp_analyze::lint_journal_text(&text);
    assert!(
        findings
            .iter()
            .all(|d| d.severity != bmp_analyze::Severity::Error),
        "a journal with a failed record is still valid: {findings:?}"
    );
    assert!(blocker.is_dir(), "the failed write left the path alone");
    let completed = journal
        .experiments
        .iter()
        .filter(|r| r.status == RunStatus::Completed)
        .count();
    assert_eq!(
        completed,
        journal.experiments.len() - 1,
        "siblings completed"
    );

    std::fs::remove_dir(&blocker).expect("clear the path");
    let (code, stdout) = run_all_in(&dir, &["--resume"]);
    assert_eq!(code, 0, "resume heals the write");
    assert_eq!(
        stdout.matches("[skipped ").count(),
        completed,
        "only the failed experiment re-ran:\n{stdout}"
    );
    assert!(blocker.is_file(), "the CSV is written on resume");
    assert_eq!(journal_in(&dir).failed_count(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance flow: after a run whose `BLOCKED` CSV write failed,
/// clearing the path and running `--resume` leaves a results directory
/// byte-identical to a clean run's, journal included.
#[test]
fn a_faulted_run_resumes_into_the_clean_results() {
    let clean = fresh_dir("clean");
    assert_eq!(run_all_in(&clean, &[]).0, 0, "clean run exits 0");
    assert_eq!(journal_in(&clean).failed_count(), 0);
    let clean_files = files_under(&clean, "");
    assert!(clean_files.len() > 2);

    let (faulted, blocker, code, _) = blocked_write_run("faulted");
    assert_eq!(code, i32::from(bmp_bench::EXIT_WRITE_FAILED));
    assert_eq!(
        csvs_under(&faulted).len(),
        csvs_under(&clean).len() - 1,
        "siblings completed"
    );

    std::fs::remove_dir(&blocker).expect("clear the path");
    assert_eq!(run_all_in(&faulted, &["--resume"]).0, 0);
    let mut recovered = files_under(&faulted, "");
    let mut clean_files = clean_files;
    for timings in [&mut recovered, &mut clean_files] {
        timings
            .remove("bench_timings.json")
            .expect("the timing report was written");
    }
    assert_eq!(
        recovered.keys().collect::<std::collections::BTreeSet<_>>(),
        clean_files.keys().collect(),
        "the same files as the clean run"
    );
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

/// An unknown flag — including the retired `--inject` — is a usage
/// error: exit 2 with the usage on stderr, before any work runs, so a
/// script passing it fails loudly instead of running without it.
#[test]
fn an_unknown_flag_is_a_usage_error() {
    let dir = fresh_dir("unknown_flag");
    for args in [&["--inject", "x"][..], &["--frobnicate"]] {
        let out = run_all_cmd(&dir, 500).args(args).output();
        let out = out.expect("run_all spawns");
        assert_eq!(
            out.status.code(),
            Some(i32::from(bmp_bench::EXIT_WRITE_FAILED)),
            "{args:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: run_all"), "{args:?}: {stderr}");
    }
    assert!(!dir.join("results").exists(), "no work ran");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scale or worker count that is set but not valid is a usage error
/// too, for `run_all` and `bmp-profile` alike: exit 2 before any work
/// runs, so a typo such as `BMP_OPS=2k` cannot start a full-scale run.
/// An empty variable counts as unset.
#[test]
fn an_invalid_scale_or_thread_count_is_a_usage_error() {
    let dir = fresh_dir("bad_env");
    let bad = [
        ("BMP_OPS", "2k"),
        ("BMP_OPS", "0"),
        ("BMP_SEED", "forty-two"),
        ("BMP_THREADS", "0"),
        ("BMP_THREADS", "two"),
    ];
    for (var, value) in bad {
        let out = run_all_cmd(&dir, 500).env(var, value).output();
        let out = out.expect("run_all spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(stderr.contains(var), "{var}={value}: {stderr}");
        if var != "BMP_THREADS" {
            let out = Command::new(env!("CARGO_BIN_EXE_bmp-profile"))
                .current_dir(&dir)
                .env(var, value)
                .output()
                .expect("bmp-profile spawns");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
            assert!(stderr.contains(var), "{var}={value}: {stderr}");
        }
    }
    assert!(!dir.join("results").exists(), "no work ran");

    let out = run_all_cmd(&dir, 500)
        .env("BMP_THREADS", "")
        .args(["--only", "table1_config"])
        .output()
        .expect("run_all spawns");
    assert_eq!(out.status.code(), Some(0), "an empty BMP_THREADS is unset");
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
