//! Regenerates every table and figure of the reconstructed evaluation
//! (DESIGN.md, E-T1 … E-F11, E-X1 … E-X8) and writes the CSVs under
//! `results/`, plus the timing report to `results/bench_timings.json`.
//!
//! The run is fault-tolerant and crash-safe (see `docs/ROBUSTNESS.md`):
//! a panicking experiment is isolated, retried once, and finally
//! recorded as failed in `results/run_journal.json` while every other
//! experiment still completes. CSVs and the journal are written
//! atomically the moment each experiment settles, so an interrupted run
//! leaves a consistent partial results directory.
//!
//! Flags:
//!
//! * `--only NAME[,NAME]` — run just the named experiments (registry
//!   order; repeatable). The existing journal is loaded and only the
//!   selected records are replaced, so every other experiment's record
//!   and CSV stays as it was. The static-surrogate table needs every
//!   baseline workload and is printed by full runs only. An unknown
//!   name is a usage error.
//! * `--resume` — skip experiments whose journal record is completed,
//!   fingerprint-matches the current `BMP_OPS`/`BMP_SEED`, and whose
//!   CSV still exists *with the journalled content hash*: a deleted,
//!   truncated or otherwise altered CSV triggers a recompute, never a
//!   silent skip. (Legacy journals without a hash fall back to the
//!   existence check.)
//!
//! Any other argument is a usage error (exit 2, nothing runs), and so is
//! a `BMP_OPS`, `BMP_SEED` or `BMP_THREADS` that is set but not a valid
//! value.
//!
//! `BMP_STORE=<dir>` adds the crash-safe persistent artifact tier: the
//! content-addressed on-disk store (`bmp_core::store`) is opened —
//! running its recovery scan, which quarantines any corrupt records —
//! and attached under the in-memory cache, so simulation results
//! survive process death and a restarted run resumes from disk instead
//! of recomputing (see `docs/STORE.md`). The run report then adds
//! the store's counters (a `store:` summary line and a `"store"` object
//! in `bench_timings.json`).
//!
//! Scale with `BMP_OPS` (a positive count) / `BMP_SEED`; pick the worker
//! count with `BMP_THREADS` (a positive count; default: available
//! parallelism; every count runs the same schedule). An empty variable
//! counts as unset.
//! The produced CSVs are byte-identical for any thread count, with or
//! without a store — and for `BMP_METRICS` on or off: with
//! `BMP_METRICS=1` the run *additionally* writes per-experiment
//! accounting files under `results/metrics/` (render them with
//! `bmp-report`; schema in `docs/OBSERVABILITY.md`) and records their
//! paths in the journal.
//!
//! Exit codes: 0 all good; 1 at least one experiment ultimately failed;
//! 2 experiments succeeded but output could not be written, or a usage
//! error.

use std::collections::HashSet;
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use bmp_bench::engine::{
    defs_named, experiment_defs, experiment_fingerprint, threads_from_env, ExperimentOutcome,
    OutcomeKind, RunPolicy,
};
use bmp_bench::{metrics, save_under, write_atomic, FaultPlan};
use bmp_core::journal::{ExperimentRecord, RunJournal, RunStatus};
use bmp_core::DiskStore;
use bmp_uarch::fp::fnv1a;

/// Attempts per experiment. Every cell is deterministic, so a retry
/// recomputes the same bytes; the benchmark's `suite` pass mirrors it.
const ATTEMPTS: u32 = 2;

/// The journalled content hash of a CSV body: 16 lowercase hex digits
/// of its FNV-1a, the format `--resume` validates against.
fn csv_hash(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

fn usage() -> ExitCode {
    eprintln!("usage: run_all [--only NAME[,NAME]] [--resume]");
    eprintln!("  experiment names:");
    let names: Vec<&str> = experiment_defs().iter().map(|d| d.name).collect();
    for row in names.chunks(4) {
        eprintln!("    {}", row.join(" "));
    }
    ExitCode::from(bmp_bench::EXIT_WRITE_FAILED)
}

fn main() -> ExitCode {
    let mut resume = false;
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--resume" => resume = true,
            "--only" => match args.next() {
                Some(list) => only.extend(list.split(',').map(str::to_string)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let env = bmp_bench::Scale::from_env().and_then(|scale| Ok((scale, threads_from_env()?)));
    let (scale, threads) = match env {
        Ok(env) => env,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let selecting = !only.is_empty();
    let defs = if selecting {
        let names: Vec<&str> = only.iter().map(String::as_str).collect();
        match defs_named(&names) {
            Ok(defs) => defs,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        }
    } else {
        experiment_defs()
    };
    let results_dir = Path::new("results");
    let journal_path = results_dir.join("run_journal.json");

    // --only and --resume both start from the existing journal. --only
    // carries every unselected record over unchanged (when the journal is
    // at this scale); --resume trusts selected records that are
    // completed, fingerprint the current configuration, and still have
    // their CSV on disk.
    let mut skip: HashSet<String> = HashSet::new();
    let mut journal = RunJournal::new(scale.ops as u64, scale.seed);
    if resume || selecting {
        match std::fs::read_to_string(&journal_path) {
            Ok(text) => match RunJournal::parse(&text) {
                Ok(prior) => {
                    // Records of another scale describe other CSVs.
                    let same_scale = prior.ops == scale.ops as u64 && prior.seed == scale.seed;
                    for rec in prior.experiments {
                        if !defs.iter().any(|d| d.name == rec.name) {
                            if selecting && same_scale {
                                journal.upsert(rec);
                            }
                            continue;
                        }
                        let current_fp = experiment_fingerprint(&rec.name, scale);
                        if !resume
                            || rec.status != RunStatus::Completed
                            || rec.fingerprint != current_fp
                        {
                            continue;
                        }
                        let csv = results_dir.join(format!("{}.csv", rec.name));
                        // The journal's content hash is the real check:
                        // a CSV that was deleted, truncated or edited
                        // since the journal was written recomputes.
                        // Records from older journals carry no hash and
                        // resume on existence alone.
                        let intact = match (&rec.csv_fnv, std::fs::read(&csv)) {
                            (Some(want), Ok(bytes)) => {
                                let ok = csv_hash(&bytes) == *want;
                                if !ok {
                                    eprintln!(
                                        "warning: {} no longer matches its journalled \
                                         hash; recomputing",
                                        csv.display()
                                    );
                                }
                                ok
                            }
                            (None, Ok(_)) => true,
                            (_, Err(_)) => false,
                        };
                        if intact {
                            skip.insert(rec.name.clone());
                            journal.upsert(rec);
                        }
                    }
                }
                Err(e) => eprintln!("warning: ignoring unreadable journal: {e}"),
            },
            Err(e) if resume => eprintln!(
                "warning: --resume but no journal at {}: {e}",
                journal_path.display()
            ),
            Err(_) => {}
        }
        if resume {
            eprintln!(
                "resuming: {} completed experiments match the journal and will be skipped",
                skip.len()
            );
        }
    }

    let engine = bmp_bench::Engine::new(threads);

    // Optional crash-safe persistent tier: BMP_STORE=<dir> opens the
    // content-addressed on-disk store (running its recovery scan) and
    // attaches it under the in-memory cache, so simulation results
    // survive process death. Failure to open degrades gracefully to an
    // in-memory-only run — persistence is never worth failing a run.
    if let Ok(dir) = std::env::var("BMP_STORE") {
        if !dir.is_empty() {
            match DiskStore::open(Path::new(&dir)) {
                Ok((store, recovery)) => {
                    eprintln!(
                        "store {dir}: {} valid record(s), {} quarantined, \
                         {} temp file(s) swept, {} live byte(s)",
                        recovery.valid,
                        recovery.quarantined,
                        recovery.temps_removed,
                        recovery.live_bytes
                    );
                    engine.ctx().set_store(Arc::new(store));
                }
                Err(e) => {
                    eprintln!("warning: cannot open store {dir}: {e}; running without persistence")
                }
            }
        }
    }

    eprintln!(
        "running {} experiments at {} ops per workload on {} threads \
         (BMP_OPS / BMP_THREADS to change)",
        if selecting { "the selected" } else { "all" },
        scale.ops,
        threads
    );

    let faults = FaultPlan::none();
    let mut policy = RunPolicy::with_attempts(ATTEMPTS, &faults);
    policy.skip = skip;

    // Shared with the worker threads through on_done: the journal (with
    // carried-over resume records) and the write-failure log.
    let journal = Mutex::new(journal);
    let write_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    let on_done = |outcome: &ExperimentOutcome| {
        let mut record = ExperimentRecord {
            name: outcome.name.to_string(),
            status: RunStatus::Completed,
            fingerprint: experiment_fingerprint(outcome.name, scale),
            attempts: outcome.attempts,
            error: None,
            metrics: None,
            csv_fnv: None,
        };
        match &outcome.kind {
            // Skipped experiments keep their carried-over record.
            OutcomeKind::Skipped => return,
            OutcomeKind::Completed(table) => {
                if let Err(e) = save_under(results_dir, table) {
                    let msg = format!("cannot write results for {}: {e}", table.id);
                    eprintln!("error: {msg}");
                    write_errors.lock().expect("write log poisoned").push(msg);
                    record.status = RunStatus::Failed;
                    record.error = Some(format!("write failed: {e}"));
                } else {
                    // Journal the content hash of what was just
                    // persisted, so a later --resume can tell "still
                    // the bytes I wrote" from "deleted or corrupted".
                    record.csv_fnv = Some(csv_hash(table.to_csv().as_bytes()));
                }
                if record.status == RunStatus::Completed && metrics::metrics_enabled() {
                    // Aggregate this experiment's per-interval records
                    // out of the warm cache and persist them next to
                    // the CSV. Metrics are advisory like the journal: a
                    // write failure is logged for the exit code but
                    // never fails the experiment.
                    let doc =
                        metrics::collect_experiment(engine.ctx(), &defs[outcome.index], scale);
                    match metrics::save_metrics(results_dir, &doc) {
                        Ok(_) => record.metrics = Some(metrics::relative_path(&doc.name)),
                        Err(e) => {
                            let msg = format!("cannot write metrics for {}: {e}", outcome.name);
                            eprintln!("error: {msg}");
                            write_errors.lock().expect("write log poisoned").push(msg);
                        }
                    }
                }
            }
            OutcomeKind::Failed(e) => {
                record.status = RunStatus::Failed;
                record.error = Some(e.to_string());
            }
        }
        let mut j = journal.lock().expect("journal poisoned");
        j.upsert(record);
        // Deterministic on-disk order regardless of completion order.
        j.experiments.sort_by(|a, b| a.name.cmp(&b.name));
        if std::fs::create_dir_all(results_dir)
            .and_then(|()| write_atomic(&journal_path, j.to_json().as_bytes()))
            .is_err()
        {
            // The journal is advisory; a CSV write failure is already
            // reported above, and a journal-only failure must not kill
            // the run. Record it for the exit code.
            write_errors
                .lock()
                .expect("write log poisoned")
                .push(format!("cannot write {}", journal_path.display()));
        }
    };

    let mut report = engine.run_tolerant(&defs, scale, &policy, &on_done);
    // Sim-vs-static surrogate comparison, computed entirely from a full
    // run's warm cache: the static bounds aggregate cached analyses.
    if !selecting {
        report.surrogate = bmp_bench::surrogate::collect(engine.ctx(), scale);
        // The cache counters cover the surrogate's lookups too.
        report.cache = engine.ctx().cache_stats();
    }

    // Tables in stable registry order, printed after the run so worker
    // threads never interleave output.
    for outcome in &report.outcomes {
        match &outcome.kind {
            OutcomeKind::Completed(table) => {
                println!("{}", table.to_markdown());
                println!("[saved results/{}.csv]", table.id);
            }
            OutcomeKind::Skipped => println!("[skipped {} (resume)]", outcome.name),
            OutcomeKind::Failed(_) => {}
        }
    }
    print!("{}", report.to_summary());

    let timings = results_dir.join("bench_timings.json");
    let timings_ok = std::fs::create_dir_all(results_dir)
        .and_then(|()| write_atomic(&timings, report.to_json(scale).as_bytes()));
    match timings_ok {
        Ok(()) => eprintln!("[saved {}]", timings.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", timings.display());
            write_errors
                .lock()
                .expect("write log poisoned")
                .push(format!("cannot write {}", timings.display()));
        }
    }

    let failed = report.failures().count();
    let write_failed = write_errors.into_inner().expect("write log poisoned");
    if failed > 0 {
        eprintln!(
            "{failed} experiment(s) failed; see {} (re-run with --resume after fixing)",
            journal_path.display()
        );
        ExitCode::from(bmp_bench::EXIT_EXPERIMENT_FAILED)
    } else if !write_failed.is_empty() {
        eprintln!(
            "all experiments completed but {} write(s) failed",
            write_failed.len()
        );
        ExitCode::from(bmp_bench::EXIT_WRITE_FAILED)
    } else {
        ExitCode::from(bmp_bench::EXIT_OK)
    }
}
