//! Crash-safe run journal: the persistent manifest of an experiment run.
//!
//! `bmp-bench` (the `run_all` binary in `crates/bench`) maintains
//! `results/run_journal.json` as it works: one [`ExperimentRecord`] per
//! experiment with its completion status, content fingerprint, attempt
//! count and — for failures — the error that stopped it. The journal is
//! rewritten atomically after every experiment finishes, so a crash (or
//! an injected fault) leaves a consistent manifest of exactly what was
//! produced. `bmp-bench --resume` reads it back and skips experiments
//! whose record says *completed*, whose fingerprint matches the current
//! configuration, and whose CSV is still on disk.
//!
//! When the observability layer is enabled (`BMP_METRICS=1`, see
//! `docs/OBSERVABILITY.md`), completed records also carry the relative
//! path of the experiment's metrics file under `results/` in the
//! optional `metrics` field, tying each CSV to the accounting that
//! produced it.
//!
//! The format is deliberately plain JSON so humans and the `bmp-lint
//! --journal` checker (rule family BMP4xx in `bmp-analyze`) can read it.
//! Serialization and parsing both go through the workspace's one JSON
//! reader and writer, [`crate::json`] — the workspace carries no JSON
//! dependency.
//!
//! Fingerprints are 64-bit content hashes (see `cache_key` in the bench
//! crate) and are stored as fixed-width hex *strings*: JSON tooling
//! treats numbers as f64 and would silently corrupt the top bits.

use crate::json::{self, JsonError, ObjectExt, Value};
use crate::json_object;
use std::fmt;

/// Journal format version written by this crate; readers reject others.
pub const JOURNAL_VERSION: u32 = 1;

/// Terminal status of one experiment within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The experiment produced its table and the CSV was written.
    Completed,
    /// The experiment (or writing its output) ultimately failed after
    /// all retry attempts.
    Failed,
}

impl RunStatus {
    fn as_str(self) -> &'static str {
        match self {
            RunStatus::Completed => "completed",
            RunStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "completed" => Some(RunStatus::Completed),
            "failed" => Some(RunStatus::Failed),
            _ => None,
        }
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One experiment's entry in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentRecord {
    /// Experiment name (matches the registry and the CSV filename stem).
    pub name: String,
    /// Terminal status of the most recent run of this experiment.
    pub status: RunStatus,
    /// Content fingerprint of `(name, ops, seed)` at the time of the
    /// run; a resume only trusts records whose fingerprint matches the
    /// current configuration.
    pub fingerprint: u64,
    /// Attempts consumed (≥ 1; a first-try success is 1).
    pub attempts: u32,
    /// Human-readable error for failed records; `None` when completed.
    pub error: Option<String>,
    /// Path of the experiment's metrics file, relative to `results/`
    /// (e.g. `metrics/fig2_penalty_per_benchmark.json`). Present only
    /// for completed records of runs made with `BMP_METRICS=1`.
    pub metrics: Option<String>,
    /// FNV-1a content hash of the experiment's CSV bytes as written,
    /// in fixed-width hex (same string discipline as `fingerprint`).
    /// `--resume` re-hashes the CSV on disk and recomputes on mismatch,
    /// so a deleted *or silently corrupted* artifact never causes a
    /// false skip. Absent in journals from before this field existed —
    /// such records are resumed on existence alone, as before.
    pub csv_fnv: Option<String>,
}

/// The whole journal: run-level configuration plus per-experiment records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunJournal {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// Instruction budget the run was scaled to (`BMP_OPS`).
    pub ops: u64,
    /// Trace seed the run used (`BMP_SEED`).
    pub seed: u64,
    /// Per-experiment records, in registry order.
    pub experiments: Vec<ExperimentRecord>,
}

impl RunJournal {
    /// An empty journal for a run at the given scale.
    pub fn new(ops: u64, seed: u64) -> Self {
        Self {
            version: JOURNAL_VERSION,
            ops,
            seed,
            experiments: Vec::new(),
        }
    }

    /// Looks up a record by experiment name.
    pub fn find(&self, name: &str) -> Option<&ExperimentRecord> {
        self.experiments.iter().find(|r| r.name == name)
    }

    /// Inserts or replaces the record for `record.name`.
    pub fn upsert(&mut self, record: ExperimentRecord) {
        match self.experiments.iter_mut().find(|r| r.name == record.name) {
            Some(slot) => *slot = record,
            None => self.experiments.push(record),
        }
    }

    /// Number of records with [`RunStatus::Failed`].
    pub fn failed_count(&self) -> usize {
        self.experiments
            .iter()
            .filter(|r| r.status == RunStatus::Failed)
            .count()
    }

    /// Serializes the journal as JSON (trailing newline; layout per
    /// [`Value`]'s `Display`).
    pub fn to_json(&self) -> String {
        let experiments = self.experiments.iter().map(|r| {
            json_object! {
                "name": r.name.as_str(), "status": r.status.as_str(),
                "fingerprint": format!("{:016x}", r.fingerprint), "attempts": r.attempts,
                "error"?: r.error.as_deref(), "metrics"?: r.metrics.as_deref(),
                "csv_fnv"?: r.csv_fnv.as_deref(),
            }
        });
        let doc = json_object! {
            "version": self.version,
            "ops": self.ops,
            "seed": self.seed,
            "experiments": experiments.collect::<Value>(),
        };
        format!("{doc}\n")
    }

    /// Parses a journal previously written by [`to_json`](Self::to_json)
    /// (or any JSON object with the same shape).
    pub fn parse(text: &str) -> Result<Self, JournalError> {
        let value = json::parse(text)?;
        let obj = value.as_object("journal root")?;
        let version = obj.get_u64("version")? as u32;
        if version != JOURNAL_VERSION {
            return Err(JournalError::new(format!(
                "unsupported journal version {version} (expected {JOURNAL_VERSION})"
            )));
        }
        let ops = obj.get_u64("ops")?;
        let seed = obj.get_u64("seed")?;
        let mut experiments = Vec::new();
        for item in obj.get_array("experiments")? {
            let rec = item.as_object("experiment record")?;
            let name = rec.get_string("name")?.to_string();
            let status_raw = rec.get_string("status")?;
            let status = RunStatus::parse(status_raw).ok_or_else(|| {
                JournalError::new(format!("unknown status {status_raw:?} for {name:?}"))
            })?;
            let fp_raw = rec.get_string("fingerprint")?;
            let fingerprint = u64::from_str_radix(fp_raw, 16).map_err(|_| {
                JournalError::new(format!("bad fingerprint {fp_raw:?} for {name:?}"))
            })?;
            let attempts = rec.get_u64("attempts")? as u32;
            let error = match rec.get("error") {
                Some(v) => Some(v.as_string("error")?.to_string()),
                None => None,
            };
            let metrics = match rec.get("metrics") {
                Some(v) => Some(v.as_string("metrics")?.to_string()),
                None => None,
            };
            let csv_fnv = match rec.get("csv_fnv") {
                Some(v) => Some(v.as_string("csv_fnv")?.to_string()),
                None => None,
            };
            experiments.push(ExperimentRecord {
                name,
                status,
                fingerprint,
                attempts,
                error,
                metrics,
                csv_fnv,
            });
        }
        Ok(Self {
            version,
            ops,
            seed,
            experiments,
        })
    }
}

/// Why a journal could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    message: String,
}

impl JournalError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl From<JsonError> for JournalError {
    fn from(err: JsonError) -> Self {
        JournalError::new(err.message().to_string())
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid run journal: {}", self.message)
    }
}

impl std::error::Error for JournalError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunJournal {
        RunJournal {
            version: JOURNAL_VERSION,
            ops: 50_000,
            seed: 1,
            experiments: vec![
                ExperimentRecord {
                    name: "fig8_ilp".into(),
                    status: RunStatus::Completed,
                    fingerprint: 0xdead_beef_0bad_f00d,
                    attempts: 1,
                    error: None,
                    metrics: None,
                    csv_fnv: None,
                },
                ExperimentRecord {
                    name: "fig9_cpi".into(),
                    status: RunStatus::Failed,
                    fingerprint: 3,
                    attempts: 2,
                    error: Some("cell \"fig9:gcc\" panicked:\n\tboom".into()),
                    metrics: None,
                    csv_fnv: None,
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let j = sample();
        let text = j.to_json();
        let back = RunJournal::parse(&text).unwrap();
        assert_eq!(j, back);
        // Serialization is deterministic: same journal, same bytes.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn empty_journal_round_trips() {
        let j = RunJournal::new(1_000, 7);
        assert_eq!(RunJournal::parse(&j.to_json()).unwrap(), j);
    }

    #[test]
    fn metrics_path_round_trips_and_is_optional() {
        let mut j = RunJournal::new(1_000, 7);
        j.upsert(ExperimentRecord {
            name: "fig2_penalty".into(),
            status: RunStatus::Completed,
            fingerprint: 42,
            attempts: 1,
            error: None,
            metrics: Some("metrics/fig2_penalty.json".into()),
            csv_fnv: None,
        });
        let text = j.to_json();
        let back = RunJournal::parse(&text).unwrap();
        assert_eq!(back, j);
        assert_eq!(
            back.find("fig2_penalty").unwrap().metrics.as_deref(),
            Some("metrics/fig2_penalty.json")
        );
        // A metrics-off journal stays byte-for-byte free of the field.
        let plain = sample().to_json();
        assert!(!plain.contains("metrics"));
    }

    #[test]
    fn csv_hash_round_trips_and_is_optional() {
        let mut j = RunJournal::new(1_000, 7);
        j.upsert(ExperimentRecord {
            name: "fig8_ilp".into(),
            status: RunStatus::Completed,
            fingerprint: 42,
            attempts: 1,
            error: None,
            metrics: None,
            csv_fnv: Some("00f00ddeadbeef12".into()),
        });
        let back = RunJournal::parse(&j.to_json()).unwrap();
        assert_eq!(back, j);
        assert_eq!(
            back.find("fig8_ilp").unwrap().csv_fnv.as_deref(),
            Some("00f00ddeadbeef12")
        );
        // A journal written before the field existed parses fine and
        // yields None.
        assert!(!sample().to_json().contains("csv_fnv"));
        assert_eq!(sample().experiments[0].csv_fnv, None);
    }

    #[test]
    fn upsert_replaces_by_name() {
        let mut j = sample();
        j.upsert(ExperimentRecord {
            name: "fig9_cpi".into(),
            status: RunStatus::Completed,
            fingerprint: 3,
            attempts: 3,
            error: None,
            metrics: None,
            csv_fnv: None,
        });
        assert_eq!(j.experiments.len(), 2);
        let r = j.find("fig9_cpi").unwrap();
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.attempts, 3);
        assert_eq!(j.failed_count(), 0);
    }

    #[test]
    fn rejects_wrong_version_and_garbage() {
        let wrong = sample()
            .to_json()
            .replace("\"version\": 1", "\"version\": 9");
        assert!(RunJournal::parse(&wrong).is_err());
        assert!(RunJournal::parse("not json").is_err());
        assert!(RunJournal::parse("{\"version\": 1}").is_err());
        let trailing = format!("{}extra", sample().to_json());
        assert!(RunJournal::parse(&trailing).is_err());
    }

    #[test]
    fn fingerprints_survive_the_top_bits() {
        // The reason fingerprints are hex strings: this value is not
        // representable as an f64 and a number-typed field would corrupt
        // it in any JS-based tooling.
        let mut j = RunJournal::new(1, 1);
        j.upsert(ExperimentRecord {
            name: "x".into(),
            status: RunStatus::Completed,
            fingerprint: u64::MAX - 1,
            attempts: 1,
            error: None,
            metrics: None,
            csv_fnv: None,
        });
        let back = RunJournal::parse(&j.to_json()).unwrap();
        assert_eq!(back.find("x").unwrap().fingerprint, u64::MAX - 1);
    }
}
