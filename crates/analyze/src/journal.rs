//! `BMP4xx` — run-journal consistency.
//!
//! `run_all` maintains `results/run_journal.json` (see
//! [`bmp_core::journal`]) as the crash-safe manifest of an experiment
//! run, and `--resume` trusts it to decide what to skip. These rules
//! check the invariants that trust rests on: a supported format version,
//! unique experiment names, attempt counts that prove the experiment
//! actually ran, status/error agreement, and plausible fingerprints in
//! the deterministic name-sorted order the writer maintains.
//!
//! * `BMP400` (error) — the journal cannot be parsed, or its `version`
//!   is not the [`JOURNAL_VERSION`] this workspace writes.
//! * `BMP401` (error) — two records share one experiment name; `upsert`
//!   semantics make the duplicate unreachable, so one of them is dead.
//! * `BMP402` (warn) — a record claims a terminal status with zero
//!   attempts: nothing can complete or fail without running once.
//! * `BMP403` (error) — a failed record without an error message, or
//!   (warn) a completed record still carrying one.
//! * `BMP404` (warn) — fingerprint invariants: a zero fingerprint (the
//!   content hash of a real `(name, ops, seed)` triple is never zero in
//!   practice, so zero means "never computed"), or two different
//!   experiments sharing one fingerprint.
//! * `BMP405` (warn) — records out of name order: the writer sorts by
//!   name so journals diff cleanly across thread counts; an unsorted
//!   journal was produced (or edited) by something else.

use std::collections::HashMap;

use bmp_core::journal::{RunJournal, RunStatus, JOURNAL_VERSION};

use crate::diag::Diagnostic;

/// Runs the `BMP40x` rules over a parsed journal.
pub fn lint_journal(journal: &RunJournal) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if journal.version != JOURNAL_VERSION {
        diags.push(
            Diagnostic::error(
                "BMP400",
                "journal.version",
                format!(
                    "unsupported journal version {} (this workspace writes {JOURNAL_VERSION})",
                    journal.version
                ),
            )
            .with_suggestion("re-run `run_all` to regenerate the journal"),
        );
    }

    let mut by_name: HashMap<&str, usize> = HashMap::new();
    let mut by_fp: HashMap<u64, &str> = HashMap::new();
    for (i, rec) in journal.experiments.iter().enumerate() {
        let locus = format!("experiments[{i}] ({})", rec.name);

        if let Some(first) = by_name.insert(rec.name.as_str(), i) {
            diags.push(Diagnostic::error(
                "BMP401",
                &locus,
                format!(
                    "duplicate record for '{}' (first at experiments[{first}]); \
                     the writer upserts by name, so duplicates mean a foreign edit",
                    rec.name
                ),
            ));
        }

        if rec.attempts == 0 {
            diags.push(Diagnostic::warn(
                "BMP402",
                &locus,
                format!(
                    "status '{}' with zero attempts — a terminal status requires \
                     at least one run",
                    rec.status
                ),
            ));
        }

        match (rec.status, &rec.error) {
            (RunStatus::Failed, None) => diags.push(Diagnostic::error(
                "BMP403",
                &locus,
                "failed record without an error message; the failure cause is lost",
            )),
            (RunStatus::Completed, Some(e)) => diags.push(Diagnostic::warn(
                "BMP403",
                &locus,
                format!("completed record still carries an error ('{e}')"),
            )),
            _ => {}
        }

        if rec.fingerprint == 0 {
            diags.push(Diagnostic::warn(
                "BMP404",
                &locus,
                "zero fingerprint — the content hash was never computed, so \
                 `--resume` cannot safely trust this record",
            ));
        } else if let Some(other) = by_fp.insert(rec.fingerprint, rec.name.as_str()) {
            if other != rec.name {
                diags.push(Diagnostic::warn(
                    "BMP404",
                    &locus,
                    format!(
                        "fingerprint {:016x} is shared with '{other}' — distinct \
                         experiments must hash distinctly",
                        rec.fingerprint
                    ),
                ));
            }
        }
    }

    for pair in journal.experiments.windows(2) {
        if pair[0].name > pair[1].name {
            diags.push(
                Diagnostic::warn(
                    "BMP405",
                    format!("experiments ({} > {})", pair[0].name, pair[1].name),
                    "records are not sorted by name; the writer keeps them sorted \
                     so journals are deterministic across thread counts",
                )
                .with_suggestion("re-run `run_all` (or sort the records) to restore the order"),
            );
            break;
        }
    }

    diags
}

/// Parses `text` as a run journal and lints it; an unparseable journal
/// is itself the finding (`BMP400`).
pub fn lint_journal_text(text: &str) -> Vec<Diagnostic> {
    match RunJournal::parse(text) {
        Ok(journal) => lint_journal(&journal),
        Err(e) => vec![Diagnostic::error(
            "BMP400",
            "journal",
            format!("journal does not parse: {e}"),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::journal::ExperimentRecord;

    fn rec(name: &str, status: RunStatus, fingerprint: u64) -> ExperimentRecord {
        ExperimentRecord {
            name: name.to_owned(),
            status,
            fingerprint,
            attempts: 1,
            error: match status {
                RunStatus::Completed => None,
                RunStatus::Failed => Some("boom".to_owned()),
            },
            metrics: None,
            csv_fnv: None,
        }
    }

    #[test]
    fn a_healthy_journal_is_clean() {
        let mut j = RunJournal::new(2000, 42);
        j.upsert(rec("fig2_penalty", RunStatus::Completed, 0xdead));
        j.upsert(rec("fig3_ipc", RunStatus::Failed, 0xbeef));
        assert!(lint_journal(&j).is_empty());
    }

    #[test]
    fn version_mismatch_is_bmp400() {
        let mut j = RunJournal::new(2000, 42);
        j.version = 99;
        let d = lint_journal(&j);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "BMP400");
    }

    #[test]
    fn unparseable_text_is_bmp400() {
        let d = lint_journal_text("{ not json");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "BMP400");
    }

    #[test]
    fn duplicates_zero_attempts_and_error_mismatches_fire() {
        let mut j = RunJournal::new(2000, 42);
        // Bypass upsert to construct the pathological journal a foreign
        // tool could write.
        j.experiments = vec![
            rec("a_exp", RunStatus::Completed, 1),
            rec("a_exp", RunStatus::Completed, 2),
            ExperimentRecord {
                name: "b_exp".to_owned(),
                status: RunStatus::Failed,
                fingerprint: 3,
                attempts: 0,
                error: None,
                metrics: None,
                csv_fnv: None,
            },
            ExperimentRecord {
                name: "c_exp".to_owned(),
                status: RunStatus::Completed,
                fingerprint: 4,
                attempts: 1,
                error: Some("leftover".to_owned()),
                metrics: None,
                csv_fnv: None,
            },
        ];
        let diags = lint_journal(&j);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"BMP401"), "duplicate name: {codes:?}");
        assert!(codes.contains(&"BMP402"), "zero attempts: {codes:?}");
        // Each BMP403 clause fires on its own record.
        let bmp403 = |exp: &str, severity| {
            diags
                .iter()
                .any(|d| d.code == "BMP403" && d.locus.contains(exp) && d.severity == severity)
        };
        assert!(
            bmp403("b_exp", crate::Severity::Error),
            "failed without error: {diags:?}"
        );
        assert!(
            bmp403("c_exp", crate::Severity::Warn),
            "completed with error: {diags:?}"
        );
    }

    #[test]
    fn fingerprint_and_order_invariants_fire() {
        let mut j = RunJournal::new(2000, 42);
        j.experiments = vec![
            rec("z_exp", RunStatus::Completed, 0),
            rec("a_exp", RunStatus::Completed, 7),
            rec("m_exp", RunStatus::Completed, 7),
        ];
        let d = lint_journal(&j);
        let codes: Vec<_> = d.iter().map(|x| x.code).collect();
        assert!(codes.contains(&"BMP404"), "zero fingerprint: {codes:?}");
        assert_eq!(
            codes.iter().filter(|c| **c == "BMP404").count(),
            2,
            "zero + shared fingerprint both fire: {codes:?}"
        );
        assert!(codes.contains(&"BMP405"), "unsorted records: {codes:?}");
    }

    #[test]
    fn round_trip_through_the_writer_stays_clean() {
        let mut j = RunJournal::new(50_000, 7);
        j.upsert(rec(
            "fig2_penalty",
            RunStatus::Completed,
            0x1234_5678_9abc_def0,
        ));
        j.upsert(rec(
            "table1_config",
            RunStatus::Failed,
            0x0fed_cba9_8765_4321,
        ));
        let parsed = RunJournal::parse(&j.to_json()).expect("writer output parses");
        assert!(lint_journal(&parsed).is_empty());
    }
}
