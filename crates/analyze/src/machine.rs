//! Machine-balance lints (`BMP0xx`).
//!
//! These rules check the *model assumptions* behind the interval
//! analysis, not structural validity — [`MachineConfig::validate`]
//! already guarantees the latter (and `BMP000` bridges its errors into
//! the report). The interval model's central premise is a *balanced*
//! design whose steady-state throughput equals the dispatch width `D`;
//! each rule flags a configuration where some other resource silently
//! caps throughput below `D` or starves the drain the penalty
//! decomposition measures.

use bmp_uarch::{MachineConfig, PredictorConfig};

use crate::diag::Diagnostic;

/// Runs every machine-balance rule over `cfg`.
pub fn lint_machine(cfg: &MachineConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // BMP000: structural validity, bridged from the config's own checks.
    if let Err(e) = cfg.validate() {
        out.push(
            Diagnostic::error(
                "BMP000",
                "machine",
                format!("configuration is invalid: {e}"),
            )
            .with_suggestion(
                "construct configurations through MachineConfigBuilder::build, \
                     which rejects this",
            ),
        );
    }

    // BMP001: the FU pool must sustain the dispatch width. If the total
    // number of units is below D the machine can never reach its
    // steady-state throughput and every interval-model estimate built on
    // D is wrong.
    let units = cfg.fus.total();
    if units < cfg.dispatch_width {
        out.push(
            Diagnostic::error(
                "BMP001",
                "machine.fus",
                format!(
                    "{units} functional units cannot sustain a {}-wide dispatch; \
                     the interval model's steady-state throughput D is unreachable",
                    cfg.dispatch_width
                ),
            )
            .with_suggestion(format!(
                "provide at least {} units across the pool or narrow the machine",
                cfg.dispatch_width
            )),
        );
    } else if units < cfg.issue_width {
        out.push(Diagnostic::warn(
            "BMP001",
            "machine.fus",
            format!(
                "issue width {} exceeds the {units} available functional units; \
                 the extra issue slots can never be used",
                cfg.issue_width
            ),
        ));
    }

    // BMP002: during the frontend refill after a mispredict, the window
    // drains c_fe · D instructions. A window smaller than that cannot
    // hold the drain, so the ramp-up the model attributes to contributor
    // (ii) is clipped by the window instead.
    let drain = u64::from(cfg.frontend_depth) * u64::from(cfg.dispatch_width);
    if u64::from(cfg.window_size) < drain {
        out.push(
            Diagnostic::warn(
                "BMP002",
                "machine.window_size",
                format!(
                    "window of {} cannot cover the frontend-refill drain \
                     c_fe·D = {}·{} = {drain}; window fill will clip the \
                     interval ramp-up",
                    cfg.window_size, cfg.frontend_depth, cfg.dispatch_width
                ),
            )
            .with_suggestion(format!(
                "grow the window to at least {drain} entries or shorten the frontend"
            )),
        );
    }

    // BMP003: a global-history predictor whose history cannot index the
    // whole table leaves entries unreachable through history alone; the
    // size the experiment reports overstates the effective capacity.
    let indexability = |entries: u32, history_bits: u32, what: &str| -> Option<Diagnostic> {
        let reachable = 1u64.checked_shl(history_bits).unwrap_or(u64::MAX);
        (reachable < u64::from(entries)).then(|| {
            Diagnostic::info(
                "BMP003",
                "machine.predictor",
                format!(
                    "{what}: {history_bits} history bits index only {reachable} of \
                     {entries} entries; the table is larger than the history can \
                     distinguish"
                ),
            )
            .with_suggestion(format!(
                "use {} history bits or {reachable} entries for a fully indexed table",
                u64::from(entries).trailing_zeros()
            ))
        })
    };
    match cfg.predictor {
        PredictorConfig::GShare {
            entries,
            history_bits,
        } => out.extend(indexability(entries, history_bits, "gshare")),
        PredictorConfig::Tournament {
            entries,
            history_bits,
        } => out.extend(indexability(
            entries,
            history_bits,
            "tournament gshare component",
        )),
        PredictorConfig::Local {
            pattern_entries,
            history_bits,
            ..
        } => out.extend(indexability(
            pattern_entries,
            history_bits,
            "local pattern table",
        )),
        _ => {}
    }

    // BMP004: fetch narrower than dispatch starves the window in steady
    // state — D is then bounded by fetch, not dispatch.
    if cfg.fetch_width < cfg.dispatch_width {
        out.push(
            Diagnostic::warn(
                "BMP004",
                "machine.fetch_width",
                format!(
                    "fetch width {} is below dispatch width {}; sustained \
                     throughput is fetch-bound and the model's D overstates it",
                    cfg.fetch_width, cfg.dispatch_width
                ),
            )
            .with_suggestion("widen fetch to at least the dispatch width".to_owned()),
        );
    }

    // BMP006: commit narrower than dispatch backs the ROB up in steady
    // state; retirement, not dispatch, then sets the throughput.
    if cfg.commit_width < cfg.dispatch_width {
        out.push(Diagnostic::warn(
            "BMP006",
            "machine.commit_width",
            format!(
                "commit width {} is below dispatch width {}; the ROB will fill \
                 and cap throughput below D",
                cfg.commit_width, cfg.dispatch_width
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_uarch::{presets, FuPool, MachineConfigBuilder, FU_KINDS, OP_CLASSES};

    #[test]
    fn baseline_is_clean() {
        assert!(lint_machine(&presets::baseline_4wide()).is_empty());
    }

    #[test]
    fn unbalanced_fu_pool_is_an_error() {
        // Deliberately broken: 5 units for an 8-wide dispatch. Passes
        // validate() — balance is exactly what validation does not check.
        let cfg = MachineConfigBuilder::new()
            .width(8)
            .window_size(128)
            .rob_size(256)
            .fus(FuPool::new([1, 1, 1, 1, 1]).unwrap())
            .build()
            .unwrap();
        let diags = lint_machine(&cfg);
        let bmp001 = diags
            .iter()
            .find(|d| d.code == "BMP001")
            .expect("BMP001 fires");
        assert_eq!(bmp001.severity, crate::Severity::Error);
        assert!(bmp001.message.contains("5 functional units"));
        assert!(bmp001.suggestion.is_some());
    }

    #[test]
    fn invalid_config_is_bridged_as_bmp000() {
        // The builder rejects this; a foreign edit of the public fields
        // does not.
        let mut cfg = presets::baseline_4wide();
        cfg.rob_size = cfg.window_size - 1;
        let diags = lint_machine(&cfg);
        let bmp000 = diags
            .iter()
            .find(|d| d.code == "BMP000")
            .expect("BMP000 fires");
        assert_eq!(bmp000.severity, crate::Severity::Error);
    }

    #[test]
    fn issue_width_past_the_fu_pool_is_a_warning() {
        // 5 units sustain a 4-wide dispatch but not an 8-wide issue.
        let cfg = MachineConfigBuilder::new()
            .width(4)
            .issue_width(8)
            .fus(FuPool::new([1, 1, 1, 1, 1]).unwrap())
            .build()
            .unwrap();
        let diags = lint_machine(&cfg);
        assert!(diags.iter().any(|d| d.code == "BMP001"
            && d.severity == crate::Severity::Warn
            && d.message.contains("issue width 8")));
    }

    #[test]
    fn small_window_cannot_cover_drain() {
        // 40-deep frontend at width 4 drains 160; window 64 clips it.
        let cfg = presets::deep_frontend(40).unwrap();
        let diags = lint_machine(&cfg);
        assert!(diags.iter().any(|d| d.code == "BMP002"
            && d.severity == crate::Severity::Warn
            && d.message.contains("160")));
    }

    #[test]
    fn underindexed_predictor_is_flagged() {
        // Every history-indexed table: 8 history bits reach 256 entries.
        for (predictor, what) in [
            (
                PredictorConfig::GShare {
                    entries: 4096,
                    history_bits: 8,
                },
                "gshare",
            ),
            (
                PredictorConfig::Tournament {
                    entries: 4096,
                    history_bits: 8,
                },
                "tournament gshare component",
            ),
            (
                PredictorConfig::Local {
                    history_entries: 1024,
                    history_bits: 8,
                    pattern_entries: 4096,
                },
                "local pattern table",
            ),
        ] {
            let cfg = MachineConfigBuilder::new()
                .predictor(predictor)
                .build()
                .unwrap();
            let diags = lint_machine(&cfg);
            assert!(
                diags.iter().any(|d| d.code == "BMP003"
                    && d.message.starts_with(what)
                    && d.message.contains("256 of")),
                "{what}: {diags:?}"
            );
        }
    }

    #[test]
    fn narrow_fetch_is_flagged() {
        let cfg = MachineConfigBuilder::new()
            .fetch_width(2)
            .dispatch_width(4)
            .build()
            .unwrap();
        assert!(lint_machine(&cfg).iter().any(|d| d.code == "BMP004"));
    }

    #[test]
    fn narrow_commit_is_flagged() {
        let cfg = MachineConfigBuilder::new().commit_width(2).build().unwrap();
        assert!(lint_machine(&cfg).iter().any(|d| d.code == "BMP006"));
    }

    #[test]
    fn every_kind_is_used_by_some_class() {
        for kind in FU_KINDS {
            assert!(OP_CLASSES.iter().any(|c| c.fu_kind() == kind));
        }
    }
}
