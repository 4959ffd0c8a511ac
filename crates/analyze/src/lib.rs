//! `bmp-analyze`: a static model-consistency linter for the mispredict
//! workspace.
//!
//! The interval model of the branch misprediction penalty (Eyerman,
//! Smeets & Eeckhout, ISPASS 2006) rests on assumptions no type system
//! enforces: the machine is *balanced* around its dispatch width `D`,
//! traces are well-formed executions, and every decomposition the model
//! produces *conserves* the quantity it decomposes. This crate checks
//! all three as lint rules with stable `BMP###` codes:
//!
//! * `BMP0xx` — machine balance ([`machine`]): configurations that are
//!   structurally legal but break the model's steady-state premise
//!   (starved FU pools, windows smaller than the `c_fe · D` refill
//!   drain, under-indexed predictors, fetch/commit narrower than
//!   dispatch).
//! * `BMP1xx` — trace well-formedness ([`tracelint`]): dependences
//!   that reach before the trace start, taken branches to addresses the
//!   trace never fetches, and control flow that contradicts recorded
//!   branch outcomes.
//! * `BMP2xx` — result conservation ([`conserve`]): CPI stacks whose
//!   components do not sum to the CPI, penalty breakdowns whose five
//!   contributors do not sum to the resolution they explain, and
//!   simulator results that leak dispatch slots or ROB samples.
//! * `BMP4xx` — run-journal consistency ([`journal`]): the
//!   `results/run_journal.json` manifest `run_all` maintains and
//!   `--resume` trusts must parse, carry a supported version, and keep
//!   its per-experiment records unique, attempted, status/error
//!   consistent, fingerprinted and name-sorted.
//! * `BMP5xx` — metrics-file consistency ([`metrics`]): the
//!   `results/metrics/*.json` observability documents written under
//!   `BMP_METRICS=1` (see `docs/OBSERVABILITY.md`) must parse, keep the
//!   contributor and carryover identities, count one branch interval
//!   per mispredict, conserve refill cycles, keep their histograms
//!   complete, and carry a CPI stack that tracks the measured CPI.
//! * `BMP6xx` — static-bounds cross-checks ([`staticpass`]): the
//!   dependence-graph static pass recomputes guaranteed lower/upper
//!   bounds (and point estimates) for the five penalty contributors
//!   directly from the workload recipe and machine configuration —
//!   no simulation — and any simulated total outside its proven bound,
//!   in a metrics document or a published CSV table, is a hard error.
//! * `BMP9xx` — executed-trace provenance ([`provenance`]): the
//!   structural invariants a trace recorded from a real execution must
//!   carry (4-aligned RV32 PCs, straight-line continuity inside
//!   superblocks, architectural effective addresses, aligned branch
//!   targets) — what the `bmp-isa` functional executor guarantees by
//!   construction, checked so corruption anywhere between the executor
//!   and the model is loud.
//!
//! [`analyze`] is the one-call entry point; the `bmp-lint` binary runs it
//! over presets, workload profiles, or both (plus `--journal` for run
//! journals, `--metrics` for observability documents and `--static`
//! for bounds cross-checks), and
//! renders either a compiler-style listing or JSON (`bmp-lint --json`);
//! with `--static` it also prints each metrics entry's static bounds
//! next to the model's recorded totals. The full code catalogue lives
//! in `docs/ANALYZER.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conserve;
pub mod diag;
pub mod journal;
pub mod machine;
pub mod metrics;
pub mod provenance;
pub mod staticpass;
pub mod tracelint;

pub use conserve::{lint_cpi_stack, lint_penalty_analysis, lint_sim_result};
pub use diag::{walk_inputs, AnalysisReport, Diagnostic, Severity, WalkedFile};
pub use journal::{lint_journal, lint_journal_text};
pub use machine::{lint_fu_coverage, lint_machine};
pub use metrics::{lint_metrics, lint_metrics_text};
pub use provenance::lint_executed_trace;
pub use staticpass::StaticBounds;
pub use tracelint::lint_trace;

use bmp_core::PenaltyModel;
use bmp_trace::Trace;
use bmp_uarch::MachineConfig;

/// Runs every applicable rule family over one machine configuration and,
/// when given, one trace.
///
/// The machine-balance rules always run. With a trace, the
/// well-formedness rules run over it, and — provided the configuration
/// is structurally valid — the interval model and CPI stack are computed
/// for the pair and fed through the conservation rules, so a single call
/// checks inputs *and* the model outputs they produce. (The
/// cycle-accurate simulator is not run here; use
/// [`lint_sim_result`] on an existing [`bmp_sim::SimResult`] or the
/// `bmp-lint` binary for that.)
pub fn analyze(cfg: &MachineConfig, trace: Option<&Trace>) -> AnalysisReport {
    let mut report = AnalysisReport::new(lint_machine(cfg));

    if let Some(trace) = trace {
        report.merge(AnalysisReport::new(lint_trace(trace)));

        // The model constructors reject invalid configs by panicking;
        // BMP000 has already reported that case, so stop short of it.
        if cfg.validate().is_ok() && !trace.is_empty() {
            let analysis = PenaltyModel::new(cfg.clone()).analyze(trace);
            report.merge(AnalysisReport::new(lint_penalty_analysis(&analysis)));

            let stack = bmp_core::cpi::predict(trace, cfg);
            report.merge(AnalysisReport::new(lint_cpi_stack(&stack)));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_uarch::presets;

    #[test]
    fn baseline_with_workload_trace_is_error_free() {
        let cfg = presets::baseline_4wide();
        let profile = bmp_workloads::spec::by_name("gcc").expect("spec profile");
        let trace = profile.generate(2000, 1);
        let report = analyze(&cfg, Some(&trace));
        assert_eq!(report.error_count(), 0, "{}", report.render_human());
    }

    #[test]
    fn every_preset_is_error_free() {
        let presets: Vec<(&str, MachineConfig)> = vec![
            ("baseline_4wide", presets::baseline_4wide()),
            ("wide_8way", presets::wide_8way()),
            ("alpha21264_like", presets::alpha21264_like()),
            ("pentium4_like", presets::pentium4_like()),
            ("test_tiny", presets::test_tiny()),
            ("perfect_branches", presets::perfect_branches()),
            ("deep_frontend_20", presets::deep_frontend(20).unwrap()),
            ("scaled_latencies_2x", presets::scaled_latencies(2.0)),
            ("l1d_16k", presets::l1d_sized(16 * 1024).unwrap()),
        ];
        for (name, cfg) in presets {
            let report = analyze(&cfg, None);
            assert_eq!(
                report.error_count(),
                0,
                "preset {name} has lint errors:\n{}",
                report.render_human()
            );
        }
    }

    #[test]
    fn analyze_surfaces_machine_errors() {
        use bmp_uarch::{FuPool, MachineConfigBuilder};
        let cfg = MachineConfigBuilder::new()
            .width(8)
            .window_size(128)
            .rob_size(256)
            .fus(FuPool::new([1, 1, 1, 1, 1]).unwrap())
            .build()
            .unwrap();
        assert!(analyze(&cfg, None).error_count() > 0);
    }
}
