//! Result-conservation lints (`BMP2xx`).
//!
//! The interval model's whole point is an *exact* decomposition: the five
//! penalty contributors must sum back to the resolution they explain, and
//! the CPI stack must sum back to the cycles it accounts for. These rules
//! re-check those conservation laws on finished results, so a regression
//! in the model (or a hand-constructed result) cannot silently report a
//! breakdown that does not add up.

use bmp_core::cpi::CpiStack;
use bmp_core::{identities, PenaltyAnalysis};
use bmp_sim::SimResult;
use bmp_uarch::MachineConfig;

use crate::diag::Diagnostic;

/// Relative tolerance for floating-point conservation checks.
const EPS: f64 = 1e-9;

/// `a ≈ b` under [`EPS`], scaled by magnitude.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * a.abs().max(b.abs()).max(1.0)
}

/// Cap on per-breakdown findings before summarizing.
const MAX_BREAKDOWN_FINDINGS: usize = 8;

/// `BMP201`: checks a CPI stack for finite, non-negative components that
/// sum (within epsilon) to the CPI it reports.
pub fn lint_cpi_stack(stack: &CpiStack) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let named = [
        ("base_cycles", stack.base_cycles),
        ("branch_cycles", stack.branch_cycles),
        ("icache_cycles", stack.icache_cycles),
        ("long_dmiss_cycles", stack.long_dmiss_cycles),
    ];
    for (name, v) in named {
        if !v.is_finite() || v < 0.0 {
            out.push(Diagnostic::error(
                "BMP201",
                format!("cpi.{name}"),
                format!("component is {v}, which is not a finite non-negative cycle count"),
            ));
        }
    }

    let (base, branch, icache, long_dmiss) = stack.components();
    let sum = base + branch + icache + long_dmiss;
    if !close(sum, stack.cpi()) {
        out.push(
            Diagnostic::error(
                "BMP201",
                "cpi",
                format!(
                    "component CPIs sum to {sum} but the stack reports {}; the \
                     decomposition does not conserve cycles",
                    stack.cpi()
                ),
            )
            .with_suggestion("every cycle must be attributed to exactly one component"),
        );
    }

    if stack.instructions == 0 && stack.total_cycles() > 0.0 {
        out.push(Diagnostic::warn(
            "BMP201",
            "cpi.instructions",
            format!(
                "{} cycles attributed over zero instructions; the stack is \
                 unnormalizable",
                stack.total_cycles()
            ),
        ));
    }
    out
}

/// `BMP202`: checks every penalty breakdown for the two conservation
/// identities the decomposition guarantees —
/// `base + ilp + fu_latency + short_dmiss == local_resolution` and
/// `local_resolution + carryover == resolution` — plus the structural
/// facts downstream consumers lean on (strictly increasing branch
/// indices, the precondition of `ValidationReport::from_pairs`; a
/// non-zero resolution floor; the analysis-wide frontend depth on every
/// record).
pub fn lint_penalty_analysis(analysis: &PenaltyAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut findings = 0usize;
    let mut push = |out: &mut Vec<Diagnostic>, d: Diagnostic| {
        if findings < MAX_BREAKDOWN_FINDINGS {
            out.push(d);
        }
        findings += 1;
    };

    let mut prev_idx: Option<usize> = None;
    for (i, b) in analysis.breakdowns.iter().enumerate() {
        let locus = format!("penalty.breakdowns[{i}]");

        let parts = b.base + b.ilp + b.fu_latency + b.short_dmiss;
        if !identities::knockout_sums_to_local(
            b.base,
            b.ilp,
            b.fu_latency,
            b.short_dmiss,
            b.local_resolution,
        ) {
            push(
                &mut out,
                Diagnostic::error(
                    "BMP202",
                    locus.clone(),
                    format!(
                        "contributors base+ilp+fu+short_dmiss = {parts} but \
                         local_resolution = {}; the knock-out decomposition \
                         does not conserve cycles",
                        b.local_resolution
                    ),
                ),
            );
        }

        let effective = b.local_resolution as i64 + b.carryover;
        if !identities::carryover_reconciles(b.local_resolution, b.carryover, b.resolution) {
            push(
                &mut out,
                Diagnostic::error(
                    "BMP202",
                    locus.clone(),
                    format!(
                        "local_resolution {} + carryover {} = {effective} but \
                         resolution = {}; interval and whole-trace schedules \
                         disagree",
                        b.local_resolution, b.carryover, b.resolution
                    ),
                ),
            );
        }

        if b.base == 0 {
            push(
                &mut out,
                Diagnostic::warn(
                    "BMP202",
                    locus.clone(),
                    "base term is 0; a branch always needs at least one cycle \
                     to execute, so the resolution floor is missing"
                        .to_owned(),
                ),
            );
        }

        if b.frontend != analysis.frontend_depth {
            push(
                &mut out,
                Diagnostic::warn(
                    "BMP202",
                    locus.clone(),
                    format!(
                        "frontend refill {} disagrees with the analysis-wide \
                         frontend depth {}",
                        b.frontend, analysis.frontend_depth
                    ),
                ),
            );
        }

        if b.interval_len == 0 {
            push(
                &mut out,
                Diagnostic::warn(
                    "BMP202",
                    locus.clone(),
                    "interval length is 0; every interval contains at least its \
                     terminating branch"
                        .to_owned(),
                ),
            );
        }

        if let Some(p) = prev_idx {
            if b.branch_idx <= p {
                push(
                    &mut out,
                    Diagnostic::error(
                        "BMP202",
                        locus,
                        format!(
                            "branch index {} does not increase past {p}; \
                             ValidationReport::from_pairs requires model \
                             records strictly sorted by branch index",
                            b.branch_idx
                        ),
                    ),
                );
            }
        }
        prev_idx = Some(b.branch_idx);
    }

    if findings > MAX_BREAKDOWN_FINDINGS {
        out.push(Diagnostic::info(
            "BMP202",
            "penalty.breakdowns",
            format!(
                "... and {} more BMP202 finding(s)",
                findings - MAX_BREAKDOWN_FINDINGS
            ),
        ));
    }
    out
}

/// `BMP203`: checks a simulator result against the accounting identities
/// the engine maintains — every offered dispatch slot is attributed to
/// exactly one cause, the ROB-occupancy histogram covers every cycle,
/// misprediction records are ordered and internally consistent, and the
/// realized IPC respects the machine's width.
pub fn lint_sim_result(result: &SimResult, cfg: &MachineConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Slot conservation: the engine offers dispatch_width slots per cycle
    // and must classify each as used / starved / rob-full / window-full.
    let offered = result.cycles * u64::from(cfg.dispatch_width);
    let accounted = result.slots.total();
    if accounted != offered {
        out.push(
            Diagnostic::error(
                "BMP203",
                "result.slots",
                format!(
                    "slot accounting covers {accounted} slots but {} cycles × \
                     width {} offered {offered}; dispatch slots leaked",
                    result.cycles, cfg.dispatch_width
                ),
            )
            .with_suggestion(
                "every cycle must attribute dispatch_width slots to exactly one \
                 of used/frontend_starved/rob_full/window_full",
            ),
        );
    }

    // ROB histogram: one sample per cycle, one bucket per occupancy level.
    let expected_len = cfg.rob_size as usize + 1;
    if result.rob_occupancy.len() != expected_len {
        out.push(Diagnostic::error(
            "BMP203",
            "result.rob_occupancy",
            format!(
                "occupancy histogram has {} buckets; a {}-entry ROB needs {} \
                 (levels 0..={})",
                result.rob_occupancy.len(),
                cfg.rob_size,
                expected_len,
                cfg.rob_size
            ),
        ));
    }
    let sampled: u64 = result.rob_occupancy.iter().sum();
    if sampled != result.cycles {
        out.push(Diagnostic::error(
            "BMP203",
            "result.rob_occupancy",
            format!(
                "histogram samples {sampled} cycles but the run took {}; \
                 occupancy was not recorded every cycle",
                result.cycles
            ),
        ));
    }

    // Misprediction records: ordered, and fetch ≤ dispatch ≤ resolve.
    let mut bad_records = 0usize;
    let mut prev_idx: Option<usize> = None;
    for (i, m) in result.mispredicts.iter().enumerate() {
        let ordered = prev_idx.is_none_or(|p| m.branch_idx > p);
        let consistent = m.fetch_cycle <= m.dispatch_cycle && m.dispatch_cycle <= m.resolve_cycle;
        if !(ordered && consistent) {
            if bad_records < MAX_BREAKDOWN_FINDINGS {
                out.push(Diagnostic::error(
                    "BMP203",
                    format!("result.mispredicts[{i}]"),
                    if consistent {
                        format!(
                            "branch index {} does not increase past {}; records \
                             must follow trace order",
                            m.branch_idx,
                            prev_idx.unwrap_or(0)
                        )
                    } else {
                        format!(
                            "cycle order violated: fetch {} / dispatch {} / \
                             resolve {} must be non-decreasing",
                            m.fetch_cycle, m.dispatch_cycle, m.resolve_cycle
                        )
                    },
                ));
            }
            bad_records += 1;
        }
        prev_idx = Some(m.branch_idx);
    }
    if bad_records > MAX_BREAKDOWN_FINDINGS {
        out.push(Diagnostic::info(
            "BMP203",
            "result.mispredicts",
            format!(
                "... and {} more BMP203 finding(s)",
                bad_records - MAX_BREAKDOWN_FINDINGS
            ),
        ));
    }

    // Width bound: committing faster than the narrowest pipe stage is
    // impossible.
    let width_cap = cfg
        .commit_width
        .min(cfg.dispatch_width)
        .min(cfg.effective_fetch_width());
    if result.cycles > 0 && result.ipc() > f64::from(width_cap) + EPS {
        out.push(Diagnostic::error(
            "BMP203",
            "result",
            format!(
                "IPC {:.3} exceeds the machine's width cap {width_cap}; more \
                 instructions retired than the pipeline can carry",
                result.ipc()
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::PenaltyModel;
    use bmp_sim::Simulator;
    use bmp_trace::{BranchKind, MicroOp, Trace};
    use bmp_uarch::{presets, OpClass};

    /// A short loop trace with enough conditional branches to mispredict.
    fn loop_trace(iters: usize) -> Trace {
        let mut ops = Vec::new();
        for i in 0..iters {
            ops.push(MicroOp::alu(0x1000, OpClass::IntAlu, [None, None]));
            ops.push(MicroOp::load(
                0x1004,
                0x8000 + 8 * i as u64,
                [Some(1), None],
            ));
            ops.push(MicroOp::alu(0x1008, OpClass::IntMul, [Some(1), None]));
            ops.push(MicroOp::branch(
                0x100c,
                BranchKind::Conditional,
                i + 1 < iters,
                0x1000,
                [Some(1), None],
            ));
        }
        Trace::from_ops_unchecked(ops)
    }

    #[test]
    fn real_model_results_conserve() {
        let cfg = presets::baseline_4wide();
        let trace = loop_trace(300);

        let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
        assert!(lint_penalty_analysis(&analysis).is_empty());

        let stack = bmp_core::cpi::predict(&trace, &cfg);
        assert!(lint_cpi_stack(&stack).is_empty());

        let result = Simulator::new(cfg.clone()).run(&trace);
        assert!(lint_sim_result(&result, &cfg).is_empty());
    }

    #[test]
    fn non_conserving_cpi_stack_is_an_error() {
        // Deliberately broken: components cannot sum to the total because
        // one is negative (and the sum identity is checked via the
        // negative-component path plus the unnormalizable path below).
        let stack = CpiStack {
            instructions: 100,
            base_cycles: 50.0,
            branch_cycles: -10.0,
            icache_cycles: 0.0,
            long_dmiss_cycles: f64::NAN,
        };
        let diags = lint_cpi_stack(&stack);
        assert!(diags
            .iter()
            .any(|d| d.code == "BMP201" && d.locus == "cpi.branch_cycles"));
        assert!(diags
            .iter()
            .any(|d| d.code == "BMP201" && d.locus == "cpi.long_dmiss_cycles"));
        assert!(diags.iter().all(|d| d.severity == crate::Severity::Error));
    }

    /// A non-finite component breaks the sum identity too: the stack's
    /// own CPI is then not the sum of its component CPIs.
    #[test]
    fn a_nan_component_breaks_the_cpi_sum() {
        let stack = CpiStack {
            instructions: 100,
            base_cycles: 50.0,
            branch_cycles: 10.0,
            icache_cycles: f64::NAN,
            long_dmiss_cycles: 0.0,
        };
        let diags = lint_cpi_stack(&stack);
        assert!(
            diags.iter().any(|d| d.code == "BMP201"
                && d.locus == "cpi"
                && d.severity == crate::Severity::Error
                && d.message.contains("does not conserve cycles")),
            "{diags:?}"
        );
    }

    #[test]
    fn unnormalizable_cpi_stack_is_flagged() {
        let stack = CpiStack {
            instructions: 0,
            base_cycles: 25.0,
            branch_cycles: 0.0,
            icache_cycles: 0.0,
            long_dmiss_cycles: 0.0,
        };
        assert!(lint_cpi_stack(&stack)
            .iter()
            .any(|d| d.locus == "cpi.instructions" && d.severity == crate::Severity::Warn));
    }

    #[test]
    fn tampered_breakdown_is_an_error() {
        let cfg = presets::baseline_4wide();
        let mut analysis = PenaltyModel::new(cfg.clone()).analyze(&loop_trace(300));
        assert!(
            !analysis.breakdowns.is_empty(),
            "loop trace must mispredict"
        );

        // Deliberately break conservation: steal a cycle from ilp without
        // lowering local_resolution.
        analysis.breakdowns[0].ilp += 1;
        let diags = lint_penalty_analysis(&analysis);
        assert!(diags.iter().any(|d| d.code == "BMP202"
            && d.severity == crate::Severity::Error
            && d.message.contains("does not conserve")));
    }

    /// Each BMP202 clause fires on its own: one breakdown is broken in
    /// exactly one way (the other identities kept), and the finding
    /// must carry that clause's severity and message.
    #[test]
    fn each_bmp202_clause_fires_on_its_own() {
        use crate::Severity::{Error, Warn};
        let cfg = presets::baseline_4wide();
        let analysis = PenaltyModel::new(cfg).analyze(&loop_trace(300));
        assert!(lint_penalty_analysis(&analysis).is_empty());
        type Break = fn(&mut bmp_core::PenaltyBreakdown);
        let cases: [(Break, crate::Severity, &str); 4] = [
            (|b| b.carryover += 1, Error, "schedules disagree"),
            (
                |b| {
                    b.local_resolution -= b.base;
                    b.resolution -= b.base;
                    b.base = 0;
                },
                Warn,
                "resolution floor is missing",
            ),
            (
                |b| b.frontend += 1,
                Warn,
                "disagrees with the analysis-wide",
            ),
            (|b| b.interval_len = 0, Warn, "interval length is 0"),
        ];
        for (broken, severity, needle) in cases {
            let mut a = analysis.clone();
            broken(&mut a.breakdowns[0]);
            let diags = lint_penalty_analysis(&a);
            assert_eq!(diags.len(), 1, "{needle}: {diags:?}");
            assert_eq!(diags[0].code, "BMP202");
            assert_eq!(diags[0].severity, severity, "{needle}");
            assert!(diags[0].message.contains(needle), "{diags:?}");
        }
    }

    /// Past the cap, BMP202 reports the first findings and one summary
    /// line counting the rest.
    #[test]
    fn bmp202_findings_are_capped_with_a_summary() {
        // Every taken loop branch mispredicts under always-not-taken.
        let cfg = presets::baseline_4wide()
            .to_builder()
            .predictor(bmp_uarch::PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let mut analysis = PenaltyModel::new(cfg).analyze(&loop_trace(300));
        let extra = 3;
        assert!(analysis.breakdowns.len() >= MAX_BREAKDOWN_FINDINGS + extra);
        for b in &mut analysis.breakdowns[..MAX_BREAKDOWN_FINDINGS + extra] {
            b.ilp += 1;
        }
        let diags = lint_penalty_analysis(&analysis);
        assert_eq!(diags.len(), MAX_BREAKDOWN_FINDINGS + 1, "{diags:?}");
        let summary = diags.last().unwrap();
        assert_eq!(summary.severity, crate::Severity::Info);
        assert!(summary.message.contains(&format!("{extra} more BMP202")));
    }

    #[test]
    fn unsorted_breakdowns_are_an_error() {
        let cfg = presets::baseline_4wide();
        let mut analysis = PenaltyModel::new(cfg.clone()).analyze(&loop_trace(300));
        if analysis.breakdowns.len() >= 2 {
            analysis.breakdowns.swap(0, 1);
            assert!(lint_penalty_analysis(&analysis)
                .iter()
                .any(|d| d.message.contains("from_pairs")));
        }
    }

    #[test]
    fn tampered_sim_result_is_an_error() {
        let cfg = presets::baseline_4wide();
        let mut result = Simulator::new(cfg.clone()).run(&loop_trace(300));

        result.slots.used += 7;
        let diags = lint_sim_result(&result, &cfg);
        assert!(diags.iter().any(|d| d.locus == "result.slots"
            && d.severity == crate::Severity::Error
            && d.message.contains("leaked")));
    }

    #[test]
    fn truncated_rob_histogram_is_an_error() {
        let cfg = presets::baseline_4wide();
        let mut result = Simulator::new(cfg.clone()).run(&loop_trace(300));

        result.rob_occupancy.pop();
        let diags = lint_sim_result(&result, &cfg);
        assert!(diags
            .iter()
            .any(|d| d.locus == "result.rob_occupancy" && d.message.contains("buckets")));
    }

    #[test]
    fn disordered_mispredict_record_is_an_error() {
        let cfg = presets::baseline_4wide();
        let mut result = Simulator::new(cfg.clone()).run(&loop_trace(300));
        assert!(!result.mispredicts.is_empty(), "loop trace must mispredict");

        result.mispredicts[0].resolve_cycle = result.mispredicts[0].fetch_cycle;
        result.mispredicts[0].dispatch_cycle = result.mispredicts[0].fetch_cycle + 1;
        assert!(lint_sim_result(&result, &cfg)
            .iter()
            .any(|d| d.message.contains("cycle order violated")));
    }

    /// The baseline machine with an always-not-taken predictor, under
    /// which every taken loop branch mispredicts.
    fn always_not_taken() -> bmp_uarch::MachineConfig {
        presets::baseline_4wide()
            .to_builder()
            .predictor(bmp_uarch::PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap()
    }

    /// Each BMP203 clause fires on its own: the result is broken in
    /// exactly one way, and the one finding names that clause.
    #[test]
    fn each_bmp203_clause_fires_on_its_own() {
        let cfg = always_not_taken();
        let result = Simulator::new(cfg.clone()).run(&loop_trace(300));
        assert!(lint_sim_result(&result, &cfg).is_empty());
        assert!(result.mispredicts.len() >= 2, "loop trace must mispredict");
        type Break = fn(&mut SimResult);
        let cases: [(Break, &str, &str); 3] = [
            (
                |r| r.rob_occupancy[0] += 1,
                "result.rob_occupancy",
                "not recorded every cycle",
            ),
            (
                |r| r.mispredicts[1].branch_idx = r.mispredicts[0].branch_idx,
                "result.mispredicts[1]",
                "does not increase past",
            ),
            (
                |r| r.instructions = r.cycles * 64,
                "result",
                "exceeds the machine's width cap",
            ),
        ];
        for (broken, locus, needle) in cases {
            let mut r = result.clone();
            broken(&mut r);
            let diags = lint_sim_result(&r, &cfg);
            assert_eq!(diags.len(), 1, "{needle}: {diags:?}");
            assert_eq!(diags[0].code, "BMP203");
            assert_eq!(diags[0].severity, crate::Severity::Error, "{needle}");
            assert_eq!(diags[0].locus, locus, "{needle}");
            assert!(diags[0].message.contains(needle), "{diags:?}");
        }
    }

    /// Past the cap, BMP203 reports the first broken records and one
    /// summary line counting the rest.
    #[test]
    fn bmp203_record_findings_are_capped_with_a_summary() {
        let cfg = always_not_taken();
        let mut result = Simulator::new(cfg.clone()).run(&loop_trace(300));
        let extra = 3;
        assert!(result.mispredicts.len() >= MAX_BREAKDOWN_FINDINGS + extra);
        for m in &mut result.mispredicts[..MAX_BREAKDOWN_FINDINGS + extra] {
            m.resolve_cycle = m.fetch_cycle;
            m.dispatch_cycle = m.fetch_cycle + 1;
        }
        let diags = lint_sim_result(&result, &cfg);
        assert_eq!(diags.len(), MAX_BREAKDOWN_FINDINGS + 1, "{diags:?}");
        let summary = diags.last().unwrap();
        assert_eq!(summary.severity, crate::Severity::Info);
        assert!(summary.message.contains(&format!("{extra} more BMP203")));
    }
}
