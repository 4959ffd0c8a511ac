//! Rendered analysis reports.
//!
//! Turns a [`PenaltyAnalysis`] (plus optional measured values from a
//! simulator run) into a human-readable markdown report — the programmatic
//! equivalent of the `mispredict` CLI's output, for embedding in logs,
//! CI summaries or notebooks.

use std::fmt::Write as _;

use crate::cpi::CpiStack;
use crate::intervals::{bucket_label, IntervalLengthHistogram};
use crate::penalty::PenaltyAnalysis;

/// Measured counterpart values to place next to the model's, when a
/// simulator run of the same trace/machine is available.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeasuredSummary {
    /// Measured cycles per instruction.
    pub cpi: f64,
    /// Measured mean penalty per misprediction.
    pub mean_penalty: Option<f64>,
    /// Measured misprediction count.
    pub mispredictions: u64,
}

/// Renders a markdown report for `analysis`, optionally comparing against
/// a `measured` simulator summary and including a CPI `stack`.
///
/// # Examples
///
/// ```
/// use bmp_core::{report, PenaltyModel};
/// use bmp_uarch::presets;
/// use bmp_workloads::spec;
///
/// let trace = spec::by_name("twolf").unwrap().generate(10_000, 1);
/// let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&trace);
/// let md = report::render("twolf", &analysis, None, None);
/// assert!(md.contains("# Misprediction-penalty report: twolf"));
/// assert!(md.contains("contributor"));
/// ```
pub fn render(
    label: &str,
    analysis: &PenaltyAnalysis,
    stack: Option<&CpiStack>,
    measured: Option<&MeasuredSummary>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Misprediction-penalty report: {label}\n");
    let _ = writeln!(
        out,
        "- instructions analyzed: **{}**",
        analysis.instructions
    );
    let _ = writeln!(
        out,
        "- mispredictions (model): **{}** ({:.2} MPKI)",
        analysis.breakdowns.len(),
        analysis.mispredict_mpki()
    );
    if let Some(m) = measured {
        let _ = writeln!(out, "- mispredictions (measured): **{}**", m.mispredictions);
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Penalty\n");
    match analysis.mean_penalty() {
        Some(p) => {
            let _ = writeln!(
                out,
                "| quantity | model{} |",
                if measured.is_some() {
                    " | measured"
                } else {
                    ""
                }
            );
            let _ = writeln!(
                out,
                "|---|---{}|",
                if measured.is_some() { "|---" } else { "" }
            );
            let meas_pen = measured
                .and_then(|m| m.mean_penalty)
                .map(|v| format!(" | {v:.1}"))
                .unwrap_or_else(|| {
                    if measured.is_some() {
                        " | -".to_owned()
                    } else {
                        String::new()
                    }
                });
            let _ = writeln!(out, "| mean penalty (cycles) | {p:.1}{meas_pen} |");
            let _ = writeln!(
                out,
                "| frontend depth (cycles) | {}{} |",
                analysis.frontend_depth,
                if measured.is_some() { " | —" } else { "" }
            );
        }
        None => {
            let _ = writeln!(out, "No mispredictions in this run.");
        }
    }
    let _ = writeln!(out);

    if let Some((base, ilp, fu, dmiss)) = analysis.mean_contributions() {
        let n = analysis.breakdowns.len() as f64;
        let carry: f64 = analysis
            .breakdowns
            .iter()
            .map(|b| b.carryover as f64)
            .sum::<f64>()
            / n;
        let _ = writeln!(out, "## Mean contributor shares (cycles)\n");
        let _ = writeln!(out, "| contributor | share |");
        let _ = writeln!(out, "|---|---|");
        let _ = writeln!(
            out,
            "| (i) frontend refill | {:.1} |",
            analysis.frontend_depth
        );
        let _ = writeln!(out, "| branch execution | {base:.1} |");
        let _ = writeln!(out, "| (iii) inherent ILP | {ilp:.1} |");
        let _ = writeln!(out, "| (iv) FU latencies | {fu:.1} |");
        let _ = writeln!(out, "| (v) short D-misses | {dmiss:.1} |");
        let _ = writeln!(out, "| (ii) window state (carryover) | {carry:.1} |");
        let _ = writeln!(out);
    }

    if let Some(stack) = stack {
        let (b, br, ic, dm) = stack.components();
        let _ = writeln!(out, "## CPI stack (model)\n");
        let _ = writeln!(out, "| component | CPI |");
        let _ = writeln!(out, "|---|---|");
        let _ = writeln!(out, "| base | {b:.3} |");
        let _ = writeln!(out, "| branch | {br:.3} |");
        let _ = writeln!(out, "| I-cache | {ic:.3} |");
        let _ = writeln!(out, "| long D-miss | {dm:.3} |");
        let _ = writeln!(out, "| **total** | **{:.3}** |", stack.cpi());
        if let Some(m) = measured {
            let _ = writeln!(out, "| measured | {:.3} |", m.cpi);
        }
        let _ = writeln!(out);
    }

    let curve = analysis.local_resolution_by_interval_length();
    if !curve.is_empty() {
        let _ = writeln!(out, "## Resolution vs. interval length (window ramp-up)\n");
        let _ = writeln!(out, "| interval ≥ | mean resolution | events |");
        let _ = writeln!(out, "|---|---|---|");
        for (bucket, mean, n) in curve {
            let _ = writeln!(out, "| {} | {mean:.1} | {n} |", bucket_label(bucket));
        }
        let _ = writeln!(out);
    }

    let hist = IntervalLengthHistogram::from_intervals(&analysis.intervals);
    if hist.total() > 0 {
        let _ = writeln!(out, "## Inter-miss interval lengths\n");
        let _ = writeln!(out, "| bucket ≥ | fraction |");
        let _ = writeln!(out, "|---|---|");
        for i in (0..hist.buckets()).filter(|&i| hist.count(i) > 0) {
            let _ = writeln!(out, "| {} | {:.3} |", bucket_label(i), hist.fraction(i));
        }
        let _ = writeln!(out);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpi;
    use crate::penalty::PenaltyModel;
    use bmp_uarch::presets;
    use bmp_workloads::spec;

    fn sample() -> (bmp_trace::Trace, PenaltyAnalysis) {
        let trace = spec::by_name("twolf").expect("known").generate(10_000, 3);
        let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&trace);
        (trace, analysis)
    }

    #[test]
    fn full_report_has_all_sections() {
        let (trace, analysis) = sample();
        let stack = cpi::predict(&trace, &presets::baseline_4wide());
        let measured = MeasuredSummary {
            cpi: 2.0,
            mean_penalty: Some(20.0),
            mispredictions: 123,
        };
        let md = render("twolf", &analysis, Some(&stack), Some(&measured));
        for section in [
            "# Misprediction-penalty report: twolf",
            "## Penalty",
            "## Mean contributor shares",
            "## CPI stack",
            "## Resolution vs. interval length",
            "## Inter-miss interval lengths",
            "| measured | 2.000 |",
            "mispredictions (measured): **123**",
        ] {
            assert!(md.contains(section), "missing {section:?} in:\n{md}");
        }
    }

    #[test]
    fn empty_analysis_renders_gracefully() {
        let analysis =
            PenaltyModel::new(presets::baseline_4wide()).analyze(&bmp_trace::Trace::new());
        let md = render("empty", &analysis, None, None);
        assert!(md.contains("No mispredictions"));
    }
}
