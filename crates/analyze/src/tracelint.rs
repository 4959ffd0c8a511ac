//! Trace well-formedness lints (`BMP1xx`).
//!
//! A trace drives both the simulator and the interval model; these rules
//! check the preconditions those consumers assume but (deliberately) do
//! not enforce on their hot paths: dependences that stay inside the
//! trace, taken branches whose targets the trace actually fetches, and
//! control flow that follows the recorded branch outcomes. Acyclicity
//! needs no rule: the distance encoding (always backward, 0 = none)
//! cannot express a cycle.

use std::collections::HashSet;

use bmp_trace::Trace;

use crate::diag::Diagnostic;

/// Cap on repeated findings per rule; beyond it one summary line is
/// emitted instead of drowning the report.
pub(crate) const MAX_PER_CODE: usize = 8;

/// Pushes `d` unless `count` already reached [`MAX_PER_CODE`];
/// returns the new count.
pub(crate) fn push_capped(out: &mut Vec<Diagnostic>, count: usize, d: Diagnostic) -> usize {
    if count < MAX_PER_CODE {
        out.push(d);
    }
    count + 1
}

/// Appends the "... and N more" summary for a rule that overflowed.
pub(crate) fn summarize_overflow(out: &mut Vec<Diagnostic>, code: &'static str, count: usize) {
    if count > MAX_PER_CODE {
        out.push(Diagnostic::info(
            code,
            "trace",
            format!("... and {} more {code} finding(s)", count - MAX_PER_CODE),
        ));
    }
}

/// Runs every trace rule over `trace`.
pub fn lint_trace(trace: &Trace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ops = trace.ops();

    // PC set for the target-reachability rule.
    let pcs: HashSet<u64> = ops.iter().map(|o| o.pc()).collect();

    let (mut dangling, mut discont, mut orphan) = (0usize, 0usize, 0usize);
    for (i, op) in ops.iter().enumerate() {
        // BMP102: a dependence reaching before the start of the trace.
        // Legal for windowed slices built with `from_ops_unchecked` (the
        // DAG scheduler treats out-of-slice producers as ready), but a
        // whole-program trace should be self-contained.
        for d in op.src_distances() {
            if d as usize > i {
                dangling = push_capped(
                    &mut out,
                    dangling,
                    Diagnostic::warn(
                        "BMP102",
                        format!("trace[{i}]"),
                        format!(
                            "dependence distance {d} reaches before the trace \
                             (op index {i}); the producer is outside the trace"
                        ),
                    )
                    .with_suggestion(
                        "expected only for windowed slices; build whole traces \
                         with TraceBuilder::push, which rejects this",
                    ),
                );
            }
        }

        // BMP105: control-flow continuity — the recorded outcome of op i
        // must lead to op i+1.
        if i + 1 < ops.len() && op.next_pc() != ops[i + 1].pc() {
            discont = push_capped(
                &mut out,
                discont,
                Diagnostic::warn(
                    "BMP105",
                    format!("trace[{i}]"),
                    format!(
                        "control-flow break: op at pc {:#x} leads to {:#x} but the \
                         next op is at pc {:#x}",
                        op.pc(),
                        op.next_pc(),
                        ops[i + 1].pc()
                    ),
                ),
            );
        }

        // BMP103: a taken branch whose target is never fetched anywhere
        // in the trace. The final op legitimately jumps "out".
        if i + 1 < ops.len() {
            if let Some(b) = op.branch_info() {
                if b.taken && !pcs.contains(&b.target) {
                    orphan = push_capped(
                        &mut out,
                        orphan,
                        Diagnostic::warn(
                            "BMP103",
                            format!("trace[{i}]"),
                            format!(
                                "taken branch targets {:#x}, an address never \
                                 fetched in this trace",
                                b.target
                            ),
                        ),
                    );
                }
            }
        }
    }
    summarize_overflow(&mut out, "BMP102", dangling);
    summarize_overflow(&mut out, "BMP105", discont);
    summarize_overflow(&mut out, "BMP103", orphan);

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_trace::{BranchKind, MicroOp, Trace};
    use bmp_uarch::OpClass;

    fn straight_line(n: usize) -> Trace {
        (0..n)
            .map(|i| MicroOp::alu(0x1000 + 4 * i as u64, OpClass::IntAlu, [None, None]))
            .collect()
    }

    #[test]
    fn straight_line_trace_is_clean() {
        assert!(lint_trace(&straight_line(64)).is_empty());
    }

    #[test]
    fn dangling_dependence_is_flagged() {
        let ops = vec![MicroOp::alu(0x1000, OpClass::IntAlu, [Some(3), None])];
        let diags = lint_trace(&Trace::from_ops_unchecked(ops));
        assert!(diags
            .iter()
            .any(|d| d.code == "BMP102" && d.locus == "trace[0]"));
    }

    #[test]
    fn control_flow_break_is_flagged() {
        let ops = vec![
            MicroOp::alu(0x1000, OpClass::IntAlu, [None, None]),
            MicroOp::alu(0x2000, OpClass::IntAlu, [None, None]),
        ];
        let diags = lint_trace(&Trace::from_ops_unchecked(ops));
        assert!(diags.iter().any(|d| d.code == "BMP105"));
    }

    #[test]
    fn orphan_branch_target_is_flagged() {
        // A taken branch to 0x9000 followed (inconsistently) by 0x9000's
        // absence: the next op sits at the target, so use a mid-trace
        // branch whose target appears nowhere.
        let ops = vec![
            MicroOp::branch(0x1000, BranchKind::Jump, true, 0x9000, [None, None]),
            MicroOp::alu(0x1004, OpClass::IntAlu, [None, None]),
        ];
        let diags = lint_trace(&Trace::from_ops_unchecked(ops));
        assert!(diags.iter().any(|d| d.code == "BMP103"));
        // The same break also trips continuity.
        assert!(diags.iter().any(|d| d.code == "BMP105"));
    }

    #[test]
    fn repeated_findings_are_capped() {
        let ops: Vec<MicroOp> = (0..40)
            .map(|i| MicroOp::alu(0x1000 * (i + 1) as u64, OpClass::IntAlu, [None, None]))
            .collect();
        let diags = lint_trace(&Trace::from_ops_unchecked(ops));
        let bmp105 = diags.iter().filter(|d| d.code == "BMP105").count();
        // 8 individual findings plus one summary line.
        assert_eq!(bmp105, MAX_PER_CODE + 1);
        assert!(diags
            .iter()
            .any(|d| d.code == "BMP105" && d.message.contains("more BMP105")));
    }
}
