//! `BMP5xx` — metrics-file consistency.
//!
//! With `BMP_METRICS=1`, `run_all` writes one observability document per
//! experiment under `results/metrics/` (schema: [`bmp_core::metrics`],
//! contract: `docs/OBSERVABILITY.md`). Future performance work measures
//! itself against these files, so they get the same static scrutiny as
//! configs and journals: the accounting identities that hold by
//! construction in the writer must still hold in the file a reader is
//! about to trust.
//!
//! * `BMP500` (error) — the document cannot be parsed or carries an
//!   unsupported `version`.
//! * `BMP501` (error) — the model's contributor identity is broken:
//!   `base + ilp + fu_latency + short_dmiss` must equal
//!   `local_resolution`, and `local_resolution + carryover` must equal
//!   `resolution`.
//! * `BMP502` (error) — branch-interval counts disagree with the
//!   mispredict count: the simulator's interval records hold exactly one
//!   branch interval per recorded mispredict, and when the measured
//!   epoch covers the whole trace (`instructions == ops`) the model
//!   analyzed exactly the simulator's mispredictions
//!   (`model.intervals == mispredicts`).
//! * `BMP503` (error) — a CPI stack with non-finite or negative
//!   components; (warn) — the model CPI deviates from the measured CPI
//!   by more than 50% (the interval model is first-order, but a gap
//!   that large means the stack and the measurement describe different
//!   machines).
//! * `BMP504` (error) — histogram shape: both histograms must have
//!   [`HISTOGRAM_BUCKETS`] buckets, the length histogram must sum to
//!   the total interval count, and the resolution histogram to the
//!   branch-interval count.
//! * `BMP505` (error) — refill conservation: every branch interval
//!   contributes exactly `frontend_depth` refill cycles, so
//!   `refill_total` must equal `bmiss × frontend_depth` (and the model's
//!   `refill` must equal `intervals × frontend_depth`).

use bmp_core::identities;
use bmp_core::intervals::HISTOGRAM_BUCKETS;
use bmp_core::metrics::{ExperimentMetrics, WorkloadMetrics, METRICS_VERSION};

use crate::diag::Diagnostic;

fn lint_workload(diags: &mut Vec<Diagnostic>, doc: &ExperimentMetrics, w: &WorkloadMetrics) {
    let locus = format!("{}/{}", doc.name, w.workload);

    if w.intervals.bmiss != w.mispredicts {
        diags.push(Diagnostic::error(
            "BMP502",
            &locus,
            format!(
                "{} branch intervals but {} mispredicts — the interval \
                 records hold exactly one branch interval per mispredict",
                w.intervals.bmiss, w.mispredicts
            ),
        ));
    }

    if w.length_histogram.len() != HISTOGRAM_BUCKETS
        || w.resolution_histogram.len() != HISTOGRAM_BUCKETS
    {
        diags.push(
            Diagnostic::error(
                "BMP504",
                &locus,
                format!(
                    "histograms must have {HISTOGRAM_BUCKETS} buckets, the last \
                     holding lengths of 512 and up (found {} length, {} resolution)",
                    w.length_histogram.len(),
                    w.resolution_histogram.len()
                ),
            )
            .with_suggestion(
                "documents with 11 buckets predate the overflow bucket's move to \
                 index 9; regenerate them with `BMP_METRICS=1 run_all`",
            ),
        );
    } else {
        let len_sum: u64 = w.length_histogram.iter().sum();
        if len_sum != w.intervals.total() {
            diags.push(Diagnostic::error(
                "BMP504",
                &locus,
                format!(
                    "length histogram sums to {len_sum} but {} intervals were \
                     recorded — every interval lands in exactly one bucket",
                    w.intervals.total()
                ),
            ));
        }
        let res_sum: u64 = w.resolution_histogram.iter().sum();
        if res_sum != w.intervals.bmiss {
            diags.push(Diagnostic::error(
                "BMP504",
                &locus,
                format!(
                    "resolution histogram sums to {res_sum} but {} branch \
                     intervals were recorded",
                    w.intervals.bmiss
                ),
            ));
        }
    }

    if !identities::refill_identity(w.intervals.bmiss, w.frontend_depth, w.refill_total) {
        diags.push(Diagnostic::error(
            "BMP505",
            &locus,
            format!(
                "refill_total {} != {} branch intervals × frontend depth {}",
                w.refill_total, w.intervals.bmiss, w.frontend_depth
            ),
        ));
    }

    let Some(m) = &w.model else { return };
    let model_locus = format!("{locus} (model)");

    if w.instructions == doc.ops && m.intervals != w.mispredicts {
        diags.push(Diagnostic::error(
            "BMP502",
            &model_locus,
            format!(
                "the model analyzed {} mispredicted branches but the simulator \
                 recorded {} over the same whole trace — both must decompose the \
                 same mispredictions",
                m.intervals, w.mispredicts
            ),
        ));
    }

    let contributors = m.base + m.ilp + m.fu_latency + m.short_dmiss;
    if !identities::knockout_sums_to_local(
        m.base,
        m.ilp,
        m.fu_latency,
        m.short_dmiss,
        m.local_resolution,
    ) {
        diags.push(Diagnostic::error(
            "BMP501",
            &model_locus,
            format!(
                "contributors sum to {contributors} but local_resolution is {} — \
                 base+ilp+fu_latency+short_dmiss must account for every \
                 isolated-schedule cycle",
                m.local_resolution
            ),
        ));
    }
    if !identities::carryover_reconciles(m.local_resolution, m.carryover, m.resolution) {
        diags.push(Diagnostic::error(
            "BMP501",
            &model_locus,
            format!(
                "local_resolution {} + carryover {} != resolution {} — the \
                 cross-interval carryover must close the gap exactly",
                m.local_resolution, m.carryover, m.resolution
            ),
        ));
    }
    if !identities::refill_identity(m.intervals, w.frontend_depth, m.refill) {
        diags.push(Diagnostic::error(
            "BMP505",
            &model_locus,
            format!(
                "model refill {} != {} intervals × frontend depth {}",
                m.refill, m.intervals, w.frontend_depth
            ),
        ));
    }

    let s = &m.cpi_stack;
    let components = [
        s.base_cycles,
        s.branch_cycles,
        s.icache_cycles,
        s.long_dmiss_cycles,
    ];
    if components.iter().any(|c| !c.is_finite() || *c < 0.0) {
        diags.push(Diagnostic::error(
            "BMP503",
            &model_locus,
            "CPI stack has non-finite or negative components",
        ));
    } else if w.cycles > 0 && w.instructions > 0 {
        let measured = w.cycles as f64 / w.instructions as f64;
        let model_cpi = s.cpi();
        if measured > 0.0 && ((model_cpi - measured) / measured).abs() > 0.5 {
            diags.push(
                Diagnostic::warn(
                    "BMP503",
                    &model_locus,
                    format!(
                        "model CPI {model_cpi:.3} deviates from measured CPI \
                         {measured:.3} by more than 50%"
                    ),
                )
                .with_suggestion(
                    "a first-order stack tracks the measurement loosely, but a gap \
                     this large usually means the stack was built for a different \
                     configuration or scale",
                ),
            );
        }
    }
}

/// Runs the `BMP50x` rules over a parsed metrics document.
pub fn lint_metrics(doc: &ExperimentMetrics) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for w in &doc.workloads {
        lint_workload(&mut diags, doc, w);
    }
    diags
}

/// Parses `text` as a metrics document and lints it; an unparseable
/// document is itself the finding (`BMP500`).
pub fn lint_metrics_text(text: &str) -> Vec<Diagnostic> {
    match ExperimentMetrics::parse(text) {
        Ok(doc) => lint_metrics(&doc),
        Err(e) => vec![Diagnostic::error(
            "BMP500",
            "metrics",
            format!("metrics document does not parse (version {METRICS_VERSION} expected): {e}"),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::accounting::records_from_analysis;
    use bmp_core::metrics::ModelMetrics;
    use bmp_core::PenaltyModel;
    use bmp_uarch::presets;
    use bmp_workloads::spec;

    fn healthy_doc() -> ExperimentMetrics {
        let trace = spec::by_name("gzip").unwrap().generate(5_000, 7);
        let cfg = presets::baseline_4wide();
        let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
        let stack = bmp_core::cpi::predict(&trace, &cfg);
        let records = records_from_analysis(&analysis);
        let mut doc = ExperimentMetrics::new("fig2_penalty", 5_000, 7);
        let mut w = WorkloadMetrics::from_records(
            "gzip",
            trace.len() as u64,
            0,
            analysis.frontend_depth,
            analysis.breakdowns.len() as u64,
            &records,
        );
        w.model = Some(ModelMetrics::from_analysis(&analysis, stack));
        doc.workloads.push(w);
        doc
    }

    #[test]
    fn a_healthy_document_is_clean() {
        let doc = healthy_doc();
        let diags = lint_metrics(&doc);
        assert!(diags.is_empty(), "{diags:?}");
        // And survives the writer round-trip just as clean.
        assert!(lint_metrics_text(&doc.to_json()).is_empty());
    }

    #[test]
    fn unparseable_text_is_bmp500() {
        let d = lint_metrics_text("{ nope");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "BMP500");
        let wrong = healthy_doc().to_json().replace(
            &format!("\"version\": {METRICS_VERSION}"),
            "\"version\": 99",
        );
        assert_eq!(lint_metrics_text(&wrong)[0].code, "BMP500");
    }

    #[test]
    fn broken_contributor_identity_is_bmp501() {
        let mut doc = healthy_doc();
        doc.workloads[0].model.as_mut().unwrap().ilp += 1;
        let codes: Vec<_> = lint_metrics(&doc).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"BMP501"), "{codes:?}");
    }

    #[test]
    fn broken_carryover_identity_is_bmp501() {
        let mut doc = healthy_doc();
        doc.workloads[0].model.as_mut().unwrap().carryover += 3;
        let codes: Vec<_> = lint_metrics(&doc).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"BMP501"), "{codes:?}");
    }

    #[test]
    fn mismatched_mispredicts_is_bmp502() {
        let mut doc = healthy_doc();
        doc.workloads[0].mispredicts += 5;
        let codes: Vec<_> = lint_metrics(&doc).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"BMP502"), "{codes:?}");
    }

    #[test]
    fn model_missing_a_mispredict_is_bmp502() {
        let mut doc = healthy_doc();
        let depth = u64::from(doc.workloads[0].frontend_depth);
        let model = doc.workloads[0].model.as_mut().unwrap();
        model.intervals -= 1;
        model.refill -= depth;
        let codes: Vec<_> = lint_metrics(&doc).iter().map(|d| d.code).collect();
        assert_eq!(codes, ["BMP502"]);
        // A warm-up epoch measures fewer branches than the model sees.
        doc.workloads[0].instructions -= 1_000;
        assert!(lint_metrics(&doc).is_empty());
    }

    #[test]
    fn histogram_drift_is_bmp504() {
        let mut doc = healthy_doc();
        doc.workloads[0].length_histogram[0] += 1;
        let codes: Vec<_> = lint_metrics(&doc).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"BMP504"), "{codes:?}");

        let mut short = healthy_doc();
        short.workloads[0].resolution_histogram.pop();
        let codes: Vec<_> = lint_metrics(&short).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"BMP504"), "{codes:?}");
    }

    #[test]
    fn refill_drift_is_bmp505() {
        let mut doc = healthy_doc();
        doc.workloads[0].refill_total += 1;
        let codes: Vec<_> = lint_metrics(&doc).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"BMP505"), "{codes:?}");

        let mut model = healthy_doc();
        model.workloads[0].model.as_mut().unwrap().refill += 1;
        let codes: Vec<_> = lint_metrics(&model).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"BMP505"), "{codes:?}");
    }

    #[test]
    fn wild_cpi_stack_deviation_is_a_bmp503_warning() {
        let mut doc = healthy_doc();
        // Give the workload a measured epoch wildly off the model.
        doc.workloads[0].instructions = 1_000;
        doc.workloads[0].cycles = 1_000_000;
        let diags = lint_metrics(&doc);
        let hit = diags.iter().find(|d| d.code == "BMP503").expect("BMP503");
        assert_eq!(hit.severity, crate::Severity::Warn);
    }

    #[test]
    fn non_finite_stack_is_a_bmp503_error() {
        let mut doc = healthy_doc();
        doc.workloads[0]
            .model
            .as_mut()
            .unwrap()
            .cpi_stack
            .base_cycles = f64::NAN;
        let diags = lint_metrics(&doc);
        let hit = diags.iter().find(|d| d.code == "BMP503").expect("BMP503");
        assert_eq!(hit.severity, crate::Severity::Error);
    }
}
