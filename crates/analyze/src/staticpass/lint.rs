//! The BMP6xx rule family: cross-checking simulator outputs against
//! statically proven bounds.
//!
//! Every other lint family in this crate checks *internal* consistency
//! of one artifact. BMP6xx is different: it recomputes, from nothing
//! but the workload recipe and the machine configuration, hard bounds
//! on the five penalty contributors (see
//! [`super::bounds`] and `docs/STATIC_ANALYSIS.md`), then demands that
//! simulated results — metrics documents under `results/metrics/` and
//! the published CSV tables under `results/` — fall inside them. A
//! simulated contributor total outside its proven bound is a hard
//! error: either the simulator, the model, or the static pass is
//! wrong, and all three claim to describe the same machine.
//!
//! | code   | severity | meaning                                         |
//! |--------|----------|-------------------------------------------------|
//! | BMP601 | error    | model contributor total differs from the static recomputation (must be cycle-exact) |
//! | BMP602 | error    | model resolution/carryover total outside the proven envelope |
//! | BMP603 | error    | simulator resolution/refill totals violate the envelope or the refill identity |
//! | BMP604 | info     | workload/config not statically reproducible — bounds not checked |
//! | BMP605 | error    | published CSV value violates a static identity or bound |
//! | BMP606 | error    | input not parseable in the documented shape     |
//! | BMP700 | error    | unknown branch-class or predictor label         |
//! | BMP701 | error    | per-class attribution violates an exact integer identity |
//!
//! Workloads recorded under a non-baseline predictor (the metrics v2
//! `predictor` field) are checked against bounds recomputed for *that*
//! predictor when the name is one of the registered generations
//! ([`bmp_uarch::presets::generation_machine`]); any other name is
//! visibly skipped via BMP604. The BMP70x rules check the v2 per-class
//! penalty attribution (`branch_classes` and the
//! `ex_h2p_contributors.csv` table): class labels must come from the
//! classifier's closed set, and the per-class cycle columns are exact
//! integers, so their additive identities are checked with zero
//! tolerance.
//!
//! CSV checks are keyed on the exact header line: a table whose header
//! matches no registered experiment is not checked ([`csv_checked`]),
//! and `bmp-lint --static` names every such table, so renaming a column
//! of a checked table shows up as a newly unchecked one. All CSV checks are scale-free: they hold at any
//! `BMP_OPS`/`BMP_SEED`, because they are identities and bounds, not
//! golden values.

use std::cell::OnceCell;

use bmp_core::metrics::{ExperimentMetrics, WorkloadMetrics};
use bmp_uarch::{presets, MachineConfig};
use bmp_workloads::spec;

use super::bounds::{self, StaticBounds};
use super::classify::BranchClass;
use crate::diag::{AnalysisReport, Diagnostic};

/// The classifier's closed label set; anything else in a `class` column
/// or `branch_classes` entry is a BMP700.
const CLASS_LABELS: [BranchClass; 5] = [
    BranchClass::Biased,
    BranchClass::Patterned,
    BranchClass::Mixed,
    BranchClass::HardToPredict,
    BranchClass::Indirect,
];

fn known_class_label(label: &str) -> bool {
    CLASS_LABELS.iter().any(|c| c.label() == label)
}

/// Tolerance for a single CSV value printed with two decimals.
const EPS_VAL: f64 = 0.011;
/// Tolerance for a sum of up to seven two-decimal CSV values.
const EPS_SUM: f64 = 0.051;
/// Slack for one-sided (`>=`) bound checks on two-decimal values.
const EPS_GE: f64 = 0.006;

/// The machine a metrics entry was recorded under: the baseline preset
/// (v1 documents leave `predictor` empty; the baseline's own name is
/// also accepted), or the baseline with a registered generation
/// predictor swapped in. `None` for any other predictor name, which is
/// outside the static pass's vocabulary.
fn recorded_machine(w: &WorkloadMetrics) -> Option<MachineConfig> {
    let cfg = presets::baseline_4wide();
    if w.predictor.is_empty() || w.predictor == cfg.predictor.name() {
        Some(cfg)
    } else {
        presets::generation_machine(&w.predictor)
    }
}

/// The static bounds of every entry of one metrics document, each
/// computed at most once, on first request, under the machine the entry
/// was recorded with: the baseline preset, or the baseline with the
/// entry's registered generation predictor.
///
/// [`lint_metrics`] and the bound tables of `bmp-lint --static` read
/// the same cache, so a document costs one static pass per entry.
#[derive(Debug)]
pub struct DocBounds<'a> {
    doc: &'a ExperimentMetrics,
    cells: Vec<OnceCell<Option<StaticBounds>>>,
}

impl<'a> DocBounds<'a> {
    /// An empty cache over `doc`'s entries.
    pub fn new(doc: &'a ExperimentMetrics) -> Self {
        Self {
            doc,
            cells: doc.workloads.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// The bounds of `doc.workloads[i]`, recomputed from the workload
    /// recipe: a statistical profile from the registry or an executed
    /// RV32IM kernel from the `bmp-isa` suite, at the document's `ops`
    /// and `seed`. `None` when the entry's predictor is not registered
    /// or its workload is neither.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> Option<&StaticBounds> {
        self.cells[i]
            .get_or_init(|| {
                let w = &self.doc.workloads[i];
                let cfg = recorded_machine(w)?;
                let (ops, seed) = (self.doc.ops as usize, self.doc.seed);
                let trace = match spec::by_name(&w.workload) {
                    Some(profile) => profile.generate(ops, seed),
                    None => bmp_isa::kernel_trace(&w.workload, ops, seed)?,
                };
                Some(bounds::compute(&cfg, &trace))
            })
            .as_ref()
    }
}

/// Lints one metrics document (the JSON written under
/// `results/metrics/`) against statically proven bounds.
///
/// `locus` is the path shown in diagnostics. Parses the document and
/// runs [`lint_metrics`] with a fresh [`DocBounds`].
pub fn lint_metrics_doc(locus: &str, content: &str) -> AnalysisReport {
    match ExperimentMetrics::parse(content) {
        Ok(doc) => lint_metrics(locus, &DocBounds::new(&doc)),
        Err(e) => {
            let mut report = AnalysisReport::default();
            report.diagnostics.push(Diagnostic::error(
                "BMP606",
                locus,
                format!("not a parseable metrics document: {e}"),
            ));
            report
        }
    }
}

/// Lints the parsed metrics document behind `bounds` against
/// statically proven bounds, reading each entry's bounds from it.
///
/// Each entry is checked under the machine it was recorded with (see
/// [`DocBounds`]); entries recorded under an unregistered predictor, or
/// with a frontend depth other than that machine's, are visibly skipped
/// via BMP604 rather than checked against the wrong envelope.
pub fn lint_metrics(locus: &str, bounds: &DocBounds) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let doc = bounds.doc;
    for (i, w) in doc.workloads.iter().enumerate() {
        let locus = if w.predictor.is_empty() {
            format!("{locus}: workload {}", w.workload)
        } else {
            format!("{locus}: workload {}[{}]", w.workload, w.predictor)
        };
        lint_class_attribution(&mut report, &locus, w);
        // Simulator side: the refill identity is internal to the
        // document (count × recorded depth) and always checked.
        let n = w.intervals.bmiss;
        if w.refill_total != n * u64::from(w.frontend_depth) {
            report.diagnostics.push(Diagnostic::error(
                "BMP603",
                &locus,
                format!(
                    "sim refill total {} != {} branch intervals × frontend depth {}",
                    w.refill_total, n, w.frontend_depth
                ),
            ));
        }
        let Some(wcfg) = recorded_machine(w) else {
            report.diagnostics.push(
                Diagnostic::info(
                    "BMP604",
                    &locus,
                    format!(
                        "recorded predictor {:?} is neither the baseline nor a \
                         registered generation — static bounds not checked",
                        w.predictor
                    ),
                )
                .with_suggestion("register the predictor in bmp_uarch::presets::GENERATIONS"),
            );
            continue;
        };
        // The resolution envelope is per-machine; only apply it when
        // the recorded depth matches the reconstructed machine's.
        if w.frontend_depth == wcfg.frontend_depth {
            let (per_lo, per_hi) = bounds::per_branch_resolution_bounds(&wcfg);
            let (lo, hi) = (n * per_lo, n * per_hi);
            if w.resolution_total < lo || w.resolution_total > hi {
                report.diagnostics.push(Diagnostic::error(
                    "BMP603",
                    &locus,
                    format!(
                        "sim resolution total {} outside proven envelope \
                         [{lo}, {hi}] for {n} branch intervals",
                        w.resolution_total
                    ),
                ));
            }
        } else {
            report.diagnostics.push(
                Diagnostic::info(
                    "BMP604",
                    &locus,
                    format!(
                        "recorded frontend depth {} differs from the baseline \
                         preset ({}) — sim resolution envelope not checked",
                        w.frontend_depth, wcfg.frontend_depth
                    ),
                )
                .with_suggestion("non-baseline runs are outside the metrics contract"),
            );
        }
        // Model side: regenerate the trace and demand cycle-exact
        // agreement on the local contributors, envelopes on the rest.
        let Some(m) = &w.model else { continue };
        match bounds.get(i) {
            None => report.diagnostics.push(
                Diagnostic::info(
                    "BMP604",
                    &locus,
                    format!(
                        "workload {:?} is not in the registry — model totals \
                         not statically checked",
                        w.workload
                    ),
                )
                .with_suggestion("register the workload in bmp-workloads::spec"),
            ),
            Some(b) => {
                for msg in b.check_model_exact(m) {
                    report
                        .diagnostics
                        .push(Diagnostic::error("BMP601", &locus, msg));
                }
                if m.intervals == b.intervals {
                    for msg in b.check_model_envelope(m) {
                        report
                            .diagnostics
                            .push(Diagnostic::error("BMP602", &locus, msg));
                    }
                }
            }
        }
    }
    report
}

/// BMP70x checks on one workload entry's per-class penalty attribution
/// (metrics v2 `branch_classes`): labels from the classifier's closed
/// set, the per-class refill identity, and — when a model section is
/// present — exact agreement between the class totals and the model's
/// interval/local-resolution/refill totals.
fn lint_class_attribution(report: &mut AnalysisReport, locus: &str, w: &WorkloadMetrics) {
    if w.branch_classes.is_empty() {
        return;
    }
    let mut seen: Vec<&str> = Vec::new();
    for c in &w.branch_classes {
        if !known_class_label(&c.class) {
            report.diagnostics.push(Diagnostic::error(
                "BMP700",
                locus,
                format!("unknown branch class label {:?}", c.class),
            ));
        }
        if seen.contains(&c.class.as_str()) {
            report.diagnostics.push(Diagnostic::error(
                "BMP701",
                locus,
                format!("branch class {:?} attributed twice", c.class),
            ));
        }
        seen.push(&c.class);
        let want = c.intervals * u64::from(w.frontend_depth);
        if c.refill != want {
            report.diagnostics.push(Diagnostic::error(
                "BMP701",
                locus,
                format!(
                    "class {:?} refill {} != {} intervals × frontend depth {}",
                    c.class, c.refill, c.intervals, w.frontend_depth
                ),
            ));
        }
    }
    let Some(m) = &w.model else { return };
    for (name, got, want) in [
        (
            "intervals",
            w.branch_classes.iter().map(|c| c.intervals).sum::<u64>(),
            m.intervals,
        ),
        (
            "local resolution",
            w.branch_classes
                .iter()
                .map(|c| c.local_resolution)
                .sum::<u64>(),
            m.local_resolution,
        ),
        (
            "refill",
            w.branch_classes.iter().map(|c| c.refill).sum::<u64>(),
            m.refill,
        ),
    ] {
        if got != want {
            report.diagnostics.push(Diagnostic::error(
                "BMP701",
                locus,
                format!(
                    "class attribution {name} total {got} != model {name} total \
                     {want} (the attribution must partition the model exactly)"
                ),
            ));
        }
    }
}

/// The CSV experiments with registered static checks, keyed by their
/// exact header line.
enum CsvChecks {
    /// `fig2_penalty_per_benchmark.csv`.
    Fig2,
    /// `fig3_penalty_vs_interval.csv`.
    Fig3,
    /// `fig5_contributor_breakdown.csv`.
    Fig5,
    /// `fig6_pipeline_depth.csv`.
    Fig6,
    /// `fig7_fu_latency.csv`.
    Fig7,
    /// `fig8_ilp.csv`.
    Fig8,
    /// `fig9_l1d_misses.csv`.
    Fig9,
    /// `fig10_model_validation.csv`.
    Fig10,
    /// `ex2_window_sweep.csv`.
    Ex2,
    /// `ex3_closed_form.csv`.
    Ex3,
    /// `ex_predictor_generations.csv`.
    ExGenerations,
    /// `ex_h2p_contributors.csv`.
    ExH2p,
}

impl CsvChecks {
    fn from_header(header: &str) -> Option<(Self, usize)> {
        Some(match header {
            "benchmark,measured-penalty,two-run-penalty,model-penalty,frontend-depth,measured-resolution" => (Self::Fig2, 6),
            "benchmark,interval-bucket-lo,n-measured,measured-resolution,model-local-resolution,model-effective-resolution" => (Self::Fig3, 6),
            "benchmark,frontend(i),base,ilp(iii),fu-latency(iv),short-dmiss(v),carryover(ii),total-penalty" => (Self::Fig5, 8),
            "benchmark,frontend-depth,measured-penalty,measured-resolution,model-penalty,IPC" => (Self::Fig6, 6),
            "workload,latency-scale,measured-resolution,model-resolution,model-fu-share(iv)" => (Self::Fig7, 5),
            "chain-length,measured-resolution,model-resolution,model-ilp-share(iii)" => (Self::Fig8, 4),
            "l1d-size-KiB,l1d-miss-rate,measured-resolution,model-resolution,model-short-dmiss-share(v)" => (Self::Fig9, 5),
            "benchmark,events-agree,sim-resolution,model-resolution,resolution-err,correlation,sim-CPI,stack-CPI,sched-CPI" => (Self::Fig10, 9),
            "benchmark,window,rob,measured-resolution,model-resolution,IPC" => (Self::Ex2, 6),
            "benchmark,sim-effective,model-effective,model-local,closed-form,closed-form-err-vs-local" => (Self::Ex3, 6),
            "benchmark,predictor,br-miss-rate,br-MPKI,mean-penalty,mean-base,mean-ilp,mean-fu,mean-dmiss,IPC" => (Self::ExGenerations, 10),
            "benchmark,class,sites,intervals,base,ilp,fu,dmiss,local,refill,total" => (Self::ExH2p, 11),
            _ => return None,
        })
    }
}

/// One CSV row under scrutiny; accumulates diagnostics for its line.
struct Row<'a> {
    locus: String,
    cells: &'a [&'a str],
    diags: &'a mut Vec<Diagnostic>,
}

impl Row<'_> {
    /// Numeric value of column `i`, or `None` with a BMP606 emitted.
    fn num(&mut self, i: usize) -> Option<f64> {
        match self.cells[i].trim().parse::<f64>() {
            Ok(v) if v.is_finite() => Some(v),
            _ => {
                self.diags.push(Diagnostic::error(
                    "BMP606",
                    &self.locus,
                    format!(
                        "column {} is not a finite number: {:?}",
                        i + 1,
                        self.cells[i]
                    ),
                ));
                None
            }
        }
    }

    /// Integer value of column `i` (the exact-identity columns of the
    /// per-class table), or `None` with a BMP606 emitted.
    fn int(&mut self, i: usize) -> Option<u64> {
        match self.cells[i].trim().parse::<u64>() {
            Ok(v) => Some(v),
            _ => {
                self.diags.push(Diagnostic::error(
                    "BMP606",
                    &self.locus,
                    format!(
                        "column {} is not a non-negative integer: {:?}",
                        i + 1,
                        self.cells[i]
                    ),
                ));
                None
            }
        }
    }

    fn violation(&mut self, message: String) {
        self.diags
            .push(Diagnostic::error("BMP605", &self.locus, message));
    }

    fn push(&mut self, code: &'static str, message: String) {
        self.diags
            .push(Diagnostic::error(code, &self.locus, message));
    }

    /// `value >= bound - EPS_GE`, else a BMP605 naming the rule.
    fn check_ge(&mut self, name: &str, value: f64, bound: f64, rule: &str) {
        if value < bound - EPS_GE {
            self.violation(format!(
                "{name} = {value} violates {name} >= {bound} ({rule})"
            ));
        }
    }

    /// `value` within `[lo, hi]` (small slack), else a BMP605.
    fn check_range(&mut self, name: &str, value: f64, lo: f64, hi: f64) {
        if value < lo - 1e-3 || value > hi + 1e-3 {
            self.violation(format!("{name} = {value} outside [{lo}, {hi}]"));
        }
    }

    /// `|got - want| <= eps`, else a BMP605 naming the identity.
    fn check_eq(&mut self, got: f64, want: f64, eps: f64, rule: &str) {
        if (got - want).abs() > eps {
            self.violation(format!(
                "{rule}: got {got}, expected {want} (tolerance {eps})"
            ));
        }
    }
}

/// Mean per-branch resolution lower bound: dispatch-to-issue plus
/// issue-to-done is at least one cycle each (`docs/STATIC_ANALYSIS.md`).
const MIN_RESOLUTION: f64 = 2.0;

fn check_row(kind: &CsvChecks, row: &mut Row<'_>) -> Option<()> {
    match kind {
        CsvChecks::Fig2 => {
            let mp = row.num(1)?;
            let model = row.num(3)?;
            let depth = row.num(4)?;
            let mr = row.num(5)?;
            row.check_eq(
                mp - mr,
                depth,
                EPS_VAL,
                "measured penalty − resolution == frontend depth",
            );
            row.check_ge("measured-resolution", mr, MIN_RESOLUTION, "r >= 2");
            row.check_ge(
                "model-penalty",
                model,
                depth + MIN_RESOLUTION,
                "penalty >= depth + 2",
            );
        }
        CsvChecks::Fig6 => {
            let depth = row.num(1)?;
            let mp = row.num(2)?;
            let mr = row.num(3)?;
            let model = row.num(4)?;
            let ipc = row.num(5)?;
            row.check_eq(
                mp - mr,
                depth,
                EPS_VAL,
                "measured penalty − resolution == frontend depth",
            );
            row.check_ge("measured-resolution", mr, MIN_RESOLUTION, "r >= 2");
            row.check_ge(
                "model-penalty",
                model,
                depth + MIN_RESOLUTION,
                "penalty >= depth + 2",
            );
            row.check_range("IPC", ipc, 1e-6, f64::INFINITY);
        }
        CsvChecks::Fig5 => {
            let fe = row.num(1)?;
            let base = row.num(2)?;
            let ilp = row.num(3)?;
            let fu = row.num(4)?;
            let sd = row.num(5)?;
            let co = row.num(6)?;
            let total = row.num(7)?;
            row.check_eq(base, 2.0, EPS_VAL, "mean base contribution == 2 cycles");
            row.check_ge("frontend(i)", fe, 1.0, "refill >= 1");
            row.check_ge("ilp(iii)", ilp, 0.0, "knock-out terms are non-negative");
            row.check_ge(
                "fu-latency(iv)",
                fu,
                0.0,
                "knock-out terms are non-negative",
            );
            row.check_ge(
                "short-dmiss(v)",
                sd,
                0.0,
                "knock-out terms are non-negative",
            );
            row.check_eq(
                fe + base + ilp + fu + sd + co,
                total,
                EPS_SUM,
                "contributors sum to total penalty",
            );
            if total < fe + MIN_RESOLUTION - EPS_SUM {
                row.violation(format!(
                    "total-penalty = {total} below frontend + 2 = {}",
                    fe + MIN_RESOLUTION
                ));
            }
        }
        CsvChecks::Fig10 => {
            let agree = row.num(1)?;
            let sim_r = row.num(2)?;
            let model_r = row.num(3)?;
            let corr = row.num(5)?;
            let sim_cpi = row.num(6)?;
            let stack_cpi = row.num(7)?;
            let sched_cpi = row.num(8)?;
            row.check_range("events-agree", agree, 0.0, 1.0);
            row.check_range("correlation", corr, -1.0, 1.0);
            row.check_ge("sim-resolution", sim_r, MIN_RESOLUTION, "r >= 2");
            row.check_ge("model-resolution", model_r, MIN_RESOLUTION, "r >= 2");
            for (name, v) in [
                ("sim-CPI", sim_cpi),
                ("stack-CPI", stack_cpi),
                ("sched-CPI", sched_cpi),
            ] {
                row.check_range(name, v, 1e-6, f64::INFINITY);
            }
        }
        CsvChecks::Ex3 => {
            let sim = row.num(1)?;
            let model = row.num(2)?;
            let local = row.num(3)?;
            let closed = row.num(4)?;
            row.check_ge("sim-effective", sim, MIN_RESOLUTION, "r >= 2");
            row.check_ge("model-effective", model, MIN_RESOLUTION, "r >= 2");
            row.check_ge("model-local", local, MIN_RESOLUTION, "r >= 2");
            row.check_range("closed-form", closed, 1e-6, f64::INFINITY);
        }
        CsvChecks::Fig3 => {
            let n = row.num(2)?;
            row.check_ge("n-measured", n, 0.0, "counts are non-negative");
            for (name, col) in [
                ("measured-resolution", 3),
                ("model-local-resolution", 4),
                ("model-effective-resolution", 5),
            ] {
                let v = row.num(col)?;
                // An empty bucket legitimately reports 0; a populated
                // one must respect the per-branch floor.
                if v > EPS_GE && v < MIN_RESOLUTION - EPS_GE {
                    row.violation(format!(
                        "{name} = {v} in (0, 2): below the resolution floor"
                    ));
                }
            }
        }
        CsvChecks::Ex2 => {
            let window = row.num(1)?;
            let rob = row.num(2)?;
            let mr = row.num(3)?;
            let model = row.num(4)?;
            let ipc = row.num(5)?;
            row.check_ge("window", window, 1.0, "sizes are positive");
            row.check_ge("rob", rob, 1.0, "sizes are positive");
            row.check_ge("measured-resolution", mr, MIN_RESOLUTION, "r >= 2");
            row.check_ge("model-resolution", model, MIN_RESOLUTION, "r >= 2");
            row.check_range("IPC", ipc, 1e-6, f64::INFINITY);
        }
        CsvChecks::Fig7 => {
            let scale = row.num(1)?;
            let mr = row.num(2)?;
            let model = row.num(3)?;
            let share = row.num(4)?;
            row.check_range("latency-scale", scale, 1e-6, f64::INFINITY);
            row.check_ge("measured-resolution", mr, MIN_RESOLUTION, "r >= 2");
            row.check_ge("model-resolution", model, MIN_RESOLUTION, "r >= 2");
            row.check_ge(
                "model-fu-share(iv)",
                share,
                0.0,
                "knock-out terms are non-negative",
            );
        }
        CsvChecks::Fig8 => {
            let chain = row.num(0)?;
            let mr = row.num(1)?;
            let model = row.num(2)?;
            let ilp = row.num(3)?;
            row.check_ge("chain-length", chain, 1.0, "chains have at least one op");
            row.check_ge("measured-resolution", mr, MIN_RESOLUTION, "r >= 2");
            row.check_ge("model-resolution", model, MIN_RESOLUTION, "r >= 2");
            row.check_ge(
                "model-ilp-share(iii)",
                ilp,
                0.0,
                "knock-out terms are non-negative",
            );
            row.check_ge(
                "model-resolution",
                model,
                ilp + MIN_RESOLUTION - EPS_SUM,
                "resolution >= ilp share + 2",
            );
        }
        CsvChecks::ExGenerations => {
            if !presets::GENERATIONS.contains(&row.cells[1].trim()) {
                row.push(
                    "BMP700",
                    format!("unknown predictor generation {:?}", row.cells[1]),
                );
            }
            let rate = row.num(2)?;
            let mpki = row.num(3)?;
            let mp = row.num(4)?;
            let base = row.num(5)?;
            let ilp = row.num(6)?;
            let fu = row.num(7)?;
            let dmiss = row.num(8)?;
            let ipc = row.num(9)?;
            row.check_range("br-miss-rate", rate, 0.0, 1.0);
            row.check_ge("br-MPKI", mpki, 0.0, "counts are non-negative");
            row.check_range("IPC", ipc, 1e-6, f64::INFINITY);
            // Penalty statistics are means over mispredictions; with
            // none recorded they legitimately print as zeros.
            if mpki > EPS_GE {
                let depth = f64::from(presets::baseline_4wide().frontend_depth);
                row.check_ge(
                    "mean-penalty",
                    mp,
                    depth + MIN_RESOLUTION,
                    "penalty >= depth + 2 (generations share the baseline frontend)",
                );
                row.check_eq(base, 2.0, EPS_VAL, "mean base contribution == 2 cycles");
                row.check_ge("mean-ilp", ilp, 0.0, "knock-out terms are non-negative");
                row.check_ge("mean-fu", fu, 0.0, "knock-out terms are non-negative");
                row.check_ge("mean-dmiss", dmiss, 0.0, "knock-out terms are non-negative");
            }
        }
        CsvChecks::ExH2p => {
            if !known_class_label(row.cells[1].trim()) {
                row.push(
                    "BMP700",
                    format!("unknown branch class label {:?}", row.cells[1]),
                );
            }
            row.int(2)?; // sites: a non-negative integer
            let intervals = row.int(3)?;
            let base = row.int(4)?;
            let ilp = row.int(5)?;
            let fu = row.int(6)?;
            let dmiss = row.int(7)?;
            let local = row.int(8)?;
            let refill = row.int(9)?;
            let total = row.int(10)?;
            // The table is produced under the baseline machine, so the
            // refill charge per interval is the baseline frontend depth.
            let depth = u64::from(presets::baseline_4wide().frontend_depth);
            if refill != intervals * depth {
                row.push(
                    "BMP701",
                    format!(
                        "refill {refill} != {intervals} intervals × frontend \
                         depth {depth}"
                    ),
                );
            }
            // Integer cycle columns: the identities hold exactly.
            if base + ilp + fu + dmiss != local {
                row.push(
                    "BMP701",
                    format!(
                        "base {base} + ilp {ilp} + fu {fu} + dmiss {dmiss} != \
                         local {local} (knock-out terms partition the local \
                         resolution exactly)"
                    ),
                );
            }
            if local + refill != total {
                row.push(
                    "BMP701",
                    format!("local {local} + refill {refill} != total {total}"),
                );
            }
        }
        CsvChecks::Fig9 => {
            let rate = row.num(1)?;
            let mr = row.num(2)?;
            let model = row.num(3)?;
            let share = row.num(4)?;
            row.check_range("l1d-miss-rate", rate, 0.0, 1.0);
            row.check_ge("measured-resolution", mr, MIN_RESOLUTION, "r >= 2");
            row.check_ge("model-resolution", model, MIN_RESOLUTION, "r >= 2");
            row.check_ge(
                "model-short-dmiss-share(v)",
                share,
                0.0,
                "knock-out terms are non-negative",
            );
        }
    }
    Some(())
}

/// Whether `content`'s header line is a registered table's, that is,
/// whether [`lint_csv`] checks the table at all. `bmp-lint --static`
/// names the tables it leaves unchecked.
pub fn csv_checked(content: &str) -> bool {
    content
        .lines()
        .next()
        .is_some_and(|header| CsvChecks::from_header(header.trim()).is_some())
}

/// Lints one published CSV table against the registered static checks
/// for its header. Unregistered headers (tables whose columns carry no
/// statically checkable identity, e.g. `table1_config.csv`) produce a
/// clean report.
pub fn lint_csv(locus: &str, content: &str) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let mut lines = content.lines();
    let Some(header) = lines.next() else {
        return report;
    };
    let Some((kind, cols)) = CsvChecks::from_header(header.trim()) else {
        return report;
    };
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        let locus = format!("{locus}:{}", i + 2);
        if cells.len() != cols {
            report.diagnostics.push(Diagnostic::error(
                "BMP606",
                &locus,
                format!("expected {cols} columns, found {}", cells.len()),
            ));
            continue;
        }
        let mut row = Row {
            locus,
            cells: &cells,
            diags: &mut report.diagnostics,
        };
        check_row(&kind, &mut row);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use bmp_core::metrics::{ModelMetrics, WorkloadMetrics};
    use bmp_core::penalty::PenaltyModel;

    fn codes(report: &AnalysisReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Whether `report` holds a `code` finding whose message mentions
    /// `needle`.
    fn fired(report: &AnalysisReport, code: &str, needle: &str) -> bool {
        report
            .diagnostics
            .iter()
            .any(|d| d.code == code && d.message.contains(needle))
    }

    /// A metrics document whose model section is the real analysis of
    /// the regenerable `gzip` trace and whose sim section satisfies
    /// the envelope.
    fn consistent_doc() -> ExperimentMetrics {
        let cfg = presets::baseline_4wide();
        let ops = 6_000u64;
        let seed = 7u64;
        let trace = spec::by_name("gzip").unwrap().generate(ops as usize, seed);
        let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
        let stack = bmp_core::cpi::predict(&trace, &cfg);
        let records = bmp_core::accounting::records_from_analysis(&analysis);
        let mut w = WorkloadMetrics::from_records(
            "gzip",
            trace.len() as u64,
            10_000,
            analysis.frontend_depth,
            analysis.breakdowns.len() as u64,
            &records,
        );
        w.model = Some(ModelMetrics::from_analysis(&analysis, stack));
        let mut doc = ExperimentMetrics::new("test", ops, seed);
        doc.workloads.push(w);
        doc
    }

    #[test]
    fn consistent_metrics_doc_is_clean() {
        let doc = consistent_doc();
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn corrupted_model_total_is_bmp601() {
        let mut doc = consistent_doc();
        doc.workloads[0].model.as_mut().unwrap().ilp += 1;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(
            codes(&report).contains(&"BMP601"),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn model_over_other_intervals_is_bmp601() {
        let mut doc = consistent_doc();
        // Same totals, different interval count: the model analyzed
        // another trace or machine.
        doc.workloads[0].model.as_mut().unwrap().intervals += 1;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert_eq!(codes(&report), vec!["BMP601"], "{}", report.render_human());
        assert!(fired(&report, "BMP601", "intervals"));
    }

    #[test]
    fn out_of_envelope_model_carryover_is_bmp602() {
        let mut doc = consistent_doc();
        // Carryover alone past its envelope; resolution stays inside.
        let m = doc.workloads[0].model.as_mut().unwrap();
        m.carryover += (m.intervals * 1_000_000) as i64;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert_eq!(codes(&report), vec!["BMP602"], "{}", report.render_human());
        assert!(fired(&report, "BMP602", "carryover"));
    }

    #[test]
    fn out_of_envelope_model_resolution_is_bmp602() {
        let mut doc = consistent_doc();
        let m = doc.workloads[0].model.as_mut().unwrap();
        // Push resolution far past the per-branch upper bound while
        // keeping the exact (local) totals untouched.
        m.resolution += m.intervals * 1_000_000;
        m.carryover += (m.intervals * 1_000_000) as i64;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        let c = codes(&report);
        assert!(c.contains(&"BMP602"), "{}", report.render_human());
        assert!(!c.contains(&"BMP601"), "{}", report.render_human());
    }

    #[test]
    fn broken_sim_refill_and_envelope_are_bmp603() {
        let mut doc = consistent_doc();
        doc.workloads[0].refill_total += 3;
        doc.workloads[0].resolution_total = 1; // below n × per-branch lo
        let report = lint_metrics_doc("m.json", &doc.to_json());
        let c = codes(&report);
        assert_eq!(
            c.iter().filter(|&&c| c == "BMP603").count(),
            2,
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn sim_resolution_above_the_envelope_is_bmp603() {
        let mut doc = consistent_doc();
        let w = &mut doc.workloads[0];
        let (_, per_hi) = bounds::per_branch_resolution_bounds(&presets::baseline_4wide());
        w.resolution_total = w.intervals.bmiss * per_hi + 1;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert_eq!(codes(&report), vec!["BMP603"], "{}", report.render_human());
        assert!(fired(&report, "BMP603", "outside proven envelope"));
    }

    #[test]
    fn unknown_workload_is_bmp604_info_only() {
        let mut doc = consistent_doc();
        doc.workloads[0].workload = "no-such-workload".into();
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(codes(&report).contains(&"BMP604"));
        assert_eq!(report.error_count(), 0, "{}", report.render_human());
        assert_eq!(report.worst(), Some(Severity::Info));
    }

    #[test]
    fn non_baseline_depth_skips_envelope_with_bmp604() {
        let mut doc = consistent_doc();
        let w = &mut doc.workloads[0];
        w.model = None;
        w.frontend_depth += 1; // refill identity updated to stay internally consistent
        w.refill_total = w.intervals.bmiss * u64::from(w.frontend_depth);
        w.resolution_total = 1; // would violate the envelope if checked
        let report = lint_metrics_doc("m.json", &doc.to_json());
        let c = codes(&report);
        assert!(c.contains(&"BMP604"));
        assert!(!c.contains(&"BMP603"), "{}", report.render_human());
    }

    #[test]
    fn garbage_metrics_is_bmp606() {
        let report = lint_metrics_doc("m.json", "{ not json");
        assert_eq!(codes(&report), vec!["BMP606"]);
    }

    #[test]
    fn real_result_csvs_pass() {
        // The seed repo's published tables must satisfy every
        // registered static check.
        for name in [
            "fig2_penalty_per_benchmark",
            "fig5_contributor_breakdown",
            "fig8_ilp",
            "ex_predictor_generations",
            "ex_h2p_contributors",
        ] {
            let path = format!("{}/../../results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                let report = lint_csv(&format!("{name}.csv"), &text);
                assert!(report.is_clean(), "{name}: {}", report.render_human());
            }
        }
    }

    #[test]
    fn fig5_base_violation_is_bmp605() {
        let csv = "benchmark,frontend(i),base,ilp(iii),fu-latency(iv),short-dmiss(v),carryover(ii),total-penalty\n\
                   gzip,5.00,3.00,0.94,1.02,1.35,9.39,20.70\n";
        let report = lint_csv("fig5.csv", csv);
        assert!(
            codes(&report).contains(&"BMP605"),
            "{}",
            report.render_human()
        );
        assert!(report.render_human().contains("base"));
    }

    #[test]
    fn fig5_sum_violation_is_bmp605() {
        let csv = "benchmark,frontend(i),base,ilp(iii),fu-latency(iv),short-dmiss(v),carryover(ii),total-penalty\n\
                   gzip,5.00,2.00,0.94,1.02,1.35,10.38,25.00\n";
        let report = lint_csv("fig5.csv", csv);
        assert!(codes(&report).contains(&"BMP605"));
    }

    #[test]
    fn fig2_depth_identity_violation_is_bmp605() {
        let csv = "benchmark,measured-penalty,two-run-penalty,model-penalty,frontend-depth,measured-resolution\n\
                   gzip,21.00,11.30,20.70,5,15.00\n";
        let report = lint_csv("fig2.csv", csv);
        assert!(codes(&report).contains(&"BMP605"));
    }

    #[test]
    fn fig2_resolution_below_the_floor_is_bmp605() {
        // The depth identity holds; only the r >= 2 floor is broken.
        let csv = "benchmark,measured-penalty,two-run-penalty,model-penalty,frontend-depth,measured-resolution\n\
                   gzip,6.50,11.30,20.70,5,1.50\n";
        let report = lint_csv("fig2.csv", csv);
        assert_eq!(codes(&report), vec!["BMP605"], "{}", report.render_human());
        assert!(fired(&report, "BMP605", "measured-resolution"));
    }

    #[test]
    fn fig10_agreement_out_of_range_is_bmp605() {
        let csv = "benchmark,events-agree,sim-resolution,model-resolution,resolution-err,correlation,sim-CPI,stack-CPI,sched-CPI\n\
                   gzip,1.50,15.00,14.00,0.07,0.90,1.10,1.00,1.05\n";
        let report = lint_csv("fig10.csv", csv);
        assert_eq!(codes(&report), vec!["BMP605"], "{}", report.render_human());
        assert!(fired(&report, "BMP605", "events-agree"));
    }

    #[test]
    fn fig5_total_below_the_resolution_floor_is_bmp605() {
        // The contributors sum to the total, but a negative carryover
        // drags it under frontend + 2.
        let csv = "benchmark,frontend(i),base,ilp(iii),fu-latency(iv),short-dmiss(v),carryover(ii),total-penalty\n\
                   gzip,5.00,2.00,0.00,0.00,0.00,-1.00,6.00\n";
        let report = lint_csv("fig5.csv", csv);
        assert_eq!(codes(&report), vec!["BMP605"], "{}", report.render_human());
        assert!(fired(&report, "BMP605", "below frontend + 2"));
    }

    #[test]
    fn fig3_populated_bucket_below_the_floor_is_bmp605() {
        let header = "benchmark,interval-bucket-lo,n-measured,measured-resolution,\
                      model-local-resolution,model-effective-resolution\n";
        // The 512+ overflow bucket is a row like any other.
        let good = format!("{header}gzip,512+,2,22.50,7.50,11.50\n");
        assert!(lint_csv("fig3.csv", &good).is_clean());
        let bad = format!("{header}gzip,512+,2,1.00,7.50,11.50\n");
        let report = lint_csv("fig3.csv", &bad);
        assert_eq!(codes(&report), vec!["BMP605"], "{}", report.render_human());
        assert!(fired(&report, "BMP605", "below the resolution floor"));
    }

    #[test]
    fn malformed_row_is_bmp606() {
        let csv = "benchmark,window,rob,measured-resolution,model-resolution,IPC\n\
                   twolf,16,32,eleven,10.61,0.534\n\
                   twolf,16,32\n";
        let report = lint_csv("ex2.csv", csv);
        assert_eq!(
            codes(&report).iter().filter(|&&c| c == "BMP606").count(),
            2,
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn unknown_header_is_skipped_silently() {
        let report = lint_csv("x.csv", "a,b,c\n1,2,oops\n");
        assert!(report.is_clean());
        let registered = |header: &str| CsvChecks::from_header(header).is_some();
        assert!(!registered("a,b,c"));
        assert!(registered(
            "chain-length,measured-resolution,model-resolution,model-ilp-share(iii)"
        ));
        assert!(registered(
            "benchmark,predictor,br-miss-rate,br-MPKI,mean-penalty,mean-base,\
             mean-ilp,mean-fu,mean-dmiss,IPC"
        ));
        assert!(registered(
            "benchmark,class,sites,intervals,base,ilp,fu,dmiss,local,refill,total"
        ));
    }

    const H2P_HEADER: &str =
        "benchmark,class,sites,intervals,base,ilp,fu,dmiss,local,refill,total\n";

    #[test]
    fn h2p_csv_identity_violations_are_bmp701() {
        // base+ilp+fu+dmiss = 24 != local 25.
        let csv = format!("{H2P_HEADER}gzip,h2p,3,10,20,2,1,1,25,50,75\n");
        let report = lint_csv("h2p.csv", &csv);
        assert_eq!(codes(&report), vec!["BMP701"], "{}", report.render_human());

        // local 24 + refill 50 = 74 != total 80.
        let csv = format!("{H2P_HEADER}gzip,h2p,3,10,20,2,1,1,24,50,80\n");
        let report = lint_csv("h2p.csv", &csv);
        assert_eq!(codes(&report), vec!["BMP701"], "{}", report.render_human());

        // refill 49 != 10 intervals × baseline depth 5.
        let csv = format!("{H2P_HEADER}gzip,h2p,3,10,20,2,1,1,24,49,73\n");
        let report = lint_csv("h2p.csv", &csv);
        assert_eq!(codes(&report), vec!["BMP701"], "{}", report.render_human());

        // A consistent row is clean.
        let csv = format!("{H2P_HEADER}gzip,h2p,3,10,20,2,1,1,24,50,74\n");
        assert!(lint_csv("h2p.csv", &csv).is_clean());
    }

    #[test]
    fn h2p_csv_unknown_class_is_bmp700() {
        let csv = format!("{H2P_HEADER}gzip,spicy,3,10,20,2,1,1,24,50,74\n");
        let report = lint_csv("h2p.csv", &csv);
        assert_eq!(codes(&report), vec!["BMP700"], "{}", report.render_human());
    }

    #[test]
    fn generations_csv_unknown_predictor_is_bmp700() {
        let header = "benchmark,predictor,br-miss-rate,br-MPKI,mean-penalty,\
                      mean-base,mean-ilp,mean-fu,mean-dmiss,IPC\n";
        let csv = format!("{header}gzip,crystal-ball,0.050,8.00,21.00,2.00,1.00,1.00,2.00,1.100\n");
        let report = lint_csv("gen.csv", &csv);
        assert_eq!(codes(&report), vec!["BMP700"], "{}", report.render_human());

        let good = format!("{header}gzip,tage,0.050,8.00,21.00,2.00,1.00,1.00,2.00,1.100\n");
        assert!(lint_csv("gen.csv", &good).is_clean());

        // A zero-MPKI row skips the penalty-mean checks: there is no
        // misprediction to average over.
        let cold = format!("{header}gzip,tage,0.000,0.00,0.00,0.00,0.00,0.00,0.00,1.500\n");
        assert!(lint_csv("gen.csv", &cold).is_clean());
    }

    /// `consistent_doc` with a class attribution that exactly
    /// partitions the model: all of it charged to one `h2p` class.
    fn classed_doc() -> ExperimentMetrics {
        let mut doc = consistent_doc();
        let w = &mut doc.workloads[0];
        let m = w.model.as_ref().unwrap();
        w.branch_classes = vec![bmp_core::metrics::ClassPenalty {
            class: "h2p".into(),
            sites: 4,
            intervals: m.intervals,
            local_resolution: m.local_resolution,
            refill: m.refill,
        }];
        doc
    }

    #[test]
    fn doc_class_attribution_partitioning_the_model_is_clean() {
        let doc = classed_doc();
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn doc_unknown_class_label_is_bmp700() {
        let mut doc = classed_doc();
        doc.workloads[0].branch_classes[0].class = "spicy".into();
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(
            codes(&report).contains(&"BMP700"),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn doc_class_totals_not_partitioning_the_model_is_bmp701() {
        let mut doc = classed_doc();
        // Steal one interval (and its refill charge, keeping the
        // per-class refill identity intact) so the totals no longer
        // cover the model.
        let depth = u64::from(doc.workloads[0].frontend_depth);
        let c = &mut doc.workloads[0].branch_classes[0];
        c.intervals -= 1;
        c.refill -= depth;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        let n = codes(&report).iter().filter(|&&c| c == "BMP701").count();
        assert_eq!(n, 2, "{}", report.render_human()); // intervals + refill totals
    }

    #[test]
    fn doc_duplicate_class_and_broken_class_refill_are_bmp701() {
        // Each breaks the partition totals too, so the test names the
        // rule it is about.
        let mut doc = classed_doc();
        let dup = doc.workloads[0].branch_classes[0].clone();
        doc.workloads[0].branch_classes.push(dup);
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(
            fired(&report, "BMP701", "attributed twice"),
            "{}",
            report.render_human()
        );

        let mut doc = classed_doc();
        doc.workloads[0].branch_classes[0].refill += 1;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(
            fired(&report, "BMP701", "intervals × frontend depth"),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn unregistered_predictor_skips_bounds_with_bmp604() {
        let mut doc = consistent_doc();
        doc.workloads[0].predictor = "crystal-ball".into();
        // Would trip BMP601/603 if the baseline bounds were applied.
        doc.workloads[0].resolution_total = 1;
        doc.workloads[0].model.as_mut().unwrap().ilp += 1;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        let c = codes(&report);
        assert!(c.contains(&"BMP604"), "{}", report.render_human());
        assert_eq!(report.error_count(), 0, "{}", report.render_human());
    }

    #[test]
    fn generation_predictor_doc_is_checked_under_its_own_machine() {
        // A document recorded under the TAGE generation: the lint must
        // rebuild that machine (not the baseline tournament) for its
        // exact model checks.
        let cfg = presets::generation_machine("tage").unwrap();
        let ops = 6_000u64;
        let seed = 7u64;
        let trace = spec::by_name("gzip").unwrap().generate(ops as usize, seed);
        let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
        let stack = bmp_core::cpi::predict(&trace, &cfg);
        let records = bmp_core::accounting::records_from_analysis(&analysis);
        let mut w = WorkloadMetrics::from_records(
            "gzip",
            trace.len() as u64,
            10_000,
            analysis.frontend_depth,
            analysis.breakdowns.len() as u64,
            &records,
        );
        w.predictor = "tage".into();
        w.model = Some(ModelMetrics::from_analysis(&analysis, stack));
        let mut doc = ExperimentMetrics::new("test", ops, seed);
        doc.workloads.push(w);
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(report.is_clean(), "{}", report.render_human());

        // Corrupting the model is still caught under that machine.
        doc.workloads[0].model.as_mut().unwrap().ilp += 1;
        let report = lint_metrics_doc("m.json", &doc.to_json());
        assert!(
            codes(&report).contains(&"BMP601"),
            "{}",
            report.render_human()
        );
    }
}
