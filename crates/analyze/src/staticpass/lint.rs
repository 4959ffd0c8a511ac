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
//! A CSV's checks are chosen by matching its header line against the
//! published tables' schemas ([`bmp_core::tables`]), and they read cells
//! by column name through the schema, so the experiment that writes a
//! table and the checks that read it share one declaration of its
//! columns. A table with no checks, or a header that matches no schema,
//! is not checked ([`csv_checked`]), and `bmp-lint --static` names every
//! such CSV. All CSV checks are scale-free: they hold at any
//! `BMP_OPS`/`BMP_SEED`, because they are identities and bounds, not
//! golden values.

use std::cell::OnceCell;

use bmp_core::metrics::{ExperimentMetrics, WorkloadMetrics};
use bmp_core::tables::{self, col, TableSchema};
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

/// A published table's static checks: its schema, its per-row
/// identities and bounds, and the column groups whose cells must sum to
/// 1 over each benchmark's rows (a distribution, or a split of one
/// quantity).
type CsvCheck = (
    TableSchema,
    fn(&mut Row<'_>) -> Option<()>,
    &'static [&'static [&'static str]],
);

/// Every published table with static checks.
static CSV_CHECKS: [CsvCheck; 16] = [
    (tables::FIG2, penalty_and_depth, &[]),
    (tables::FIG3, fig3, &[]),
    (tables::FIG4, |_| Some(()), &[&[col::FRACTION]]),
    (tables::FIG5, fig5, &[]),
    (tables::FIG6, fig6, &[]),
    (tables::FIG7, fig7, &[]),
    (tables::FIG8, fig8, &[]),
    (tables::FIG9, fig9, &[]),
    (tables::FIG10, fig10, &[]),
    (
        tables::FIG11,
        |_| Some(()),
        &[&[col::MEASURED_FRAC], &[col::MODEL_FRAC]],
    ),
    (tables::EX2, ex2, &[]),
    (tables::EX3, ex3, &[]),
    (
        tables::EX5,
        |_| Some(()),
        &[&[
            col::SLOTS_USED,
            col::SLOTS_FRONTEND,
            col::SLOTS_ROB,
            col::SLOTS_WINDOW,
        ]],
    ),
    (tables::EX_GENERATIONS, ex_generations, &[]),
    (tables::EX_H2P, ex_h2p, &[]),
    (tables::EX_ISA, |row| contributor_means(row).map(drop), &[]),
];

/// The checks of the table whose CSV header line is `header`.
fn csv_checks(header: &str) -> Option<&'static CsvCheck> {
    CSV_CHECKS
        .iter()
        .find(|(schema, ..)| schema.header() == header)
}

/// One CSV row under scrutiny; accumulates diagnostics for its line.
/// Cells are read by column name through the table's schema.
struct Row<'a> {
    schema: &'a TableSchema,
    locus: String,
    cells: &'a [&'a str],
    diags: &'a mut Vec<Diagnostic>,
}

impl<'a> Row<'a> {
    /// The cell of column `name`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such column: every check names
    /// columns of its own table.
    fn cell(&self, name: &str) -> (usize, &'a str) {
        let i = self
            .schema
            .column(name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.schema.id));
        (i, self.cells[i])
    }

    /// Numeric value of column `name`, or `None` with a BMP606 emitted.
    fn num(&mut self, name: &str) -> Option<f64> {
        let (i, cell) = self.cell(name);
        match cell.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => Some(v),
            _ => {
                self.push(
                    "BMP606",
                    format!("column {} is not a finite number: {cell:?}", i + 1),
                );
                None
            }
        }
    }

    /// Integer value of column `name` (the exact-identity columns of the
    /// per-class table), or `None` with a BMP606 emitted.
    fn int(&mut self, name: &str) -> Option<u64> {
        let (i, cell) = self.cell(name);
        match cell.trim().parse::<u64>() {
            Ok(v) => Some(v),
            _ => {
                self.push(
                    "BMP606",
                    format!("column {} is not a non-negative integer: {cell:?}", i + 1),
                );
                None
            }
        }
    }

    fn violation(&mut self, message: String) {
        self.push("BMP605", message);
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

    /// `|got - want| <= eps`, else a BMP605 naming the identity.
    fn check_eq(&mut self, got: f64, want: f64, eps: f64, rule: &str) {
        if (got - want).abs() > eps {
            self.violation(format!(
                "{rule}: got {got}, expected {want} (tolerance {eps})"
            ));
        }
    }

    /// Column `name`, checked to be at least `bound` (see
    /// [`check_ge`](Self::check_ge)).
    fn ge(&mut self, name: &str, bound: f64, rule: &str) -> Option<f64> {
        let value = self.num(name)?;
        self.check_ge(name, value, bound, rule);
        Some(value)
    }

    /// Column `name`, checked to lie within `[lo, hi]` (small slack),
    /// else a BMP605.
    fn range(&mut self, name: &str, lo: f64, hi: f64) -> Option<f64> {
        let value = self.num(name)?;
        if value < lo - 1e-3 || value > hi + 1e-3 {
            self.violation(format!("{name} = {value} outside [{lo}, {hi}]"));
        }
        Some(value)
    }

    /// Column `name`, checked to be positive (no slack: a rate or size
    /// printed as zero is a violation).
    fn positive(&mut self, name: &str) -> Option<f64> {
        let value = self.num(name)?;
        if value <= 0.0 {
            self.violation(format!("{name} = {value} is not positive"));
        }
        Some(value)
    }

    /// Each of the columns `names` (mean resolutions) checked against the
    /// per-branch floor.
    fn resolutions(&mut self, names: &[&str]) -> Option<()> {
        for name in names {
            self.ge(name, MIN_RESOLUTION, "r >= 2")?;
        }
        Some(())
    }
}

/// Mean per-branch resolution lower bound: dispatch-to-issue plus
/// issue-to-done is at least one cycle each (`docs/STATIC_ANALYSIS.md`).
const MIN_RESOLUTION: f64 = 2.0;

/// The rule behind every non-negative contributor column.
const KNOCK_OUT: &str = "knock-out terms are non-negative";

/// The rule behind every count column.
const COUNTS: &str = "counts are non-negative";

/// Figures 2 and 6: the measured penalty is its resolution plus the
/// frontend depth, and both penalties clear depth + 2.
fn penalty_and_depth(row: &mut Row<'_>) -> Option<()> {
    let mp = row.num(col::MEASURED_PENALTY)?;
    let model = row.num(col::MODEL_PENALTY)?;
    let depth = row.num(col::FRONTEND_DEPTH)?;
    let mr = row.num(col::MEASURED_RESOLUTION)?;
    row.check_eq(
        mp - mr,
        depth,
        EPS_VAL,
        "measured penalty − resolution == frontend depth",
    );
    row.check_ge(col::MEASURED_RESOLUTION, mr, MIN_RESOLUTION, "r >= 2");
    let floor = depth + MIN_RESOLUTION;
    row.check_ge(col::MODEL_PENALTY, model, floor, "penalty >= depth + 2");
    Some(())
}

fn fig6(row: &mut Row<'_>) -> Option<()> {
    penalty_and_depth(row)?;
    row.positive(col::IPC)?;
    Some(())
}

fn fig5(row: &mut Row<'_>) -> Option<()> {
    let fe = row.num(col::FRONTEND_I)?;
    let base = row.num(col::BASE)?;
    row.check_eq(base, 2.0, EPS_VAL, "mean base contribution == 2 cycles");
    row.check_ge(col::FRONTEND_I, fe, 1.0, "refill >= 1");
    let ilp = row.ge(col::ILP_III, 0.0, KNOCK_OUT)?;
    let fu = row.ge(col::FU_LATENCY_IV, 0.0, KNOCK_OUT)?;
    let sd = row.ge(col::SHORT_DMISS_V, 0.0, KNOCK_OUT)?;
    let co = row.num(col::CARRYOVER_II)?;
    let total = row.num(col::TOTAL_PENALTY)?;
    row.check_eq(
        fe + base + ilp + fu + sd + co,
        total,
        EPS_SUM,
        "contributors sum to total penalty",
    );
    if total < fe + MIN_RESOLUTION - EPS_SUM {
        row.violation(format!(
            "{} = {total} below frontend + 2 = {}",
            col::TOTAL_PENALTY,
            fe + MIN_RESOLUTION
        ));
    }
    Some(())
}

fn fig10(row: &mut Row<'_>) -> Option<()> {
    row.range(col::EVENTS_AGREE, 0.0, 1.0)?;
    row.range(col::CORRELATION, -1.0, 1.0)?;
    row.resolutions(&[col::SIM_RESOLUTION, col::MODEL_RESOLUTION])?;
    for name in [col::SIM_CPI, col::STACK_CPI, col::SCHED_CPI] {
        row.positive(name)?;
    }
    Some(())
}

fn ex3(row: &mut Row<'_>) -> Option<()> {
    row.resolutions(&[col::SIM_EFFECTIVE, col::MODEL_EFFECTIVE, col::MODEL_LOCAL])?;
    row.positive(col::CLOSED_FORM)?;
    Some(())
}

fn fig3(row: &mut Row<'_>) -> Option<()> {
    row.ge(col::N_MEASURED, 0.0, COUNTS)?;
    for name in [
        col::MEASURED_RESOLUTION,
        col::MODEL_LOCAL_RESOLUTION,
        col::MODEL_EFFECTIVE_RESOLUTION,
    ] {
        let v = row.num(name)?;
        // An empty bucket legitimately reports 0; a populated one must
        // respect the per-branch floor.
        if v > EPS_GE && v < MIN_RESOLUTION - EPS_GE {
            row.violation(format!(
                "{name} = {v} in (0, 2): below the resolution floor"
            ));
        }
    }
    Some(())
}

fn ex2(row: &mut Row<'_>) -> Option<()> {
    row.ge(col::WINDOW, 1.0, "sizes are positive")?;
    row.ge(col::ROB, 1.0, "sizes are positive")?;
    row.resolutions(&[col::MEASURED_RESOLUTION, col::MODEL_RESOLUTION])?;
    row.positive(col::IPC)?;
    Some(())
}

fn fig7(row: &mut Row<'_>) -> Option<()> {
    row.positive(col::LATENCY_SCALE)?;
    row.resolutions(&[col::MEASURED_RESOLUTION, col::MODEL_RESOLUTION])?;
    row.ge(col::MODEL_FU_SHARE_IV, 0.0, KNOCK_OUT)?;
    Some(())
}

fn fig8(row: &mut Row<'_>) -> Option<()> {
    row.ge(col::CHAIN_LENGTH, 1.0, "chains have at least one op")?;
    row.resolutions(&[col::MEASURED_RESOLUTION, col::MODEL_RESOLUTION])?;
    let ilp = row.ge(col::MODEL_ILP_SHARE_III, 0.0, KNOCK_OUT)?;
    let model = row.num(col::MODEL_RESOLUTION)?;
    let floor = ilp + MIN_RESOLUTION - EPS_SUM;
    row.check_ge(
        col::MODEL_RESOLUTION,
        model,
        floor,
        "resolution >= ilp share + 2",
    );
    Some(())
}

fn fig9(row: &mut Row<'_>) -> Option<()> {
    row.range(col::L1D_MISS_RATE, 0.0, 1.0)?;
    row.resolutions(&[col::MEASURED_RESOLUTION, col::MODEL_RESOLUTION])?;
    row.ge(col::MODEL_SHORT_DMISS_SHARE_V, 0.0, KNOCK_OUT)?;
    Some(())
}

/// The predictor-generation and executed-kernel tables: a miss rate in
/// [0, 1], a positive IPC and, over rows with mispredictions, a mean base
/// contribution of 2 cycles and non-negative knock-out means. Returns
/// whether the row recorded mispredictions.
fn contributor_means(row: &mut Row<'_>) -> Option<bool> {
    row.range(col::BR_MISS_RATE, 0.0, 1.0)?;
    let mpki = row.ge(col::BR_MPKI, 0.0, COUNTS)?;
    row.positive(col::IPC)?;
    let base = row.num(col::MEAN_BASE)?;
    let mut means = Vec::new();
    for name in [col::MEAN_ILP, col::MEAN_FU, col::MEAN_DMISS] {
        means.push((name, row.num(name)?));
    }
    // Penalty statistics are means over mispredictions; with none
    // recorded they legitimately print as zeros.
    let mispredicted = mpki > EPS_GE;
    if mispredicted {
        row.check_eq(base, 2.0, EPS_VAL, "mean base contribution == 2 cycles");
        for (name, v) in means {
            row.check_ge(name, v, 0.0, KNOCK_OUT);
        }
    }
    Some(mispredicted)
}

fn ex_generations(row: &mut Row<'_>) -> Option<()> {
    let (_, predictor) = row.cell(col::PREDICTOR);
    if !presets::GENERATIONS.contains(&predictor.trim()) {
        row.push(
            "BMP700",
            format!("unknown predictor generation {predictor:?}"),
        );
    }
    let mp = row.num(col::MEAN_PENALTY)?;
    if contributor_means(row)? {
        let depth = f64::from(presets::baseline_4wide().frontend_depth);
        row.check_ge(
            col::MEAN_PENALTY,
            mp,
            depth + MIN_RESOLUTION,
            "penalty >= depth + 2 (generations share the baseline frontend)",
        );
    }
    Some(())
}

fn ex_h2p(row: &mut Row<'_>) -> Option<()> {
    let (_, class) = row.cell(col::CLASS);
    if !known_class_label(class.trim()) {
        row.push("BMP700", format!("unknown branch class label {class:?}"));
    }
    row.int(col::SITES)?;
    let intervals = row.int(col::INTERVALS)?;
    let base = row.int(col::BASE)?;
    let ilp = row.int(col::ILP)?;
    let fu = row.int(col::FU)?;
    let dmiss = row.int(col::DMISS)?;
    let local = row.int(col::LOCAL)?;
    let refill = row.int(col::REFILL)?;
    let total = row.int(col::TOTAL)?;
    // The table is produced under the baseline machine, so the refill
    // charge per interval is the baseline frontend depth.
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
    Some(())
}

/// Whether `content`'s header line is that of a published table with
/// static checks, that is, whether [`lint_csv`] checks the table at all.
/// `bmp-lint --static` names the tables it leaves unchecked.
pub fn csv_checked(content: &str) -> bool {
    content
        .lines()
        .next()
        .is_some_and(|header| csv_checks(header.trim()).is_some())
}

/// Lints one published CSV table against the static checks of the table
/// whose header it carries. Other headers (tables whose columns carry no
/// statically checkable identity, e.g. `table1_config.csv`, or no
/// published table at all) produce a clean report.
pub fn lint_csv(locus: &str, content: &str) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let mut lines = content.lines();
    let Some((schema, check, unit_sums)) = lines.next().and_then(|h| csv_checks(h.trim())) else {
        return report;
    };
    let cols = schema.columns.len();
    let mut sums: Vec<UnitSum> = Vec::new();
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
            schema,
            locus,
            cells: &cells,
            diags: &mut report.diagnostics,
        };
        check(&mut row);
        for &columns in *unit_sums {
            let (_, bench) = row.cell(col::BENCHMARK);
            let at = sums
                .iter()
                .position(|s| s.bench == bench && s.columns == columns)
                .unwrap_or_else(|| {
                    sums.push(UnitSum {
                        bench: bench.to_owned(),
                        columns,
                        locus: row.locus.clone(),
                        sum: 0.0,
                        cells: 0,
                    });
                    sums.len() - 1
                });
            for name in columns {
                if let Some(v) = row.num(name) {
                    sums[at].sum += v;
                    sums[at].cells += 1;
                }
            }
        }
    }
    for s in sums {
        let eps = 0.0005 * s.cells as f64 + 1e-9;
        if s.sum != 0.0 && (s.sum - 1.0).abs() > eps {
            report.diagnostics.push(Diagnostic::error(
                "BMP605",
                &s.locus,
                format!(
                    "{}: the {} cells sum to {}, expected 1 (tolerance {eps} \
                     over {} rounded cell(s))",
                    s.bench,
                    s.columns.join(" + "),
                    s.sum,
                    s.cells
                ),
            ));
        }
    }
    report
}

/// One column group's running sum over one benchmark's rows (from the
/// row at `locus` on). Each cell is rounded to three decimals, so the
/// sum must come to 1 within half a unit in the last place per cell, or
/// to 0 when there was nothing to distribute (no events, no slots).
struct UnitSum {
    bench: String,
    columns: &'static [&'static str],
    locus: String,
    sum: f64,
    cells: usize,
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
        // The committed published tables must satisfy every static
        // check, and each checked table must be among them.
        for (schema, ..) in &CSV_CHECKS {
            let path = format!(
                "{}/../../results/{}.csv",
                env!("CARGO_MANIFEST_DIR"),
                schema.id
            );
            let text = std::fs::read_to_string(&path).expect("committed CSV");
            assert!(csv_checked(&text), "{}", schema.id);
            let report = lint_csv(&format!("{}.csv", schema.id), &text);
            assert!(
                report.is_clean(),
                "{}: {}",
                schema.id,
                report.render_human()
            );
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
        assert!(!csv_checked("a,b,c\n"));
        assert!(csv_checked(
            "chain-length,measured-resolution,model-resolution,model-ilp-share(iii)\n"
        ));
        // A published table without checks is unchecked too, and so is
        // a checked table's header with its columns reordered.
        assert!(!csv_checked("parameter,value\n"));
        assert!(!csv_checked(
            "measured-resolution,chain-length,model-resolution,model-ilp-share(iii)\n"
        ));
    }

    const FIG4_HEADER: &str = "benchmark,interval-bucket-lo,fraction,count\n";

    #[test]
    fn fig4_fractions_not_summing_to_one_are_bmp605() {
        // Three rounded cells: tolerance 0.0015.
        let good = format!("{FIG4_HEADER}gzip,0,0.333,10\ngzip,1,0.333,10\ngzip,2,0.333,10\n");
        assert!(lint_csv("fig4.csv", &good).is_clean());
        let bad = format!(
            "{FIG4_HEADER}gzip,0,0.333,10\ngzip,1,0.333,10\ngzip,2,0.330,10\nmcf,0,1.000,4\n"
        );
        let report = lint_csv("fig4.csv", &bad);
        assert_eq!(codes(&report), vec!["BMP605"], "{}", report.render_human());
        assert!(fired(&report, "BMP605", "gzip: the fraction cells sum to"));
        assert_eq!(report.diagnostics[0].locus, "fig4.csv:2");
    }

    #[test]
    fn fig11_fractions_not_summing_to_one_are_bmp605() {
        let header = "benchmark,resolution-bucket-lo,measured-frac,model-frac,measured-n\n";
        let good = format!("{header}gcc,2,0.600,0.500,6\ngcc,5,0.400,0.500,4\n");
        assert!(lint_csv("fig11.csv", &good).is_clean());
        // The model column alone misses 1; a benchmark with no events
        // (all-zero columns) is not a violation.
        let bad =
            format!("{header}gcc,2,0.600,0.500,6\ngcc,5,0.400,0.450,4\ntwolf,2,0.000,0.000,0\n");
        let report = lint_csv("fig11.csv", &bad);
        assert_eq!(codes(&report), vec!["BMP605"], "{}", report.render_human());
        assert!(fired(
            &report,
            "BMP605",
            "gcc: the model-frac cells sum to 0.95"
        ));
    }

    #[test]
    fn ex5_slot_split_not_summing_to_one_is_bmp605() {
        let header = "benchmark,mean-occupancy,rob-full-frac,slots-used,slots-frontend,\
                      slots-rob,slots-window,mean-resolution\n";
        // 0.999 is within four rounded cells' tolerance (0.002).
        let good = format!("{header}mcf,94.26,0.509,0.096,0.348,0.485,0.070,58.12\n");
        assert!(lint_csv("ex5.csv", &good).is_clean());
        let bad = format!("{header}mcf,94.26,0.509,0.096,0.348,0.485,0.060,58.12\n");
        let report = lint_csv("ex5.csv", &bad);
        assert_eq!(codes(&report), vec!["BMP605"], "{}", report.render_human());
        assert!(fired(
            &report,
            "BMP605",
            "slots-used + slots-frontend + slots-rob + slots-window"
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

    /// The per-class table's cycle columns are exact integers: a
    /// fractional or negative cell is a BMP606, not a parse of its
    /// float value.
    #[test]
    fn h2p_csv_non_integer_cycles_are_bmp606() {
        for bad in [
            "gzip,h2p,3,10,20.5,2,1,1,24,50,74",
            "gzip,h2p,3,10,20,2,1,1,24,-50,74",
        ] {
            let report = lint_csv("h2p.csv", &format!("{H2P_HEADER}{bad}\n"));
            assert_eq!(codes(&report), vec!["BMP606"], "{}", report.render_human());
            assert!(
                report.diagnostics[0]
                    .message
                    .contains("not a non-negative integer"),
                "{}",
                report.render_human()
            );
        }
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

    /// `ex_isa_contributors.csv` with the one row `row`.
    fn isa_csv(row: &str) -> String {
        let header = "kernel,ops,br-miss-rate,br-MPKI,mean-penalty,\
                      mean-base,mean-ilp,mean-fu,mean-dmiss,IPC\n";
        format!("{header}{row}\n")
    }

    /// Lints an `ex_isa_contributors.csv` row and expects exactly one
    /// BMP605 naming `column`.
    fn isa_violation(row: &str, column: &str) {
        let report = lint_csv("isa.csv", &isa_csv(row));
        assert_eq!(codes(&report), vec!["BMP605"], "{}", report.render_human());
        assert!(
            fired(&report, "BMP605", column),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn isa_csv_checks_pass_a_clean_row() {
        let good = isa_csv("hash,200000,0.039,6.14,33.22,2.00,5.80,7.03,4.56,0.937");
        assert!(lint_csv("isa.csv", &good).is_clean());
        // No misprediction, no penalty means to check.
        let cold = isa_csv("loop,200000,0.000,0.00,0.00,0.00,0.00,0.00,0.00,1.500");
        assert!(lint_csv("isa.csv", &cold).is_clean());
    }

    #[test]
    fn isa_csv_base_not_two_cycles_is_bmp605() {
        isa_violation(
            "hash,200000,0.039,6.14,33.22,2.50,5.80,7.03,4.56,0.937",
            "mean base",
        );
    }

    #[test]
    fn isa_csv_negative_ilp_mean_is_bmp605() {
        isa_violation(
            "hash,200000,0.039,6.14,33.22,2.00,-0.80,7.03,4.56,0.937",
            "mean-ilp",
        );
    }

    #[test]
    fn isa_csv_negative_fu_mean_is_bmp605() {
        isa_violation(
            "hash,200000,0.039,6.14,33.22,2.00,5.80,-7.03,4.56,0.937",
            "mean-fu",
        );
    }

    #[test]
    fn isa_csv_negative_dmiss_mean_is_bmp605() {
        isa_violation(
            "hash,200000,0.039,6.14,33.22,2.00,5.80,7.03,-4.56,0.937",
            "mean-dmiss",
        );
    }

    #[test]
    fn isa_csv_miss_rate_above_one_is_bmp605() {
        isa_violation(
            "hash,200000,1.039,6.14,33.22,2.00,5.80,7.03,4.56,0.937",
            "br-miss-rate",
        );
    }

    #[test]
    fn isa_csv_zero_ipc_is_bmp605() {
        isa_violation(
            "hash,200000,0.039,6.14,33.22,2.00,5.80,7.03,4.56,0.000",
            "IPC",
        );
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
