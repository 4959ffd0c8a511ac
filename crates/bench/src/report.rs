//! Rendering of `results/metrics/*.json` into human tables, flat CSV,
//! and run-to-run diffs — the library behind the `bmp-report` binary.
//!
//! Everything here is deterministic: documents are processed in
//! name order and floats are rounded to fixed precision, so two
//! renders of the same files are byte-identical (the golden diff test
//! relies on this). The CSV goes through [`Table::to_csv`] and the
//! JSON through [`bmp_core::json::Value`], the workspace's one CSV and
//! one JSON writer.

use std::path::Path;

use bmp_core::json::Value;
use bmp_core::json_object;
use bmp_core::metrics::ModelMetrics;
use bmp_core::{ExperimentMetrics, WorkloadMetrics};

use crate::Table;

/// Loads and parses every `*.json` under `dir`, sorted by file name.
///
/// # Errors
///
/// Returns a description naming the offending file when the directory
/// cannot be read or a file fails to parse — partial reports would
/// silently hide regressions, so one bad file fails the load.
pub fn load_dir(dir: &Path) -> Result<Vec<ExperimentMetrics>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut docs = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc =
            ExperimentMetrics::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push(doc);
    }
    Ok(docs)
}

fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

fn opt3(v: Option<f64>) -> String {
    v.map(fmt3).unwrap_or_else(|| "-".into())
}

/// One summary table per experiment: the per-workload measured epoch
/// and interval counts (the simulator's side of the accounting).
pub fn summary_tables(docs: &[ExperimentMetrics]) -> Vec<Table> {
    let mut tables = Vec::new();
    for doc in docs {
        if doc.workloads.is_empty() {
            continue;
        }
        let mut t = Table::new(
            &format!("metrics_{}", doc.name),
            &format!("Metrics: {} (ops={}, seed={})", doc.name, doc.ops, doc.seed),
            &[
                "workload",
                "predictor",
                "instructions",
                "cycles",
                "cpi",
                "mispredicts",
                "bmiss",
                "il1",
                "il2",
                "dlong",
                "mean_penalty",
            ],
        );
        for w in &doc.workloads {
            t.push_row(vec![
                w.workload.clone(),
                if w.predictor.is_empty() {
                    "-".into() // v1 document: predictor unrecorded
                } else {
                    w.predictor.clone()
                },
                w.instructions.to_string(),
                w.cycles.to_string(),
                if w.cycles == 0 {
                    "-".into() // model-only entry: no measured epoch
                } else {
                    fmt3(w.measured_cpi())
                },
                w.mispredicts.to_string(),
                w.intervals.bmiss.to_string(),
                w.intervals.il1.to_string(),
                w.intervals.il2.to_string(),
                w.intervals.dlong.to_string(),
                opt3(w.mean_penalty()),
            ]);
        }
        tables.push(t);
    }
    tables
}

/// One CPI-stack table per experiment that carries model sections: the
/// analytical model's first-order CPI decomposition plus the penalty
/// contributor totals.
pub fn cpi_stack_tables(docs: &[ExperimentMetrics]) -> Vec<Table> {
    let mut tables = Vec::new();
    for doc in docs {
        let modeled: Vec<&WorkloadMetrics> =
            doc.workloads.iter().filter(|w| w.model.is_some()).collect();
        if modeled.is_empty() {
            continue;
        }
        let mut t = Table::new(
            &format!("cpi_stack_{}", doc.name),
            &format!("CPI stack: {}", doc.name),
            &[
                "workload",
                "base_cpi",
                "branch_cpi",
                "icache_cpi",
                "dmiss_cpi",
                "model_cpi",
                "base",
                "ilp",
                "fu_latency",
                "short_dmiss",
                "carryover",
            ],
        );
        for w in modeled {
            let m = w.model.as_ref().expect("filtered to modeled workloads");
            let s = &m.cpi_stack;
            let n = s.instructions.max(1) as f64;
            t.push_row(vec![
                workload_key(w),
                fmt3(s.base_cycles / n),
                fmt3(s.branch_cycles / n),
                fmt3(s.icache_cycles / n),
                fmt3(s.long_dmiss_cycles / n),
                fmt3(s.cpi()),
                m.base.to_string(),
                m.ilp.to_string(),
                m.fu_latency.to_string(),
                m.short_dmiss.to_string(),
                m.carryover.to_string(),
            ]);
        }
        tables.push(t);
    }
    tables
}

/// The `workload[predictor]` display key telling per-predictor entries
/// of the same workload apart; plain workload name for v1 documents
/// (empty `predictor`).
fn workload_key(w: &WorkloadMetrics) -> String {
    if w.predictor.is_empty() {
        w.workload.clone()
    } else {
        format!("{}[{}]", w.workload, w.predictor)
    }
}

/// One per-branch-class CPI-stack table per experiment that carries
/// `branch_classes` attributions (metrics schema v2): for each
/// `(workload, predictor)` entry, the static sites, charged intervals,
/// and exact local-resolution/refill cycles of every branch class —
/// the H2P-vs-easy split of the misprediction penalty.
pub fn class_stack_tables(docs: &[ExperimentMetrics]) -> Vec<Table> {
    let mut tables = Vec::new();
    for doc in docs {
        let classed: Vec<&WorkloadMetrics> = doc
            .workloads
            .iter()
            .filter(|w| !w.branch_classes.is_empty())
            .collect();
        if classed.is_empty() {
            continue;
        }
        let mut t = Table::new(
            &format!("class_stack_{}", doc.name),
            &format!("Per-class penalty: {}", doc.name),
            &[
                "workload",
                "predictor",
                "class",
                "sites",
                "intervals",
                "local_resolution",
                "refill",
                "total",
            ],
        );
        for w in classed {
            for c in &w.branch_classes {
                t.push_row(vec![
                    w.workload.clone(),
                    if w.predictor.is_empty() {
                        "-".into()
                    } else {
                        w.predictor.clone()
                    },
                    c.class.clone(),
                    c.sites.to_string(),
                    c.intervals.to_string(),
                    c.local_resolution.to_string(),
                    c.refill.to_string(),
                    c.total().to_string(),
                ]);
            }
        }
        tables.push(t);
    }
    tables
}

/// The whole run as one flat CSV (a row per experiment × workload),
/// for spreadsheet and scripting use. Model columns are empty for
/// workloads without a model section.
pub fn to_csv(docs: &[ExperimentMetrics]) -> String {
    let columns: Vec<&str> = "experiment,workload,predictor,instructions,cycles,cpi,mispredicts,\
         bmiss,il1,il2,dlong,resolution_total,refill_total,occupancy_total,mean_penalty,\
         model_base,model_ilp,model_fu_latency,model_short_dmiss,model_carryover,model_cpi"
        .split(',')
        .collect();
    let mut t = Table::new("metrics", "Metrics: every experiment", &columns);
    for doc in docs {
        for w in &doc.workloads {
            let (base, ilp, fu, sd, co, mcpi) = match &w.model {
                Some(m) => (
                    m.base.to_string(),
                    m.ilp.to_string(),
                    m.fu_latency.to_string(),
                    m.short_dmiss.to_string(),
                    m.carryover.to_string(),
                    fmt3(m.cpi_stack.cpi()),
                ),
                None => Default::default(),
            };
            t.push_row(vec![
                doc.name.clone(),
                w.workload.clone(),
                w.predictor.clone(),
                w.instructions.to_string(),
                w.cycles.to_string(),
                if w.cycles == 0 {
                    String::new()
                } else {
                    fmt3(w.measured_cpi())
                },
                w.mispredicts.to_string(),
                w.intervals.bmiss.to_string(),
                w.intervals.il1.to_string(),
                w.intervals.il2.to_string(),
                w.intervals.dlong.to_string(),
                w.resolution_total.to_string(),
                w.refill_total.to_string(),
                w.occupancy_total.to_string(),
                w.mean_penalty().map(fmt3).unwrap_or_default(),
                base,
                ilp,
                fu,
                sd,
                co,
                mcpi,
            ]);
        }
    }
    t.to_csv()
}

/// The whole run as one JSON document mirroring the rendered tables:
/// per experiment, the per-workload summary quantities
/// ([`summary_tables`]) plus, when present, the model's CPI stack and
/// contributor totals ([`cpi_stack_tables`]). Key order and float
/// precision (3 decimals) are fixed, so two renders of the same files
/// are byte-identical. The schema is documented in
/// `docs/OBSERVABILITY.md`.
pub fn to_json(docs: &[ExperimentMetrics]) -> String {
    let fixed3 = |x: f64| Value::rounded(x, 3);
    let model = |m: &ModelMetrics| {
        let s = &m.cpi_stack;
        let n = s.instructions.max(1) as f64;
        json_object! {
            "intervals": m.intervals,
            "cpi_stack": json_object! {
                "base": fixed3(s.base_cycles / n), "branch": fixed3(s.branch_cycles / n),
                "icache": fixed3(s.icache_cycles / n), "dmiss": fixed3(s.long_dmiss_cycles / n),
                "total": fixed3(s.cpi()),
            },
            "contributors": json_object! {
                "base": m.base, "ilp": m.ilp, "fu_latency": m.fu_latency,
                "short_dmiss": m.short_dmiss, "carryover": m.carryover,
                "resolution": m.resolution, "refill": m.refill,
            },
        }
    };
    let workload = |w: &WorkloadMetrics| {
        let i = &w.intervals;
        let classes = w.branch_classes.iter().map(|c| {
            json_object! {
                "class": c.class.as_str(), "sites": c.sites, "intervals": c.intervals,
                "local_resolution": c.local_resolution, "refill": c.refill, "total": c.total(),
            }
        });
        json_object! {
            "workload": w.workload.as_str(),
            "predictor": w.predictor.as_str(),
            "instructions": w.instructions,
            "cycles": w.cycles,
            // A model-only entry has no measured epoch.
            "cpi": (w.cycles != 0).then(|| fixed3(w.measured_cpi())),
            "mispredicts": w.mispredicts,
            "frontend_depth": w.frontend_depth,
            "intervals": json_object! { "bmiss": i.bmiss, "il1": i.il1, "il2": i.il2, "dlong": i.dlong },
            "resolution_total": w.resolution_total,
            "refill_total": w.refill_total,
            "occupancy_total": w.occupancy_total,
            "mean_penalty": w.mean_penalty().map(fixed3),
            "branch_classes": classes.collect::<Value>(),
            "model": w.model.as_ref().map(model),
        }
    };
    let experiments = docs.iter().map(|doc| {
        json_object! {
            "experiment": doc.name.as_str(),
            "ops": doc.ops,
            "seed": doc.seed,
            "workloads": doc.workloads.iter().map(workload).collect::<Value>(),
        }
    });
    format!(
        "{}\n",
        json_object! { "experiments": experiments.collect::<Value>() }
    )
}

/// The outcome of comparing two metrics runs.
#[derive(Debug, Default)]
pub struct Diff {
    /// One line per changed per-workload quantity
    /// (`experiment/workload: field old -> new`).
    pub changes: Vec<String>,
    /// Experiments or workloads present only in the new run.
    pub added: Vec<String>,
    /// Experiments or workloads present only in the old run.
    pub removed: Vec<String>,
}

impl Diff {
    /// True when the runs are metrically identical.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }

    /// Renders the diff for the terminal: change lines, then
    /// added/removed entries, then a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.changes {
            out.push_str(c);
            out.push('\n');
        }
        for a in &self.added {
            out.push_str(&format!("added: {a}\n"));
        }
        for r in &self.removed {
            out.push_str(&format!("removed: {r}\n"));
        }
        out.push_str(&format!(
            "{} changed value(s), {} added, {} removed\n",
            self.changes.len(),
            self.added.len(),
            self.removed.len()
        ));
        out
    }
}

fn pct(old: f64, new: f64) -> String {
    if old == 0.0 {
        String::new()
    } else {
        format!(" ({:+.2}%)", (new - old) / old * 100.0)
    }
}

fn diff_u64(changes: &mut Vec<String>, locus: &str, field: &str, old: u64, new: u64) {
    if old != new {
        changes.push(format!(
            "{locus}: {field} {old} -> {new}{}",
            pct(old as f64, new as f64)
        ));
    }
}

fn diff_workload(
    changes: &mut Vec<String>,
    locus: &str,
    old: &WorkloadMetrics,
    new: &WorkloadMetrics,
) {
    diff_u64(
        changes,
        locus,
        "instructions",
        old.instructions,
        new.instructions,
    );
    diff_u64(changes, locus, "cycles", old.cycles, new.cycles);
    diff_u64(
        changes,
        locus,
        "mispredicts",
        old.mispredicts,
        new.mispredicts,
    );
    diff_u64(
        changes,
        locus,
        "bmiss_intervals",
        old.intervals.bmiss,
        new.intervals.bmiss,
    );
    diff_u64(
        changes,
        locus,
        "il1_intervals",
        old.intervals.il1,
        new.intervals.il1,
    );
    diff_u64(
        changes,
        locus,
        "il2_intervals",
        old.intervals.il2,
        new.intervals.il2,
    );
    diff_u64(
        changes,
        locus,
        "dlong_intervals",
        old.intervals.dlong,
        new.intervals.dlong,
    );
    diff_u64(
        changes,
        locus,
        "resolution_total",
        old.resolution_total,
        new.resolution_total,
    );
    diff_u64(
        changes,
        locus,
        "refill_total",
        old.refill_total,
        new.refill_total,
    );
    diff_u64(
        changes,
        locus,
        "occupancy_total",
        old.occupancy_total,
        new.occupancy_total,
    );
    // Per-class attributions: compare class rows by label; a class
    // gained or lost between runs is itself a reportable change.
    for oc in &old.branch_classes {
        match new.branch_classes.iter().find(|nc| nc.class == oc.class) {
            Some(nc) => {
                let f = |name: &str| format!("class.{}.{name}", oc.class);
                diff_u64(changes, locus, &f("sites"), oc.sites, nc.sites);
                diff_u64(changes, locus, &f("intervals"), oc.intervals, nc.intervals);
                diff_u64(
                    changes,
                    locus,
                    &f("local_resolution"),
                    oc.local_resolution,
                    nc.local_resolution,
                );
                diff_u64(changes, locus, &f("refill"), oc.refill, nc.refill);
            }
            None => changes.push(format!("{locus}: class {} disappeared", oc.class)),
        }
    }
    for nc in &new.branch_classes {
        if !old.branch_classes.iter().any(|oc| oc.class == nc.class) {
            changes.push(format!("{locus}: class {} appeared", nc.class));
        }
    }
    match (&old.model, &new.model) {
        (Some(om), Some(nm)) => {
            diff_u64(
                changes,
                locus,
                "model.resolution",
                om.resolution,
                nm.resolution,
            );
            diff_u64(changes, locus, "model.base", om.base, nm.base);
            diff_u64(changes, locus, "model.ilp", om.ilp, nm.ilp);
            diff_u64(
                changes,
                locus,
                "model.fu_latency",
                om.fu_latency,
                nm.fu_latency,
            );
            diff_u64(
                changes,
                locus,
                "model.short_dmiss",
                om.short_dmiss,
                nm.short_dmiss,
            );
            if om.carryover != nm.carryover {
                changes.push(format!(
                    "{locus}: model.carryover {} -> {}",
                    om.carryover, nm.carryover
                ));
            }
            let (oc, nc) = (om.cpi_stack.cpi(), nm.cpi_stack.cpi());
            if fmt3(oc) != fmt3(nc) {
                changes.push(format!(
                    "{locus}: model.cpi {} -> {}{}",
                    fmt3(oc),
                    fmt3(nc),
                    pct(oc, nc)
                ));
            }
        }
        (None, Some(_)) => changes.push(format!("{locus}: model section appeared")),
        (Some(_), None) => changes.push(format!("{locus}: model section disappeared")),
        (None, None) => {}
    }
}

/// Compares two metrics runs (each a set of per-experiment documents)
/// workload by workload.
pub fn diff(old: &[ExperimentMetrics], new: &[ExperimentMetrics]) -> Diff {
    let mut d = Diff::default();
    for o in old {
        let Some(n) = new.iter().find(|n| n.name == o.name) else {
            d.removed.push(o.name.clone());
            continue;
        };
        if o.ops != n.ops || o.seed != n.seed {
            d.changes.push(format!(
                "{}: scale changed (ops {} seed {}) -> (ops {} seed {}); value diffs below \
                 compare different runs",
                o.name, o.ops, o.seed, n.ops, n.seed
            ));
        }
        // Entries are keyed `(workload, predictor)`: per-predictor runs
        // of the same workload are distinct loci, and a v1→v2 rerun
        // (predictor newly recorded) reads as removed + added rather
        // than a spurious value diff.
        for ow in &o.workloads {
            let locus = format!("{}/{}", o.name, workload_key(ow));
            match n
                .workloads
                .iter()
                .find(|nw| nw.workload == ow.workload && nw.predictor == ow.predictor)
            {
                Some(nw) => diff_workload(&mut d.changes, &locus, ow, nw),
                None => d.removed.push(locus),
            }
        }
        for nw in &n.workloads {
            if !o
                .workloads
                .iter()
                .any(|ow| ow.workload == nw.workload && ow.predictor == nw.predictor)
            {
                d.added.push(format!("{}/{}", n.name, workload_key(nw)));
            }
        }
    }
    for n in new {
        if !old.iter().any(|o| o.name == n.name) {
            d.added.push(n.name.clone());
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::intervals::IntervalEventKind;
    use bmp_core::intervals::HISTOGRAM_BUCKETS;
    use bmp_core::json::{self, JsonError, ObjectExt};
    use bmp_core::IntervalRecord;
    use bmp_core::WorkloadMetrics;

    fn sample_doc(name: &str, cycles: u64) -> ExperimentMetrics {
        let records = vec![
            IntervalRecord {
                kind: IntervalEventKind::BranchMispredict,
                start: 0,
                pos: 24,
                resolution: 11,
                refill: 5,
                occupancy: 17,
                base: 0,
                ilp: 0,
                fu_latency: 0,
                short_dmiss: 0,
                carryover: 0,
            },
            IntervalRecord {
                kind: IntervalEventKind::ICacheMiss,
                start: 25,
                pos: 99,
                resolution: 0,
                refill: 0,
                occupancy: 0,
                base: 0,
                ilp: 0,
                fu_latency: 0,
                short_dmiss: 0,
                carryover: 0,
            },
        ];
        let mut doc = ExperimentMetrics::new(name, 2_000, 42);
        doc.workloads.push(WorkloadMetrics::from_records(
            "gzip", 2_000, cycles, 5, 1, &records,
        ));
        doc
    }

    #[test]
    fn summary_and_stack_tables_render() {
        let doc = sample_doc("fig2_penalty_per_benchmark", 4_000);
        let tables = summary_tables(std::slice::from_ref(&doc));
        assert_eq!(tables.len(), 1);
        let csv = tables[0].to_csv();
        assert!(csv.contains("gzip"));
        assert!(csv.contains("2.000"), "cpi column: {csv}");
        // No model sections: no CPI-stack table.
        assert!(cpi_stack_tables(&[doc]).is_empty());
    }

    #[test]
    fn flat_csv_has_one_row_per_workload() {
        let docs = [sample_doc("a", 100), sample_doc("b", 200)];
        let csv = to_csv(&docs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[1].starts_with("a,gzip,"));
        assert!(lines[2].starts_with("b,gzip,"));
    }

    #[test]
    fn flat_csv_quotes_cells_like_every_table() {
        let mut doc = sample_doc("a", 100);
        doc.workloads[0].workload = "gz,ip".into();
        let csv = to_csv(&[doc]);
        assert!(
            csv.lines().nth(1).unwrap().starts_with("a,\"gz,ip\","),
            "{csv}"
        );
    }

    /// The first workload entry of `to_json` over `doc`, parsed.
    fn json_workload(doc: &ExperimentMetrics) -> Result<Vec<(String, Value)>, JsonError> {
        let root = json::parse(&to_json(std::slice::from_ref(doc)))?;
        let exp = &root.as_object("root")?.get_array("experiments")?[0];
        let w = &exp.as_object("experiment")?.get_array("workloads")?[0];
        Ok(w.as_object("workload")?.clone())
    }

    #[test]
    fn json_mirrors_the_tables_and_is_deterministic() {
        let docs = [sample_doc("a", 4_000), sample_doc("b", 200)];
        let j = to_json(&docs);
        assert_eq!(j, to_json(&docs), "byte-identical renders");
        let root = json::parse(&j).expect("report JSON parses");
        let exps = root
            .as_object("root")
            .and_then(|r| r.get_array("experiments"));
        let names: Vec<_> = (exps.unwrap().iter())
            .map(|e| e.as_object("e").and_then(|e| e.get_string("experiment")))
            .collect();
        assert_eq!(names, [Ok("a"), Ok("b")]);
        // The summary table's derived cpi and mean penalty, the totals
        // with their interval counts, and no model section.
        let expected = r#"{
            "workload": "gzip", "predictor": "", "instructions": 2000, "cycles": 4000,
            "cpi": 2.0, "mispredicts": 1, "frontend_depth": 5,
            "intervals": { "bmiss": 1, "il1": 1, "il2": 0, "dlong": 0 },
            "resolution_total": 11, "refill_total": 5, "occupancy_total": 17,
            "mean_penalty": 16.0, "branch_classes": [], "model": null
        }"#;
        let w = Value::Object(json_workload(&docs[0]).unwrap());
        assert_eq!(w, json::parse(expected).unwrap());
    }

    fn classed_doc(name: &str) -> ExperimentMetrics {
        use bmp_core::metrics::ClassPenalty;
        let mut doc = sample_doc(name, 4_000);
        doc.workloads[0].predictor = "tage".into();
        doc.workloads[0].branch_classes = vec![
            ClassPenalty {
                class: "h2p".into(),
                sites: 2,
                intervals: 9,
                local_resolution: 90,
                refill: 45,
            },
            ClassPenalty {
                class: "biased".into(),
                sites: 7,
                intervals: 1,
                local_resolution: 4,
                refill: 5,
            },
        ];
        doc
    }

    #[test]
    fn class_stack_table_and_json_mirror_the_v2_fields() {
        let doc = classed_doc("ex_h2p_contributors");
        let tables = class_stack_tables(std::slice::from_ref(&doc));
        assert_eq!(tables.len(), 1);
        let csv = tables[0].to_csv();
        assert!(csv.contains("gzip,tage,h2p,2,9,90,45,135"), "{csv}");
        assert!(csv.contains("gzip,tage,biased,7,1,4,5,9"), "{csv}");
        // The summary table shows the predictor; the JSON mirrors both
        // v2 fields.
        let summary = summary_tables(std::slice::from_ref(&doc))[0].to_csv();
        assert!(summary.contains("gzip,tage,"), "{summary}");
        let classes = |doc: &ExperimentMetrics| {
            let w = json_workload(doc).unwrap();
            assert_eq!(
                w.get_string("predictor"),
                Ok(doc.workloads[0].predictor.as_str())
            );
            w.get("branch_classes").unwrap().clone()
        };
        let expected = r#"[
            { "class": "h2p", "sites": 2, "intervals": 9, "local_resolution": 90, "refill": 45, "total": 135 },
            { "class": "biased", "sites": 7, "intervals": 1, "local_resolution": 4, "refill": 5, "total": 9 }
        ]"#;
        assert_eq!(classes(&doc), json::parse(expected).unwrap());
        // No attributions → no class table, and an empty JSON array.
        let plain = sample_doc("a", 100);
        assert!(class_stack_tables(std::slice::from_ref(&plain)).is_empty());
        assert_eq!(classes(&plain), Value::Array(Vec::new()));
    }

    #[test]
    fn diff_tells_predictors_apart_and_reports_class_changes() {
        let old = [classed_doc("a")];
        let mut newer = classed_doc("a");
        newer.workloads[0].branch_classes[0].intervals = 11;
        newer.workloads[0].branch_classes.remove(1);
        let d = diff(&old, &[newer]);
        assert!(
            d.changes
                .iter()
                .any(|c| c.contains("a/gzip[tage]: class.h2p.intervals 9 -> 11")),
            "{:?}",
            d.changes
        );
        assert!(
            d.changes
                .iter()
                .any(|c| c.contains("class biased disappeared")),
            "{:?}",
            d.changes
        );
        // A different predictor under the same workload name is a
        // distinct entry, not a value diff.
        let mut other = classed_doc("a");
        other.workloads[0].predictor = "bimodal".into();
        let d = diff(&old, &[other]);
        assert!(d.changes.is_empty(), "{:?}", d.changes);
        assert_eq!(d.removed, vec!["a/gzip[tage]".to_string()]);
        assert_eq!(d.added, vec!["a/gzip[bimodal]".to_string()]);
    }

    #[test]
    fn identical_runs_diff_empty() {
        let docs = [sample_doc("a", 100)];
        let d = diff(&docs, &docs);
        assert!(d.is_empty(), "{:?}", d);
        assert!(d
            .render()
            .contains("0 changed value(s), 0 added, 0 removed"));
    }

    #[test]
    fn changed_added_and_removed_are_reported() {
        let old = [sample_doc("a", 100), sample_doc("gone", 50)];
        let mut newer = sample_doc("a", 120);
        newer.workloads[0].mispredicts += 1;
        newer.workloads[0].intervals.bmiss += 1;
        let new = [newer, sample_doc("fresh", 70)];
        let d = diff(&old, &new);
        assert!(!d.is_empty());
        assert!(
            d.changes
                .iter()
                .any(|c| c.contains("a/gzip: cycles 100 -> 120 (+20.00%)")),
            "{:?}",
            d.changes
        );
        assert!(d.changes.iter().any(|c| c.contains("mispredicts 1 -> 2")));
        assert_eq!(d.removed, vec!["gone".to_string()]);
        assert_eq!(d.added, vec!["fresh".to_string()]);
    }

    #[test]
    fn histograms_do_not_drive_diffs_but_totals_do() {
        // Two runs with identical totals diff empty even though the
        // histogram vectors exist (HISTOGRAM_BUCKETS entries each) —
        // the diff compares aggregate quantities, not bucket noise.
        let doc = sample_doc("a", 100);
        assert_eq!(doc.workloads[0].length_histogram.len(), HISTOGRAM_BUCKETS);
        assert!(diff(std::slice::from_ref(&doc), std::slice::from_ref(&doc)).is_empty());
    }
}
