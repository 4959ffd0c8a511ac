//! Rendering of `results/metrics/*.json` into human tables, flat CSV,
//! and run-to-run diffs — the library behind the `bmp-report` binary.
//!
//! Everything here is deterministic: documents are processed in
//! name order and the tables round floats to fixed precision, so two
//! renders of the same files are byte-identical (the golden diff test
//! relies on this). The tables and the CSV are selected views of the
//! documents, written through [`Table`]. The JSON output and the diff
//! read each document's own JSON value
//! ([`ExperimentMetrics::to_value`]), so the schema is stated once, in
//! [`bmp_core::metrics`].

use std::path::Path;

use bmp_core::json::Value;
use bmp_core::json_object;
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

/// The whole run as one JSON document, `{"experiments": [...]}`, whose
/// elements are the metrics documents' own values
/// ([`ExperimentMetrics::to_value`]) in file-name order. A version-1
/// document appears in its current-version form.
pub fn to_json(docs: &[ExperimentMetrics]) -> String {
    let experiments: Value = docs.iter().map(ExperimentMetrics::to_value).collect();
    format!("{}\n", json_object! { "experiments": experiments })
}

/// The outcome of comparing two metrics runs.
#[derive(Debug, Default)]
pub struct Diff {
    /// One line per changed scalar (`path old -> new`), where `path`
    /// is the value's JSON path in its document.
    pub changes: Vec<String>,
    /// Documents, entries or fields present only in the new run.
    pub added: Vec<String>,
    /// Documents, entries or fields present only in the old run.
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

    /// Compares `old` and `new` at `path`: containers member by member
    /// (see [`members`]), scalars by value.
    fn walk(&mut self, path: &str, old: &Value, new: &Value) {
        let (Some(old_members), Some(new_members)) = (members(path, old), members(path, new))
        else {
            if old != new {
                self.changes
                    .push(format!("{path} {old} -> {new}{}", pct(old, new)));
            }
            return;
        };
        for (p, o) in &old_members {
            match new_members.iter().find(|(q, _)| q == p) {
                Some((_, n)) => self.walk(p, o, n),
                None => self.removed.push(p.clone()),
            }
        }
        for (p, _) in &new_members {
            if !old_members.iter().any(|(q, _)| q == p) {
                self.added.push(p.clone());
            }
        }
    }
}

/// The members of a container as `(path, value)` pairs, or `None` for
/// a scalar. Object fields sit at `path.key`. Array elements that are
/// objects sit at `path[key]`, keyed by their non-empty string fields
/// (`name` for a document, `workload,predictor` for a workload entry,
/// `class` for a class row), so entries pair up across runs by
/// identity, not position. A top-level document sits at its name.
/// Other array elements, the histograms' buckets, have no members to
/// compare.
fn members<'a>(path: &str, value: &'a Value) -> Option<Vec<(String, &'a Value)>> {
    match value {
        Value::Object(fields) => Some(
            (fields.iter())
                .map(|(k, v)| (format!("{path}.{k}"), v))
                .collect(),
        ),
        Value::Array(items) => Some(
            (items.iter())
                .filter_map(|item| {
                    let Value::Object(fields) = item else {
                        return None;
                    };
                    let names: Vec<&str> = (fields.iter())
                        .filter_map(|(_, v)| match v {
                            Value::String(s) if !s.is_empty() => Some(s.as_str()),
                            _ => None,
                        })
                        .collect();
                    let key = names.join(",");
                    let p = if path.is_empty() {
                        key
                    } else {
                        format!("{path}[{key}]")
                    };
                    Some((p, item))
                })
                .collect(),
        ),
        _ => None,
    }
}

/// The relative change ` (+x.xx%)` between two numbers; empty for
/// non-numbers or a zero `old`.
fn pct(old: &Value, new: &Value) -> String {
    match (old.as_f64(""), new.as_f64("")) {
        (Ok(old), Ok(new)) if old != 0.0 => format!(" ({:+.2}%)", (new - old) / old * 100.0),
        _ => String::new(),
    }
}

/// Compares two metrics runs by walking their documents' own JSON
/// ([`ExperimentMetrics::to_value`]), so every field of the schema is
/// compared and a version-1 document is compared in its current form.
/// Histograms do not drive the diff; the totals they bucket do.
pub fn diff(old: &[ExperimentMetrics], new: &[ExperimentMetrics]) -> Diff {
    let run = |docs: &[ExperimentMetrics]| {
        docs.iter()
            .map(ExperimentMetrics::to_value)
            .collect::<Value>()
    };
    let mut d = Diff::default();
    d.walk("", &run(old), &run(new));
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
            .and_then(|r| r.get_array("experiments"))
            .unwrap();
        // Each element is the document's own value, in the given order.
        assert_eq!(exps.len(), docs.len());
        for (e, doc) in exps.iter().zip(&docs) {
            assert_eq!(*e, doc.to_value());
        }
        // The totals behind the tables' cpi and mean penalty, with their
        // interval counts, and no model section.
        let w = json_workload(&docs[0]).unwrap();
        assert_eq!(w.get_u64("cycles"), Ok(4_000));
        assert_eq!(w.get_u64("instructions"), Ok(2_000));
        assert_eq!(w.get_u64("resolution_total"), Ok(11));
        assert_eq!(w.get_u64("refill_total"), Ok(5));
        assert_eq!(w.get_object("intervals").unwrap().get_u64("bmiss"), Ok(1));
        assert!(w.get("model").is_none());
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
            w.get("branch_classes").cloned()
        };
        let expected = r#"[
            { "class": "h2p", "sites": 2, "intervals": 9, "local_resolution": 90, "refill": 45 },
            { "class": "biased", "sites": 7, "intervals": 1, "local_resolution": 4, "refill": 5 }
        ]"#;
        assert_eq!(classes(&doc), Some(json::parse(expected).unwrap()));
        // No attributions → no class table, and no JSON field.
        let plain = sample_doc("a", 100);
        assert!(class_stack_tables(std::slice::from_ref(&plain)).is_empty());
        assert_eq!(classes(&plain), None);
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
                .any(|c| c
                    == "a.workloads[gzip,tage].branch_classes[h2p].intervals 9 -> 11 (+22.22%)"),
            "{:?}",
            d.changes
        );
        assert_eq!(
            d.removed,
            vec!["a.workloads[gzip,tage].branch_classes[biased]".to_string()]
        );
        // A different predictor under the same workload name is a
        // distinct entry, not a value diff.
        let mut other = classed_doc("a");
        other.workloads[0].predictor = "bimodal".into();
        let d = diff(&old, &[other]);
        assert!(d.changes.is_empty(), "{:?}", d.changes);
        assert_eq!(d.removed, vec!["a.workloads[gzip,tage]".to_string()]);
        assert_eq!(d.added, vec!["a.workloads[gzip,bimodal]".to_string()]);
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
                .any(|c| c == "a.workloads[gzip].cycles 100 -> 120 (+20.00%)"),
            "{:?}",
            d.changes
        );
        assert!(d
            .changes
            .iter()
            .any(|c| c == "a.workloads[gzip].mispredicts 1 -> 2 (+100.00%)"));
        assert_eq!(d.removed, vec!["gone".to_string()]);
        assert_eq!(d.added, vec!["fresh".to_string()]);
    }

    #[test]
    fn every_document_field_drives_the_diff() {
        use bmp_core::cpi::CpiStack;
        use bmp_core::ModelMetrics;
        let mut old = sample_doc("a", 100);
        old.workloads[0].model = Some(ModelMetrics {
            intervals: 1,
            resolution: 11,
            local_resolution: 2,
            base: 2,
            ilp: 0,
            fu_latency: 0,
            short_dmiss: 0,
            carryover: 9,
            refill: 5,
            cpi_stack: CpiStack {
                instructions: 2_000,
                base_cycles: 500.0,
                branch_cycles: 16.0,
                icache_cycles: 0.0,
                long_dmiss_cycles: 0.0,
            },
        });
        let mut newer = old.clone();
        newer.workloads[0].model.as_mut().unwrap().local_resolution = 3;
        let d = diff(std::slice::from_ref(&old), std::slice::from_ref(&newer));
        assert!(!d.is_empty());
        assert_eq!(
            d.changes,
            ["a.workloads[gzip].model.local_resolution 2 -> 3 (+50.00%)"]
        );
        let mut deeper = old.clone();
        deeper.workloads[0].frontend_depth = 6;
        let d = diff(&[old], &[deeper]);
        assert_eq!(
            d.changes,
            ["a.workloads[gzip].frontend_depth 5 -> 6 (+20.00%)"]
        );
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
