//! The metrics-file schema: per-experiment observability artifacts.
//!
//! When `bmp-bench` runs with `BMP_METRICS=1` it writes one JSON file
//! per experiment under `results/metrics/`, aggregating the
//! per-interval records of [`crate::accounting`] into per-workload
//! histograms plus the analytical model's contributor totals and CPI
//! stack. This module is the *schema*: the struct definitions, the
//! aggregation from raw records, and the JSON round-trip through the
//! workspace's one reader and writer, [`crate::json`].
//!
//! The schema lives in `bmp-core` rather than the bench crate so
//! `bmp-analyze` can lint metrics files (rule family BMP5xx) without
//! depending on the harness, and `bmp-report` can render them without
//! depending on the analyzer. Field-by-field documentation and the
//! accounting identities the lints enforce are in
//! `docs/OBSERVABILITY.md` — keep the two in sync.

use crate::accounting::IntervalRecord;
use crate::cpi::CpiStack;
use crate::intervals::{bucket_index, IntervalEventKind, HISTOGRAM_BUCKETS};
use crate::json::{self, JsonError, ObjectExt, Value};
use crate::json_object;
use crate::penalty::PenaltyAnalysis;

/// Metrics format version written by this crate. Version 2 added the
/// per-workload `predictor` name and `branch_classes` attribution rows;
/// readers still accept version-1 documents (the new fields default to
/// empty) and reject anything newer.
pub const METRICS_VERSION: u32 = 2;

/// Interval counts by terminating-event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalCounts {
    /// Branch-misprediction intervals.
    pub bmiss: u64,
    /// L1 I-cache-miss intervals.
    pub il1: u64,
    /// Long (memory) I-cache-miss intervals.
    pub il2: u64,
    /// Long D-cache-miss intervals.
    pub dlong: u64,
}

impl IntervalCounts {
    /// Total intervals across all kinds.
    pub fn total(&self) -> u64 {
        self.bmiss + self.il1 + self.il2 + self.dlong
    }
}

/// The analytical model's aggregate accounting for one workload:
/// contributor totals over every mispredicted branch plus the
/// first-order CPI stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMetrics {
    /// Branch intervals the model analyzed (breakdown count).
    pub intervals: u64,
    /// Sum of observed (whole-trace-schedule) resolution times.
    pub resolution: u64,
    /// Sum of isolated-schedule resolution times. Equals
    /// `base + ilp + fu_latency + short_dmiss` — the BMP501 identity.
    pub local_resolution: u64,
    /// Contributor total: resolution floor.
    pub base: u64,
    /// Contributor total: dependence-chain (ILP) share.
    pub ilp: u64,
    /// Contributor total: functional-unit-latency share.
    pub fu_latency: u64,
    /// Contributor total: short D-miss share.
    pub short_dmiss: u64,
    /// Cross-interval carryover total; closes the gap between
    /// `local_resolution` and `resolution` (may be negative).
    pub carryover: i64,
    /// Frontend refill total (`breakdown count × frontend depth`).
    pub refill: u64,
    /// The first-order CPI stack for the workload.
    pub cpi_stack: CpiStack,
}

impl ModelMetrics {
    /// Aggregates a finished penalty analysis plus its CPI stack.
    pub fn from_analysis(analysis: &PenaltyAnalysis, cpi_stack: CpiStack) -> Self {
        let mut m = Self {
            intervals: analysis.breakdowns.len() as u64,
            resolution: 0,
            local_resolution: 0,
            base: 0,
            ilp: 0,
            fu_latency: 0,
            short_dmiss: 0,
            carryover: 0,
            refill: 0,
            cpi_stack,
        };
        for b in &analysis.breakdowns {
            m.resolution += b.resolution;
            m.local_resolution += b.local_resolution;
            m.base += b.base;
            m.ilp += b.ilp;
            m.fu_latency += b.fu_latency;
            m.short_dmiss += b.short_dmiss;
            m.carryover += b.carryover;
            m.refill += u64::from(b.frontend);
        }
        m
    }
}

/// Penalty attribution for one branch predictability class (schema v2).
///
/// The class labels are the static analyzer's
/// (`biased`/`patterned`/`mixed`/`h2p`/`indirect`); the cycle totals are
/// the exact static-pass local resolutions plus the refill identity, so
/// `local_resolution + refill` sums charged cycles per class (lint
/// BMP700 checks the labels, BMP701 the interval sum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassPenalty {
    /// Class label (`biased`, `patterned`, `mixed`, `h2p`, `indirect`).
    pub class: String,
    /// Static branch sites in the class.
    pub sites: u64,
    /// Mispredicted-branch intervals terminated by a site of this class.
    pub intervals: u64,
    /// Local-resolution cycles charged to the class.
    pub local_resolution: u64,
    /// Frontend-refill cycles charged (`intervals × depth`).
    pub refill: u64,
}

impl ClassPenalty {
    /// Total cycles charged (local resolution + refill).
    pub fn total(&self) -> u64 {
        self.local_resolution + self.refill
    }
}

/// One workload's aggregated accounting within an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMetrics {
    /// Workload name (e.g. `gzip`).
    pub workload: String,
    /// Direction-predictor name of the simulated machine (schema v2;
    /// empty for version-1 documents, which implied the baseline).
    pub predictor: String,
    /// Per-branch-class penalty attribution (schema v2; empty when the
    /// experiment recorded no classifier pass).
    pub branch_classes: Vec<ClassPenalty>,
    /// Instructions covered by the statistics epoch.
    pub instructions: u64,
    /// Cycles covered by the statistics epoch.
    pub cycles: u64,
    /// Frontend depth of the simulated machine (the refill term).
    pub frontend_depth: u32,
    /// Mispredicted branches recorded by the simulator. BMP502 checks
    /// this equals `intervals.bmiss`.
    pub mispredicts: u64,
    /// Interval counts by kind, from the simulator's records.
    pub intervals: IntervalCounts,
    /// Sum of branch resolution times over all branch intervals.
    pub resolution_total: u64,
    /// Sum of frontend refills over all branch intervals.
    pub refill_total: u64,
    /// Sum of window occupancies at dispatch over all branch intervals.
    pub occupancy_total: u64,
    /// Interval lengths bucketed per [`bucket_index`]
    /// ([`HISTOGRAM_BUCKETS`] entries; all interval kinds). BMP504
    /// checks the bucket sum equals `intervals.total()`.
    pub length_histogram: Vec<u64>,
    /// Branch resolution times bucketed per the same boundaries
    /// (branch intervals only; bucket sum equals `intervals.bmiss`).
    pub resolution_histogram: Vec<u64>,
    /// The analytical model's view, when the experiment ran an
    /// analysis cell for this workload.
    pub model: Option<ModelMetrics>,
}

impl WorkloadMetrics {
    /// Aggregates simulator-side interval records. `mispredicts` is the
    /// simulator's own mispredict count, carried separately so the
    /// BMP502 cross-check stays meaningful.
    pub fn from_records(
        workload: impl Into<String>,
        instructions: u64,
        cycles: u64,
        frontend_depth: u32,
        mispredicts: u64,
        records: &[IntervalRecord],
    ) -> Self {
        let mut m = Self {
            workload: workload.into(),
            predictor: String::new(),
            branch_classes: Vec::new(),
            instructions,
            cycles,
            frontend_depth,
            mispredicts,
            intervals: IntervalCounts::default(),
            resolution_total: 0,
            refill_total: 0,
            occupancy_total: 0,
            length_histogram: vec![0; HISTOGRAM_BUCKETS],
            resolution_histogram: vec![0; HISTOGRAM_BUCKETS],
            model: None,
        };
        for r in records {
            match r.kind {
                IntervalEventKind::BranchMispredict => {
                    m.intervals.bmiss += 1;
                    m.resolution_total += r.resolution;
                    m.refill_total += u64::from(r.refill);
                    m.occupancy_total += u64::from(r.occupancy);
                    m.resolution_histogram[bucket_index(r.resolution)] += 1;
                }
                IntervalEventKind::ICacheMiss => m.intervals.il1 += 1,
                IntervalEventKind::ICacheLongMiss => m.intervals.il2 += 1,
                IntervalEventKind::LongDCacheMiss => m.intervals.dlong += 1,
            }
            m.length_histogram[bucket_index(r.len())] += 1;
        }
        m
    }

    /// Measured cycles per instruction (0 for an empty epoch).
    pub fn measured_cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Mean observed branch penalty (resolution + refill), if any
    /// branch intervals were recorded.
    pub fn mean_penalty(&self) -> Option<f64> {
        if self.intervals.bmiss == 0 {
            None
        } else {
            Some((self.resolution_total + self.refill_total) as f64 / self.intervals.bmiss as f64)
        }
    }
}

/// One experiment's metrics file: run identity plus per-workload
/// aggregates, in cell order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentMetrics {
    /// Experiment name (matches the registry and the CSV stem).
    pub name: String,
    /// Instruction budget of the run (`BMP_OPS`).
    pub ops: u64,
    /// Trace seed of the run (`BMP_SEED`).
    pub seed: u64,
    /// Per-workload aggregates.
    pub workloads: Vec<WorkloadMetrics>,
}

impl ExperimentMetrics {
    /// An empty metrics document for an experiment.
    pub fn new(name: impl Into<String>, ops: u64, seed: u64) -> Self {
        Self {
            name: name.into(),
            ops,
            seed,
            workloads: Vec::new(),
        }
    }

    /// The document as a JSON value, at the current
    /// [`METRICS_VERSION`] whatever version it was parsed from.
    pub fn to_value(&self) -> Value {
        json_object! {
            "version": METRICS_VERSION,
            "name": self.name.as_str(),
            "ops": self.ops,
            "seed": self.seed,
            "workloads": self.workloads.iter().map(workload_value).collect::<Value>(),
        }
    }

    /// Serializes the document as JSON (trailing newline; layout per
    /// [`Value`]'s `Display`). Deterministic: same document, same bytes.
    pub fn to_json(&self) -> String {
        format!("{}\n", self.to_value())
    }

    /// Parses a document previously written by
    /// [`to_json`](Self::to_json) (or any JSON with the same shape).
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let value = json::parse(text)?;
        let obj = value.as_object("metrics root")?;
        let version = obj.get_u64("version")? as u32;
        if version == 0 || version > METRICS_VERSION {
            return Err(JsonError::new(format!(
                "unsupported metrics version {version} (expected 1..={METRICS_VERSION})"
            )));
        }
        let mut doc = Self::new(
            obj.get_string("name")?,
            obj.get_u64("ops")?,
            obj.get_u64("seed")?,
        );
        for item in obj.get_array("workloads")? {
            let w = item.as_object("workload entry")?;
            let counts = w.get_object("intervals")?;
            let model = match w.get("model") {
                None => None,
                Some(v) => {
                    let m = v.as_object("model")?;
                    let stack = m.get_object("cpi_stack")?;
                    Some(ModelMetrics {
                        intervals: m.get_u64("intervals")?,
                        resolution: m.get_u64("resolution")?,
                        local_resolution: m.get_u64("local_resolution")?,
                        base: m.get_u64("base")?,
                        ilp: m.get_u64("ilp")?,
                        fu_latency: m.get_u64("fu_latency")?,
                        short_dmiss: m.get_u64("short_dmiss")?,
                        carryover: m.get_i64("carryover")?,
                        refill: m.get_u64("refill")?,
                        cpi_stack: CpiStack {
                            instructions: stack.get_u64("instructions")?,
                            base_cycles: stack.get_f64("base_cycles")?,
                            branch_cycles: stack.get_f64("branch_cycles")?,
                            icache_cycles: stack.get_f64("icache_cycles")?,
                            long_dmiss_cycles: stack.get_f64("long_dmiss_cycles")?,
                        },
                    })
                }
            };
            // Schema-v2 fields; absent from version-1 documents.
            let predictor = match w.get("predictor") {
                Some(v) => v.as_string("predictor")?.to_string(),
                None => String::new(),
            };
            let branch_classes = match w.get("branch_classes") {
                None => Vec::new(),
                Some(v) => v
                    .as_array("branch_classes")?
                    .iter()
                    .map(|item| {
                        let c = item.as_object("branch class entry")?;
                        Ok(ClassPenalty {
                            class: c.get_string("class")?.to_string(),
                            sites: c.get_u64("sites")?,
                            intervals: c.get_u64("intervals")?,
                            local_resolution: c.get_u64("local_resolution")?,
                            refill: c.get_u64("refill")?,
                        })
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?,
            };
            doc.workloads.push(WorkloadMetrics {
                workload: w.get_string("workload")?.to_string(),
                predictor,
                branch_classes,
                instructions: w.get_u64("instructions")?,
                cycles: w.get_u64("cycles")?,
                frontend_depth: w.get_u64("frontend_depth")? as u32,
                mispredicts: w.get_u64("mispredicts")?,
                intervals: IntervalCounts {
                    bmiss: counts.get_u64("bmiss")?,
                    il1: counts.get_u64("il1")?,
                    il2: counts.get_u64("il2")?,
                    dlong: counts.get_u64("dlong")?,
                },
                resolution_total: w.get_u64("resolution_total")?,
                refill_total: w.get_u64("refill_total")?,
                occupancy_total: w.get_u64("occupancy_total")?,
                length_histogram: parse_u64_array(w.get_array("length_histogram")?)?,
                resolution_histogram: parse_u64_array(w.get_array("resolution_histogram")?)?,
                model,
            });
        }
        Ok(doc)
    }
}

/// One workload entry; the schema-v2 `branch_classes` and the `model`
/// section appear only when present.
fn workload_value(w: &WorkloadMetrics) -> Value {
    let i = &w.intervals;
    let classes = w.branch_classes.iter().map(|c| {
        json_object! {
            "class": c.class.as_str(), "sites": c.sites, "intervals": c.intervals,
            "local_resolution": c.local_resolution, "refill": c.refill,
        }
    });
    let model = w.model.as_ref().map(|m| {
        let s = &m.cpi_stack;
        json_object! {
            "intervals": m.intervals,
            "resolution": m.resolution,
            "local_resolution": m.local_resolution,
            "base": m.base,
            "ilp": m.ilp,
            "fu_latency": m.fu_latency,
            "short_dmiss": m.short_dmiss,
            "carryover": m.carryover,
            "refill": m.refill,
            "cpi_stack": json_object! {
                "instructions": s.instructions, "base_cycles": s.base_cycles,
                "branch_cycles": s.branch_cycles, "icache_cycles": s.icache_cycles,
                "long_dmiss_cycles": s.long_dmiss_cycles,
            },
        }
    });
    json_object! {
        "workload": w.workload.as_str(),
        "predictor": w.predictor.as_str(),
        "instructions": w.instructions,
        "cycles": w.cycles,
        "frontend_depth": w.frontend_depth,
        "mispredicts": w.mispredicts,
        "intervals": json_object! { "bmiss": i.bmiss, "il1": i.il1, "il2": i.il2, "dlong": i.dlong },
        "resolution_total": w.resolution_total,
        "refill_total": w.refill_total,
        "occupancy_total": w.occupancy_total,
        "length_histogram": w.length_histogram.iter().copied().collect::<Value>(),
        "resolution_histogram": w.resolution_histogram.iter().copied().collect::<Value>(),
        "branch_classes"?: (!w.branch_classes.is_empty()).then(|| classes.collect::<Value>()),
        "model"?: model,
    }
}

fn parse_u64_array(items: &[Value]) -> Result<Vec<u64>, JsonError> {
    items.iter().map(|v| v.as_u64("histogram bucket")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::records_from_analysis;
    use crate::intervals::{bucket_label, LENGTH_BUCKETS};
    use crate::penalty::PenaltyModel;
    use bmp_uarch::presets;
    use bmp_workloads::spec;

    fn sample_records() -> Vec<IntervalRecord> {
        let base = IntervalRecord {
            kind: IntervalEventKind::ICacheMiss,
            start: 0,
            pos: 9,
            resolution: 0,
            refill: 0,
            occupancy: 0,
            base: 0,
            ilp: 0,
            fu_latency: 0,
            short_dmiss: 0,
            carryover: 0,
        };
        vec![
            base,
            IntervalRecord {
                kind: IntervalEventKind::BranchMispredict,
                start: 10,
                pos: 41,
                resolution: 14,
                refill: 5,
                occupancy: 30,
                ..base
            },
            IntervalRecord {
                kind: IntervalEventKind::LongDCacheMiss,
                start: 42,
                pos: 600,
                ..base
            },
        ]
    }

    #[test]
    fn aggregation_counts_and_buckets() {
        let m = WorkloadMetrics::from_records("gzip", 1_000, 2_500, 5, 1, &sample_records());
        assert_eq!(m.intervals.bmiss, 1);
        assert_eq!(m.intervals.il1, 1);
        assert_eq!(m.intervals.dlong, 1);
        assert_eq!(m.intervals.total(), 3);
        assert_eq!(m.resolution_total, 14);
        assert_eq!(m.refill_total, 5);
        assert_eq!(m.occupancy_total, 30);
        assert_eq!(m.length_histogram.iter().sum::<u64>(), 3);
        assert_eq!(m.resolution_histogram.iter().sum::<u64>(), 1);
        // Lengths 10, 32, 559: buckets for [8,16), [32,64), overflow.
        assert_eq!(m.length_histogram[bucket_index(10)], 1);
        assert_eq!(m.length_histogram[HISTOGRAM_BUCKETS - 1], 1);
        assert!((m.measured_cpi() - 2.5).abs() < 1e-12);
        assert_eq!(m.mean_penalty(), Some(19.0));
    }

    #[test]
    fn bucket_index_matches_histogram_boundaries() {
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(256), 8);
        assert_eq!(bucket_index(511), 8);
        assert_eq!(bucket_index(512), 9);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket is reachable: no histogram slot is always zero.
        for (i, &lo) in LENGTH_BUCKETS.iter().enumerate() {
            assert_eq!(bucket_index(lo as u64), i);
        }
        assert_eq!(bucket_label(HISTOGRAM_BUCKETS - 1), "512+");
        // Resolution 0 (non-branch) would land in bucket 0 — callers
        // only bucket branch resolutions, but it must not panic.
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn json_round_trips_with_and_without_model() {
        let trace = spec::by_name("gzip").unwrap().generate(20_000, 1);
        let cfg = presets::baseline_4wide();
        let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
        let stack = crate::cpi::predict(&trace, &cfg);
        let records = records_from_analysis(&analysis);

        let mut doc = ExperimentMetrics::new("fig2_penalty", 20_000, 1);
        let mut w = WorkloadMetrics::from_records(
            "gzip",
            trace.len() as u64,
            40_000,
            analysis.frontend_depth,
            analysis.breakdowns.len() as u64,
            &records,
        );
        w.model = Some(ModelMetrics::from_analysis(&analysis, stack));
        doc.workloads.push(w.clone());
        w.workload = "plain".into();
        w.model = None;
        doc.workloads.push(w);

        let text = doc.to_json();
        let back = ExperimentMetrics::parse(&text).unwrap();
        assert_eq!(back, doc);
        // Deterministic bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn model_aggregates_preserve_the_identities() {
        let trace = spec::by_name("gcc").unwrap().generate(20_000, 3);
        let cfg = presets::baseline_4wide();
        let analysis = PenaltyModel::new(cfg.clone()).analyze(&trace);
        let stack = crate::cpi::predict(&trace, &cfg);
        let m = ModelMetrics::from_analysis(&analysis, stack);
        // The BMP501 identities, in aggregate.
        assert_eq!(
            m.local_resolution,
            m.base + m.ilp + m.fu_latency + m.short_dmiss
        );
        assert_eq!(m.resolution as i64, m.local_resolution as i64 + m.carryover);
        assert_eq!(m.refill, m.intervals * u64::from(analysis.frontend_depth));
    }

    #[test]
    fn rejects_wrong_version_and_garbage() {
        let doc = ExperimentMetrics::new("x", 1, 1);
        let wrong = doc.to_json().replace("\"version\": 2", "\"version\": 9");
        assert!(ExperimentMetrics::parse(&wrong).is_err());
        let zero = doc.to_json().replace("\"version\": 2", "\"version\": 0");
        assert!(ExperimentMetrics::parse(&zero).is_err());
        assert!(ExperimentMetrics::parse("not json").is_err());
        assert!(ExperimentMetrics::parse("{\"version\": 2}").is_err());
    }

    #[test]
    fn v2_fields_round_trip() {
        let mut doc = ExperimentMetrics::new("ex_predictor_generations", 2_000, 42);
        let mut w = WorkloadMetrics::from_records("gcc", 2_000, 4_100, 5, 1, &sample_records());
        w.predictor = "tage".into();
        w.branch_classes = vec![
            ClassPenalty {
                class: "biased".into(),
                sites: 12,
                intervals: 3,
                local_resolution: 40,
                refill: 15,
            },
            ClassPenalty {
                class: "h2p".into(),
                sites: 2,
                intervals: 9,
                local_resolution: 170,
                refill: 45,
            },
        ];
        doc.workloads.push(w);
        let text = doc.to_json();
        let back = ExperimentMetrics::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_json(), text, "deterministic bytes");
        assert_eq!(back.workloads[0].predictor, "tage");
        assert_eq!(back.workloads[0].branch_classes[1].total(), 215);
    }

    #[test]
    fn version_1_documents_still_parse_with_empty_v2_fields() {
        let mut doc = ExperimentMetrics::new("legacy", 1_000, 7);
        doc.workloads.push(WorkloadMetrics::from_records(
            "gzip",
            1_000,
            2_000,
            5,
            1,
            &sample_records(),
        ));
        // A v1 writer emitted no predictor/branch_classes fields.
        let v1 = doc
            .to_json()
            .replace("\"version\": 2", "\"version\": 1")
            .replace("      \"predictor\": \"\",\n", "");
        assert!(!v1.contains("predictor") && v1.contains("\"version\": 1"));
        let back = ExperimentMetrics::parse(&v1).unwrap();
        assert_eq!(back.workloads[0].predictor, "");
        assert!(back.workloads[0].branch_classes.is_empty());
        assert_eq!(back.workloads[0].intervals.bmiss, 1);
    }
}
