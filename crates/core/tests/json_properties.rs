//! Robustness of the workspace's one JSON reader and writer and of the
//! metrics schema built on them: arbitrary and mutated bytes are an
//! error (or a value that re-serializes stably), never a panic, and
//! every writer output reads back to exactly what was written.

use bmp_core::cpi::CpiStack;
use bmp_core::json::{self, Value, MAX_DEPTH};
use bmp_core::metrics::{
    ClassPenalty, ExperimentMetrics, IntervalCounts, ModelMetrics, WorkloadMetrics,
};
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};

/// Characters that stress the escaper and the UTF-8 reader: quotes,
/// backslashes, control characters, DEL, and multi-byte text.
const NASTY: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
    'é', '—', '中', '😀',
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(NASTY.to_vec()), 0..12)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Finite floats: arbitrary bit patterns plus the extremes whose
/// shortest spelling needs an exponent in other writers.
fn arb_float() -> impl Strategy<Value = f64> {
    let special = [0.0, -0.0, 0.1, -2.5, 1e300, -1e-300, 5e-324, f64::MAX];
    (any::<u64>(), 0..2 * special.len()).prop_map(move |(raw, pick)| {
        let x = special.get(pick).copied().unwrap_or(f64::from_bits(raw));
        if x.is_finite() {
            x
        } else {
            raw as f64
        }
    })
}

/// A random [`Value`] tree with at most `depth` container levels.
/// Integers are canonical (non-negative ones in `UInt`), the form the
/// reader produces.
#[derive(Clone, Copy)]
struct ArbValue {
    depth: usize,
}

impl Strategy for ArbValue {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Option<Value> {
        let kinds = if self.depth == 0 { 6 } else { 8 };
        let raw = any::<u64>().sample(rng)?;
        let inner = ArbValue {
            depth: self.depth.saturating_sub(1),
        };
        Some(match (0..kinds).sample(rng)? {
            0 => Value::Null,
            1 => Value::Bool(raw & 1 == 0),
            // Every magnitude, with 0 and u64::MAX among them.
            2 => Value::UInt([0, u64::MAX, raw >> (raw % 64)][(raw % 5).min(2) as usize]),
            3 => Value::Int(i64::MIN + (raw >> 1) as i64),
            4 => Value::Float(arb_float().sample(rng)?),
            5 => Value::String(arb_string().sample(rng)?),
            6 => Value::Array(prop::collection::vec(inner, 0..4).sample(rng)?),
            _ => Value::Object(prop::collection::vec((arb_string(), inner), 0..4).sample(rng)?),
        })
    }
}

/// A random tree wrapped in up to `MAX_DEPTH - 3` single-member
/// containers, so nesting reaches the reader's depth limit.
fn arb_value() -> impl Strategy<Value = Value> {
    (
        ArbValue { depth: 3 },
        0..=MAX_DEPTH - 3,
        any::<u64>(),
        arb_string(),
    )
        .prop_map(|(mut v, wraps, kinds, key)| {
            for level in 0..wraps {
                v = if kinds >> (level % 64) & 1 == 0 {
                    Value::Array(vec![v])
                } else {
                    Value::Object(vec![(key.clone(), v)])
                };
            }
            v
        })
}

/// Applies overwrite/truncate/insert edits to `bytes`.
fn mutate(mut bytes: Vec<u8>, edits: Vec<(usize, u8, u8)>) -> String {
    for (at, byte, op) in edits {
        let at = at % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.truncate(at),
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn arb_edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    prop::collection::vec((any::<usize>(), 0u8..=255, 0u8..3), 1..6)
}

/// Whatever the reader accepts prints to a document that reads back to
/// a value printing the same bytes: the writer's output is a fixed point.
fn reserializes_stably(v: &Value) -> Result<(), TestCaseError> {
    let text = v.to_string();
    let again = json::parse(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
    prop_assert_eq!(again.to_string(), text);
    Ok(())
}

/// A random metrics document: arbitrary counters, finite floats, nasty
/// names, and optional v2 fields and model sections.
struct ArbMetrics;

impl Strategy for ArbMetrics {
    type Value = ExperimentMetrics;

    fn sample(&self, rng: &mut TestRng) -> Option<ExperimentMetrics> {
        let u = |rng: &mut TestRng| any::<u64>().sample(rng).expect("any never rejects");
        let s = |rng: &mut TestRng| arb_string().sample(rng).expect("strings never reject");
        let f = |rng: &mut TestRng| arb_float().sample(rng).expect("floats never reject");
        let mut doc = ExperimentMetrics::new(s(rng), u(rng), u(rng));
        for _ in 0..u(rng) % 4 {
            let classes = (0..u(rng) % 3).map(|_| ClassPenalty {
                class: s(rng),
                sites: u(rng),
                intervals: u(rng),
                local_resolution: u(rng),
                refill: u(rng),
            });
            let branch_classes = classes.collect();
            let model = (u(rng) % 2 == 0).then(|| ModelMetrics {
                intervals: u(rng),
                resolution: u(rng),
                local_resolution: u(rng),
                base: u(rng),
                ilp: u(rng),
                fu_latency: u(rng),
                short_dmiss: u(rng),
                carryover: u(rng) as i64,
                refill: u(rng),
                cpi_stack: CpiStack {
                    instructions: u(rng),
                    base_cycles: f(rng),
                    branch_cycles: f(rng),
                    icache_cycles: f(rng),
                    long_dmiss_cycles: f(rng),
                },
            });
            let histogram = |rng: &mut TestRng| (0..u(rng) % 12).map(|_| u(rng)).collect();
            doc.workloads.push(WorkloadMetrics {
                workload: s(rng),
                predictor: s(rng),
                branch_classes,
                instructions: u(rng),
                cycles: u(rng),
                frontend_depth: u(rng) as u32,
                mispredicts: u(rng),
                intervals: IntervalCounts {
                    bmiss: u(rng),
                    il1: u(rng),
                    il2: u(rng),
                    dlong: u(rng),
                },
                resolution_total: u(rng),
                refill_total: u(rng),
                occupancy_total: u(rng),
                length_histogram: histogram(rng),
                resolution_histogram: histogram(rng),
                model,
            });
        }
        Some(doc)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value the writer prints reads back to itself.
    #[test]
    fn values_round_trip(v in arb_value()) {
        let text = v.to_string();
        let back = json::parse(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
        prop_assert_eq!(back, v);
    }

    /// Arbitrary bytes never panic the reader; the rare input that is a
    /// document (a bare number, say) re-serializes stably.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        if let Ok(v) = json::parse(&String::from_utf8_lossy(&bytes)) {
            reserializes_stably(&v)?;
        }
    }

    /// Flipped, truncated and spliced writer output never panics the
    /// reader; whatever still parses re-serializes stably.
    #[test]
    fn mutated_values_never_panic(v in arb_value(), edits in arb_edits()) {
        if let Ok(parsed) = json::parse(&mutate(v.to_string().into_bytes(), edits)) {
            reserializes_stably(&parsed)?;
        }
    }

    /// Every metrics document reads back to itself, byte-stably.
    #[test]
    fn metrics_documents_round_trip(doc in ArbMetrics) {
        let text = doc.to_json();
        let back = ExperimentMetrics::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
        prop_assert_eq!(&back, &doc);
        prop_assert_eq!(back.to_json(), text);
    }

    /// Arbitrary bytes are never a metrics document.
    #[test]
    fn arbitrary_bytes_are_not_metrics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        prop_assert!(ExperimentMetrics::parse(&String::from_utf8_lossy(&bytes)).is_err());
    }

    /// Mutated metrics documents never panic the schema reader; whatever
    /// still parses re-serializes to itself.
    #[test]
    fn mutated_metrics_never_panic(doc in ArbMetrics, edits in arb_edits()) {
        let text = mutate(doc.to_json().into_bytes(), edits);
        if let Ok(parsed) = ExperimentMetrics::parse(&text) {
            let again = ExperimentMetrics::parse(&parsed.to_json())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(again, parsed);
        }
    }
}
