//! The repository benchmark: four single-thread workloads (`suite`,
//! `sweep`, `model`, `kernels`) timed end to end and, in a traced run,
//! layer by layer. See `README.md` in this directory for the command,
//! the workloads, the metrics and the first baseline.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod catalog;
pub mod harness;
pub mod span;
pub mod stats;
pub mod workloads;

#[cfg(test)]
mod tests {
    use bmp_bench::Scale;
    use bmp_core::json::{self, ObjectExt};

    use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
    use crate::span::Tracer;
    use crate::workloads::setup;

    const TINY: Scale = Scale {
        ops: 3_000,
        seed: 5,
    };

    fn names(doc: &Vec<(String, json::Value)>, key: &str) -> Vec<String> {
        doc.get_array(key)
            .unwrap()
            .iter()
            .map(|v| {
                v.as_object(key)
                    .unwrap()
                    .get_string("name")
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = json::parse(&text).unwrap();
        let doc = doc.as_object("BENCHMARK.json").unwrap();
        assert_eq!(names(doc, "workloads"), WORKLOADS);
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get_array(key).unwrap();
            assert_eq!(listed.len(), metrics.len(), "{key}");
            for (v, m) in listed.iter().zip(metrics) {
                let o = v.as_object(key).unwrap();
                assert_eq!(o.get_string("name").unwrap(), m.name);
                assert_eq!(o.get_string("unit").unwrap(), m.unit, "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(o.get_string("better").unwrap(), better, "{}", m.name);
            }
        }

        // Every workload's traced pass reports every per-layer metric
        // the harness does not compute itself, and nothing else.
        let out = crate::harness::out_dir().join(format!("test-{}", std::process::id()));
        for w in WORKLOADS {
            let p = setup(w, TINY, &out).unwrap();
            let pass = p.run(&Tracer::new(true), false);
            let mut emitted: Vec<&str> = pass.layers.iter().map(|(n, _)| *n).collect();
            emitted.push("tracing.overhead_pct");
            emitted.sort_unstable();
            let mut listed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            listed.sort_unstable();
            assert_eq!(emitted, listed, "{w}");
            assert!(pass.failures.is_empty(), "{w}: {:?}", pass.failures);
        }
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn digests_repeat_across_in_process_passes() {
        // These workloads write nothing, so `out` is never created.
        let out = crate::harness::out_dir();
        for w in ["sweep", "model", "kernels"] {
            let p = setup(w, TINY, &out).unwrap();
            let a = p.run(&Tracer::new(false), true);
            let b = p.run(&Tracer::new(true), false);
            assert!(a.failures.is_empty(), "{w}: {:?}", a.failures);
            assert_eq!(a.digest, b.digest, "{w}");
            let other = setup(w, Scale { seed: 6, ..TINY }, &out).unwrap();
            assert_ne!(
                a.digest,
                other.run(&Tracer::new(false), false).digest,
                "{w}"
            );
        }
    }
}
