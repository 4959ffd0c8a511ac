//! Property tests over the executed-kernel pipeline (ISSUE 10): for
//! every kernel, at randomized op budgets and seeds, the recorded trace
//! must (a) pass the BMP1xx well-formedness and BMP9xx provenance lint
//! families with zero findings, and (b) produce bit-identical results
//! on both simulation engines after the CompiledTrace / SuperblockMap
//! round-trip the event-driven engine consumes.
//!
//! These are the executor's external contracts: the bench registry, the
//! analyzers and the golden tables all assume them per-kernel at fixed
//! scales; this test asserts them across the input space.

use bmp_sim::Simulator;
use bmp_trace::SuperblockMap;
use bmp_uarch::presets;
use proptest::prelude::*;

fn lint_codes(trace: &bmp_trace::Trace) -> Vec<&'static str> {
    bmp_analyze::lint_trace(trace)
        .iter()
        .chain(bmp_analyze::lint_executed_trace(trace).iter())
        .map(|d| d.code)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_traces_are_lint_clean_and_engine_identical(
        kernel in prop::sample::select(bmp_isa::NAMES.to_vec()),
        ops in 512_usize..4096,
        seed in 0_u64..1024,
    ) {
        let trace = bmp_isa::kernel_trace(kernel, ops, seed).expect("registered kernel");
        prop_assert_eq!(trace.len(), ops, "executed traces fill the op budget exactly");

        // (a) Zero findings from both lint families.
        let codes = lint_codes(&trace);
        prop_assert!(codes.is_empty(), "{}: lint findings {:?}", kernel, codes);

        // (b) The compiled round-trip drives the event-driven engine to
        // the same result the reference engine computes from the raw
        // trace — bit identity, not approximate agreement.
        let cfg = presets::baseline_4wide();
        let sim = Simulator::new(cfg.clone());
        let compiled = trace.compile();
        let sb = SuperblockMap::build(&compiled, cfg.caches.l1i().line_bytes());
        let event = sim.try_run_compiled_with(&compiled, &sb).unwrap();
        let reference = sim.try_run_reference(&trace).unwrap();
        prop_assert_eq!(event, reference, "{}: engines diverged", kernel);
    }

    #[test]
    fn kernel_traces_are_deterministic(
        kernel in prop::sample::select(bmp_isa::NAMES.to_vec()),
        seed in 0_u64..1024,
    ) {
        let a = bmp_isa::kernel_trace(kernel, 1_500, seed).expect("registered kernel");
        let b = bmp_isa::kernel_trace(kernel, 1_500, seed).expect("registered kernel");
        prop_assert_eq!(a.ops(), b.ops(), "{}: re-execution diverged", kernel);
    }
}

#[test]
fn unknown_kernel_is_none() {
    assert!(bmp_isa::kernel_trace("gzip", 1_000, 1).is_none());
    assert!(bmp_isa::kernel_trace("", 1_000, 1).is_none());
}
