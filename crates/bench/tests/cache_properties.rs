//! Property tests for the content-addressed artifact cache: going through
//! the cache must be observationally identical to fresh synthesis, for
//! arbitrary `(profile, ops, seed)` triples, and concurrent lookups must
//! collapse onto one shared instance.

use std::sync::Arc;

use bmp_bench::{Ctx, Scale};
use bmp_workloads::spec;
use proptest::prelude::*;

fn arb_scale() -> impl Strategy<Value = Scale> {
    (100usize..3_000, 0u64..1_000).prop_map(|(ops, seed)| Scale { ops, seed })
}

fn arb_profile_name() -> impl Strategy<Value = &'static str> {
    (0usize..spec::NAMES.len()).prop_map(|i| spec::NAMES[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cache is transparent: a cache-mediated trace is the compiled
    /// form of a fresh synthesis from the same profile and scale, and
    /// rebuilds it op for op.
    #[test]
    fn cached_trace_equals_fresh_synthesis(name in arb_profile_name(), scale in arb_scale()) {
        let ctx = Ctx::new();
        let cached = ctx.trace(&spec::by_name(name).expect("known profile"), scale);
        let fresh = spec::by_name(name)
            .expect("known profile")
            .generate(scale.ops, scale.seed);
        prop_assert_eq!(cached.trace().as_ref(), &fresh.compile());
        prop_assert_eq!(cached.to_trace(), fresh);
    }

    /// Concurrent lookups of the same key return the same shared
    /// instance, computed exactly once.
    #[test]
    fn concurrent_lookups_share_one_trace(name in arb_profile_name(), scale in arb_scale()) {
        let ctx = Ctx::new();
        let profile = spec::by_name(name).expect("known profile");
        let handles: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| ctx.trace(&profile, scale)))
                .collect();
            workers.into_iter().map(|w| w.join().expect("no panic")).collect()
        });
        for h in &handles[1..] {
            prop_assert!(Arc::ptr_eq(handles[0].trace(), h.trace()));
            prop_assert_eq!(handles[0].key(), h.key());
        }
        prop_assert_eq!(ctx.cache_stats().trace_misses, 1, "exactly one synthesis");
    }

    /// Distinct scales or profiles never alias in the cache.
    #[test]
    fn distinct_keys_never_alias(
        name in arb_profile_name(),
        scale in arb_scale(),
        bump in 1usize..50,
    ) {
        let ctx = Ctx::new();
        let profile = spec::by_name(name).expect("known profile");
        let a = ctx.trace(&profile, scale);
        let b = ctx.trace(
            &profile,
            Scale { ops: scale.ops + bump, seed: scale.seed },
        );
        prop_assert_ne!(a.key(), b.key());
        prop_assert!(!Arc::ptr_eq(a.trace(), b.trace()));
        prop_assert_eq!(ctx.cache_stats().trace_misses, 2);
    }
}
