//! Predictor conformance suite: hand-computed vectors that pin down the
//! exact bit-level behaviour of every direction predictor generation
//! (bimodal, gshare, perceptron, TAGE) and of ITTAGE.
//!
//! Unlike the statistical tests in each predictor's unit module ("learns
//! alternation", "miss rate under X"), every assertion here is derived
//! by hand from the documented update rules — the counter widths and
//! initial values in `counter.rs`, the index/tag hashes in the `tage`
//! module docs, and the provider/altpred/allocation/aging schedule
//! pinned in `tage.rs` and `indirect.rs`. A conformance failure means
//! the predictor's *definition* changed, which silently invalidates
//! every committed golden table; regenerate goldens only after updating
//! the vectors here to the new, intended definition.
//!
//! The suite runs each direction vector through both construction paths
//! (`build_predictor`'s boxed trait object and `InlinePredictor`'s
//! static dispatch) so the two engines' predictors are pinned to the
//! same bit-exact behaviour.

use bmp_branch::{
    build_predictor, DirectionPredictor, InlinePredictor, Ittage, Tage, U_AGING_PERIOD,
};
use bmp_uarch::PredictorConfig;

/// Drives one (pc, outcome) stream through both the boxed and the inline
/// construction of `cfg`, asserting each step's prediction against the
/// hand-computed expectation.
fn run_vector(cfg: &PredictorConfig, steps: &[(u64, bool, bool)]) {
    let mut boxed = build_predictor(cfg);
    let mut inline = InlinePredictor::build(cfg);
    for (i, &(pc, outcome, expected)) in steps.iter().enumerate() {
        assert_eq!(
            boxed.predict(pc, outcome),
            expected,
            "{}: step {i} (pc {pc:#x}) boxed prediction",
            cfg.name()
        );
        assert_eq!(
            inline.predict(pc, outcome),
            expected,
            "{}: step {i} (pc {pc:#x}) inline prediction",
            cfg.name()
        );
        boxed.update(pc, outcome);
        inline.update(pc, outcome);
    }
}

/// Bimodal, 4 entries of 2-bit counters starting at 1 (weakly
/// not-taken); index = (pc >> 2) & 3. The counter walks
/// 1 →T 2 →T 3 →F 2 →F 1 →F 0, predicting taken at values 2 and 3.
#[test]
fn bimodal_counter_walk_and_aliasing() {
    let cfg = PredictorConfig::Bimodal { entries: 4 };
    run_vector(
        &cfg,
        &[
            // pc 0x8 → entry 2: 1(NT) →T 2(T) →T 3(T) →F 2(T) →F 1(NT)
            (0x8, true, false),
            (0x8, true, true),
            (0x8, false, true),
            (0x8, false, true),
            // pc 0x18 → (0x18>>2)&3 = 2: shares the entry (now at 1).
            (0x18, true, false),
            // pc 0xC → entry 3: untouched, still weakly not-taken.
            (0xC, true, false),
            // pc 0x8 again: the 0x18 update drove entry 2 back to 2.
            (0x8, true, true),
        ],
    );
}

/// GShare, 16 entries, 4 history bits: index = ((pc>>2) ^ h) & 15,
/// h' = ((h<<1)|taken) & 15. For pc 0x40 ((pc>>2)&15 = 0) under strict
/// alternation T,F,T,F,… the history register walks
/// 0 →T 1 →F 2 →T 5 →F 10 →T 5 →F 10 … so from step 5 on the index
/// ping-pongs between entries 5 and 10; entry 10 was trained taken at
/// step 5 (value 2) and entry 5 trained to 0 at steps 4 and 6, making
/// every prediction from step 7 onward correct.
#[test]
fn gshare_locks_onto_alternation_through_the_history_index() {
    let cfg = PredictorConfig::GShare {
        entries: 16,
        history_bits: 4,
    };
    run_vector(
        &cfg,
        &[
            (0x40, true, false),  // h=0,  idx 0:  ctr 1 → NT; train→2
            (0x40, false, false), // h=1,  idx 1:  ctr 1 → NT; train→0
            (0x40, true, false),  // h=2,  idx 2:  ctr 1 → NT; train→2
            (0x40, false, false), // h=5,  idx 5:  ctr 1 → NT; train→0
            (0x40, true, false),  // h=10, idx 10: ctr 1 → NT; train→2
            (0x40, false, false), // h=5,  idx 5:  ctr 0 → NT (correct)
            (0x40, true, true),   // h=10, idx 10: ctr 2 → T  (correct)
            (0x40, false, false), // h=5:  correct from here on
            (0x40, true, true),   // h=10
        ],
    );
}

/// Perceptron, 16 rows × (4 history weights + bias), θ = ⌊1.93·4+14⌋ =
/// 21. All weights start at 0, so the cold dot product is 0 and
/// `y >= 0` predicts taken. Training an always-taken branch at pc 0x20
/// keeps y small (every step trains because |y| ≤ 21); the hand-tracked
/// outputs for steps 1..=6 are 0, 3, 4, 3, 0, 5 — all taken. The first
/// not-taken outcome at step 7 (y = 10, mispredict) subtracts the
/// history pattern from the weights and flips the history register, and
/// the very next output is y = −1 → not-taken.
#[test]
fn perceptron_dot_product_walk() {
    let cfg = PredictorConfig::Perceptron {
        entries: 16,
        history_bits: 4,
    };
    run_vector(
        &cfg,
        &[
            (0x20, true, true),   // y=0   w←[1,-1,-1,-1,-1] h=0b0001
            (0x20, true, true),   // y=3   w←[2,0,-2,-2,-2]  h=0b0011
            (0x20, true, true),   // y=4   w←[3,1,-1,-3,-3]  h=0b0111
            (0x20, true, true),   // y=3   w←[4,2,0,-2,-4]   h=0b1111
            (0x20, true, true),   // y=0   w←[5,3,1,-1,-3]   h=0b1111
            (0x20, true, true),   // y=5   w←[6,4,2,0,-2]    h=0b1111
            (0x20, false, true),  // y=10  mispredict; w←[5,3,1,-1,-3] h=0b1110
            (0x20, false, false), // y = 5−3+1−1−3 = −1 → NT (correct)
        ],
    );
}

/// The conformance TAGE: 16-entry base and tagged tables, 8-bit tags,
/// two tagged tables with history lengths [2, 4] (the geometric series
/// for n=2, min=2, max=4). With 16 entries the index fold of ≤4 history
/// bits is just `h & 15`, so every index and tag below is computable by
/// eye: `idx_i = ((pc>>2) ^ (h & (2^L_i − 1))) & 15`, same for tags
/// against an 8-bit mask.
fn conformance_tage() -> Tage {
    Tage::new(16, 16, 8, 2, 2, 4)
}

/// The full hand trace for pc 0x40 (pc>>2 = 0x10) under alternation.
///
/// | step | h (pre) | provider        | predict | outcome | effect |
/// |------|---------|-----------------|---------|---------|--------|
/// | 1    | 0       | base[0]=1       | NT      | T       | base→2, alloc T0[0] tag 0x10 weak-T |
/// | 2    | 1       | base[0]=2       | T       | F       | base→1, alloc T0[1] tag 0x11 weak-NT |
/// | 3    | 2       | base[0]=1       | NT      | T       | base→2, alloc T0[2] tag 0x12 weak-T |
/// | 4    | 5       | T0[1] ctr 3     | NT      | F       | correct: u[1] 0→1, ctr→2 |
/// | 5    | 10      | T0[2] ctr 4     | T       | T       | correct: altpred base agrees, ctr→5 |
/// | 6    | 21      | T0[1] ctr 2     | NT      | F       | correct: u[1] 1→2, ctr→1 |
/// | 7    | 42      | T0[2] ctr 5     | T       | T       | correct |
///
/// (The entries allocated in steps 1–3 are each found again two steps
/// later, when the two youngest history bits repeat.)
#[test]
fn tage_alternation_hand_trace() {
    let cfg = PredictorConfig::Tage {
        base_entries: 16,
        tagged_entries: 16,
        tag_bits: 8,
        num_tables: 2,
        min_history: 2,
        max_history: 4,
    };
    run_vector(
        &cfg,
        &[
            (0x40, true, false),
            (0x40, false, true),
            (0x40, true, false),
            (0x40, false, false),
            (0x40, true, true),
            (0x40, false, false),
            (0x40, true, true),
        ],
    );

    // Replay on the concrete type and check the internals the vector
    // implies, through the public inspection APIs.
    let mut t = conformance_tage();
    assert_eq!(t.history_lengths(), &[2, 4]);
    assert_eq!(t.provider_level(0x40), None, "cold: base provides");
    for (i, taken) in [true, false, true, false, true, false, true]
        .into_iter()
        .enumerate()
    {
        if i == 3 {
            // Before step 4 (h = 5): T0[1] (allocated at step 2) is
            // found again and provides a not-taken prediction while the
            // base table altpred still says taken.
            assert_eq!(t.provider_level(0x40), Some(0));
            assert!(!t.predict_taken(0x40));
            assert!(t.altpred_taken(0x40), "base altpred disagrees");
            assert_eq!(t.useful_total(), 0, "no provider has been useful yet");
        }
        t.train(0x40, taken);
    }
    assert_eq!(t.history(), 0b1010101, "seven outcomes shifted in, T first");
    assert_eq!(t.update_count(), 7);
    // Steps 4 and 6: T0[1] provided correctly against a disagreeing
    // altpred, twice.
    assert_eq!(t.useful_total(), 2);
}

/// Rule 4: at exactly every [`U_AGING_PERIOD`]th update, all useful
/// counters halve. The filler branch (pc 0x84, always not-taken) is
/// predicted correctly by its own cold base entry from the first step,
/// so it never allocates and never touches any `u` — the only change at
/// the boundary is the halving.
#[test]
fn tage_u_bits_age_only_at_the_period_boundary() {
    let mut t = conformance_tage();
    for taken in [true, false, true, false, true, false, true] {
        t.train(0x40, taken);
    }
    assert_eq!(t.useful_total(), 2);
    while t.update_count() < U_AGING_PERIOD - 1 {
        t.train(0x84, false);
        assert_eq!(t.useful_total(), 2, "u stable away from the boundary");
    }
    t.train(0x84, false);
    assert_eq!(t.update_count(), U_AGING_PERIOD);
    assert_eq!(t.useful_total(), 1, "2 >> 1 at the first boundary");
    for _ in 0..U_AGING_PERIOD {
        t.train(0x84, false);
    }
    assert_eq!(t.useful_total(), 0, "1 >> 1 at the second boundary");
}

/// Continues the alternation hand trace through a table-1 provider and
/// the rule-3 fallback: a misprediction whose provider already sits in
/// the longest-history table has nowhere to allocate and must leave
/// every other entry untouched.
///
/// Steps 8–13 (pre-update history h, provider, outcome, effect):
///
/// | step | h (pre)   | provider         | outcome | effect |
/// |------|-----------|------------------|---------|--------|
/// | 8  | 85  (&3=1)  | T0[1] ctr 1 (NT) | T | wrong: u[1] 2→1, ctr→2; alloc T1[5] tag 0x15 weak-T (h&15 = 5) |
/// | 9  | 171 (&3=3)  | base (2 → T)     | F | wrong: base→1; alloc T0[3] |
/// | 10 | 342 (&3=2)  | T0[2] ctr 6 (T)  | T | right vs base altpred NT: u[2] 0→1, ctr→7 |
/// | 11 | 685 (&3=1)  | T0[1] ctr 2 (NT) | F | altpred base also NT: no u change, ctr→1 |
/// | 12 | 1370 (&3=2) | T0[2] ctr 7 (T)  | T | u[2] 1→2; h&15 becomes 5 |
/// | 13 | 2741 (&15=5)| T1[5] ctr 4 (T)  | F | wrong: u[T1[5]] stays 0, ctr→3; alloc level 2 does not exist → nothing |
#[test]
fn tage_mispredict_at_longest_table_does_not_allocate() {
    let mut t = conformance_tage();
    for taken in [true, false, true, false, true, false, true] {
        t.train(0x40, taken);
    }
    for taken in [true, false, true, false, true] {
        t.train(0x40, taken); // steps 8..=12
    }
    // Before step 13: the entry allocated at step 8 in the longest
    // table finally matches (h & 15 == 5 again), overriding the
    // table-0 altpred that says not-taken.
    assert_eq!(t.provider_level(0x40), Some(1));
    assert!(t.predict_taken(0x40));
    assert!(!t.altpred_taken(0x40));
    assert_eq!(t.useful_total(), 3, "u[T0[1]] = 1, u[T0[2]] = 2");
    t.train(0x40, false); // step 13: mispredict at the longest table
    assert_eq!(t.update_count(), 13);
    assert_eq!(t.useful_total(), 3, "no decay, no eviction: rule 3 no-ops");
    // h = 5482 (&15 = 10, &3 = 2): T1[5] no longer matches and the
    // step-3 entry T0[2] (ctr 7) provides again.
    assert_eq!(t.provider_level(0x40), Some(0));
    assert!(t.predict_taken(0x40));
}

/// ITTAGE hand trace, part 1 — constant-target training at pc 0x40 with
/// target 0x400 (whose two folded history bits are 0, keeping the path
/// history at 0 so every step reuses table-0 index 0, tag 0x10):
/// allocation on the cold miss, then confidence 1 → 2 → 3 (saturated).
#[test]
fn ittage_constant_target_confidence_walk() {
    let mut t = Ittage::new(16, 8, 2, 2, 4);
    assert_eq!(t.predict_target(0x40), None, "cold: BTB fallback");
    t.update(0x40, 0x400); // mispredict → allocate T0[0] conf 1
    assert_eq!(t.predict_target(0x40), Some(0x400));
    assert_eq!(t.provider_level(0x40), Some(0));
    for _ in 0..3 {
        t.update(0x40, 0x400); // conf 1→2→3→3 (saturates)
    }
    assert_eq!(t.predict_target(0x40), Some(0x400));
    assert_eq!(t.useful_total(), 0, "no altpred has ever disagreed");
}

/// ITTAGE hand trace, part 2 — target change, useful bits, the
/// no-allocation path at the longest table, and the re-target rule.
///
/// Continuing from part 1 (T0[0]: target 0x400, conf 3; history 0; the
/// alternate target 0x800 also folds to 0 history bits):
///
/// | step | event | provider | effect |
/// |------|-------|----------|--------|
/// | 5 | resolve 0x800 | T0 (0x400, wrong) | conf→2; alloc T1[0] (0x800, conf 1) |
/// | 6 | resolve 0x800 | T1 (right, alt T0 differs) | u(T1)→1, conf→2 |
/// | 7 | resolve 0x400 | T1 (wrong, alt right) | u(T1)→0, conf→1; alloc above T1 impossible |
/// | 8 | resolve 0x400 | T1 (wrong, conf 1→0) | prediction now falls through to T0 |
/// | 9 | resolve 0x400 | T1 (wrong, conf 0) | re-target: T1 ← (0x400, conf 1) |
#[test]
fn ittage_retarget_and_useful_bit_hand_trace() {
    let mut t = Ittage::new(16, 8, 2, 2, 4);
    t.update(0x40, 0x400);
    for _ in 0..3 {
        t.update(0x40, 0x400);
    }
    t.update(0x40, 0x800); // step 5
    assert_eq!(
        t.provider_level(0x40),
        Some(1),
        "T1 entry is the new provider"
    );
    assert_eq!(t.predict_target(0x40), Some(0x800));
    t.update(0x40, 0x800); // step 6
    assert_eq!(t.useful_total(), 1, "provider beat a disagreeing altpred");
    t.update(0x40, 0x400); // step 7
    assert_eq!(t.useful_total(), 0, "altpred was right instead");
    assert_eq!(t.predict_target(0x40), Some(0x800), "conf 1: still trusted");
    t.update(0x40, 0x400); // step 8: conf → 0
    assert_eq!(
        t.predict_target(0x40),
        Some(0x400),
        "zero-confidence provider yields to the altpred's target"
    );
    t.update(0x40, 0x400); // step 9: re-target
    assert_eq!(t.provider_level(0x40), Some(1));
    assert_eq!(t.predict_target(0x40), Some(0x400), "provider re-targeted");
    assert_eq!(t.update_count(), 9);
}

/// ITTAGE shares TAGE's aging schedule: the useful counter earned in the
/// part-2 trace survives every update until exactly the
/// [`U_AGING_PERIOD`] boundary. The filler (pc 0x84, constant target
/// 0x400) allocates once on its cold miss and then predicts correctly
/// forever, touching no useful counters.
#[test]
fn ittage_u_bits_age_on_schedule() {
    let mut t = Ittage::new(16, 8, 2, 2, 4);
    t.update(0x40, 0x400);
    for _ in 0..3 {
        t.update(0x40, 0x400);
    }
    t.update(0x40, 0x800);
    t.update(0x40, 0x800); // u = 1, updates = 6
    assert_eq!(t.useful_total(), 1);
    while t.update_count() < U_AGING_PERIOD - 1 {
        t.update(0x84, 0x400);
        assert_eq!(t.useful_total(), 1, "u stable away from the boundary");
    }
    t.update(0x84, 0x400);
    assert_eq!(t.update_count(), U_AGING_PERIOD);
    assert_eq!(t.useful_total(), 0, "1 >> 1 at the boundary");
}
