//! Direction predictors.
//!
//! All predictors implement [`DirectionPredictor`]. The interface is
//! trace-driven: `predict` is handed the architected outcome so the
//! [`Perfect`] oracle fits the same trait; every real predictor ignores it.
//! History state is updated non-speculatively in `update`, which the
//! simulator calls at branch resolution.

use bmp_uarch::PredictorConfig;

use crate::counter::SaturatingCounter;
use crate::tage::Tage;

/// A conditional-branch direction predictor.
///
/// Implementors are sequential models: `predict` may be called once per
/// dynamic branch in trace order, followed by `update` with the resolved
/// outcome.
pub trait DirectionPredictor: Send {
    /// Predicts the direction of the branch at `pc`.
    ///
    /// `actual` is the architected outcome, supplied so oracle predictors
    /// can be modeled; concrete hardware predictors must not read it.
    fn predict(&mut self, pc: u64, actual: bool) -> bool;

    /// Trains the predictor with the resolved outcome of the branch at
    /// `pc`.
    fn update(&mut self, pc: u64, taken: bool);

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Builds the predictor described by `cfg`.
///
/// # Panics
///
/// Panics if `cfg` fails [`PredictorConfig::validate`]; validate
/// configurations at machine-construction time.
///
/// # Examples
///
/// ```
/// use bmp_branch::build_predictor;
/// use bmp_uarch::PredictorConfig;
///
/// let p = build_predictor(&PredictorConfig::Bimodal { entries: 1024 });
/// assert_eq!(p.name(), "bimodal");
/// ```
pub fn build_predictor(cfg: &PredictorConfig) -> Box<dyn DirectionPredictor> {
    cfg.validate()
        .expect("predictor configuration must be valid");
    match *cfg {
        PredictorConfig::AlwaysTaken => Box::new(StaticPredictor { taken: true }),
        PredictorConfig::AlwaysNotTaken => Box::new(StaticPredictor { taken: false }),
        PredictorConfig::Bimodal { entries } => Box::new(Bimodal::new(entries)),
        PredictorConfig::GShare {
            entries,
            history_bits,
        } => Box::new(GShare::new(entries, history_bits)),
        PredictorConfig::Local {
            history_entries,
            history_bits,
            pattern_entries,
        } => Box::new(LocalTwoLevel::new(
            history_entries,
            history_bits,
            pattern_entries,
        )),
        PredictorConfig::Tournament {
            entries,
            history_bits,
        } => Box::new(Tournament::new(entries, history_bits)),
        PredictorConfig::Perceptron {
            entries,
            history_bits,
        } => Box::new(Perceptron::new(entries, history_bits)),
        PredictorConfig::Tage {
            base_entries,
            tagged_entries,
            tag_bits,
            num_tables,
            min_history,
            max_history,
        } => Box::new(Tage::new(
            base_entries,
            tagged_entries,
            tag_bits,
            num_tables,
            min_history,
            max_history,
        )),
        PredictorConfig::Perfect => Box::new(Perfect),
    }
}

/// The same concrete predictors as [`build_predictor`], behind an enum
/// instead of a vtable so a simulator hot loop can inline the per-branch
/// `predict`/`update` pair. Built from the same [`PredictorConfig`], the
/// enum holds identical state and produces identical predictions to the
/// boxed form — it exists purely so static dispatch is available where
/// the two virtual calls per conditional branch are measurable.
#[derive(Debug, Clone)]
pub enum InlinePredictor {
    /// Fixed-direction static prediction.
    Static(StaticPredictor),
    /// Oracle prediction.
    Perfect(Perfect),
    /// PC-indexed 2-bit counters.
    Bimodal(Bimodal),
    /// Global history XOR PC.
    GShare(GShare),
    /// Per-branch local history.
    Local(LocalTwoLevel),
    /// Bimodal/gshare with a chooser.
    Tournament(Tournament),
    /// Perceptron over global history.
    Perceptron(Perceptron),
    /// Tagged geometric-history tables.
    Tage(Tage),
}

impl InlinePredictor {
    /// Builds the predictor described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`PredictorConfig::validate`]; validate
    /// configurations at machine-construction time.
    pub fn build(cfg: &PredictorConfig) -> Self {
        cfg.validate()
            .expect("predictor configuration must be valid");
        match *cfg {
            PredictorConfig::AlwaysTaken => Self::Static(StaticPredictor { taken: true }),
            PredictorConfig::AlwaysNotTaken => Self::Static(StaticPredictor { taken: false }),
            PredictorConfig::Bimodal { entries } => Self::Bimodal(Bimodal::new(entries)),
            PredictorConfig::GShare {
                entries,
                history_bits,
            } => Self::GShare(GShare::new(entries, history_bits)),
            PredictorConfig::Local {
                history_entries,
                history_bits,
                pattern_entries,
            } => Self::Local(LocalTwoLevel::new(
                history_entries,
                history_bits,
                pattern_entries,
            )),
            PredictorConfig::Tournament {
                entries,
                history_bits,
            } => Self::Tournament(Tournament::new(entries, history_bits)),
            PredictorConfig::Perceptron {
                entries,
                history_bits,
            } => Self::Perceptron(Perceptron::new(entries, history_bits)),
            PredictorConfig::Tage {
                base_entries,
                tagged_entries,
                tag_bits,
                num_tables,
                min_history,
                max_history,
            } => Self::Tage(Tage::new(
                base_entries,
                tagged_entries,
                tag_bits,
                num_tables,
                min_history,
                max_history,
            )),
            PredictorConfig::Perfect => Self::Perfect(Perfect),
        }
    }
}

impl DirectionPredictor for InlinePredictor {
    #[inline]
    fn predict(&mut self, pc: u64, actual: bool) -> bool {
        match self {
            Self::Static(p) => p.predict(pc, actual),
            Self::Perfect(p) => p.predict(pc, actual),
            Self::Bimodal(p) => p.predict(pc, actual),
            Self::GShare(p) => p.predict(pc, actual),
            Self::Local(p) => p.predict(pc, actual),
            Self::Tournament(p) => p.predict(pc, actual),
            Self::Perceptron(p) => p.predict(pc, actual),
            Self::Tage(p) => p.predict(pc, actual),
        }
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool) {
        match self {
            Self::Static(p) => p.update(pc, taken),
            Self::Perfect(p) => p.update(pc, taken),
            Self::Bimodal(p) => p.update(pc, taken),
            Self::GShare(p) => p.update(pc, taken),
            Self::Local(p) => p.update(pc, taken),
            Self::Tournament(p) => p.update(pc, taken),
            Self::Perceptron(p) => p.update(pc, taken),
            Self::Tage(p) => p.update(pc, taken),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Self::Static(p) => p.name(),
            Self::Perfect(p) => p.name(),
            Self::Bimodal(p) => p.name(),
            Self::GShare(p) => p.name(),
            Self::Local(p) => p.name(),
            Self::Tournament(p) => p.name(),
            Self::Perceptron(p) => p.name(),
            Self::Tage(p) => p.name(),
        }
    }
}

fn pc_index(pc: u64, entries: u32) -> usize {
    // Drop the 2 low bits (4-byte instructions) before indexing.
    ((pc >> 2) & u64::from(entries - 1)) as usize
}

/// Statically predicts a fixed direction.
#[derive(Debug, Clone)]
pub struct StaticPredictor {
    taken: bool,
}

impl DirectionPredictor for StaticPredictor {
    #[inline]
    fn predict(&mut self, _pc: u64, _actual: bool) -> bool {
        self.taken
    }

    #[inline]
    fn update(&mut self, _pc: u64, _taken: bool) {}

    fn name(&self) -> &'static str {
        if self.taken {
            "always-taken"
        } else {
            "always-not-taken"
        }
    }
}

/// Oracle predictor: always right.
#[derive(Debug, Clone, Default)]
pub struct Perfect;

impl DirectionPredictor for Perfect {
    #[inline]
    fn predict(&mut self, _pc: u64, actual: bool) -> bool {
        actual
    }

    #[inline]
    fn update(&mut self, _pc: u64, _taken: bool) {}

    fn name(&self) -> &'static str {
        "perfect"
    }
}

/// Bimodal predictor: a table of 2-bit counters indexed by PC.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<SaturatingCounter>,
    entries: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` counters (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: u32) -> Self {
        assert!(entries.is_power_of_two() && entries > 0);
        Self {
            table: vec![SaturatingCounter::two_bit(); entries as usize],
            entries,
        }
    }
}

impl DirectionPredictor for Bimodal {
    #[inline]
    fn predict(&mut self, pc: u64, _actual: bool) -> bool {
        self.table[pc_index(pc, self.entries)].predicts_taken()
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool) {
        self.table[pc_index(pc, self.entries)].train(taken);
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }
}

/// GShare: global history XOR PC indexes a counter table.
#[derive(Debug, Clone)]
pub struct GShare {
    table: Vec<SaturatingCounter>,
    entries: u32,
    history: u64,
    history_mask: u64,
}

impl GShare {
    /// Creates a gshare predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits` is 0 or
    /// greater than 24.
    pub fn new(entries: u32, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two() && entries > 0);
        assert!((1..=24).contains(&history_bits));
        Self {
            table: vec![SaturatingCounter::two_bit(); entries as usize],
            entries,
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & u64::from(self.entries - 1)) as usize
    }
}

impl DirectionPredictor for GShare {
    #[inline]
    fn predict(&mut self, pc: u64, _actual: bool) -> bool {
        self.table[self.index(pc)].predicts_taken()
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        self.table[idx].train(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
    }

    fn name(&self) -> &'static str {
        "gshare"
    }
}

/// Local two-level predictor: per-branch history selects a pattern counter.
#[derive(Debug, Clone)]
pub struct LocalTwoLevel {
    histories: Vec<u32>,
    history_entries: u32,
    history_mask: u32,
    pattern: Vec<SaturatingCounter>,
    pattern_entries: u32,
}

impl LocalTwoLevel {
    /// Creates a local two-level predictor.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two table sizes or a history length of 0 or
    /// more than 16 bits.
    pub fn new(history_entries: u32, history_bits: u32, pattern_entries: u32) -> Self {
        assert!(history_entries.is_power_of_two() && history_entries > 0);
        assert!(pattern_entries.is_power_of_two() && pattern_entries > 0);
        assert!((1..=16).contains(&history_bits));
        Self {
            histories: vec![0; history_entries as usize],
            history_entries,
            history_mask: (1u32 << history_bits) - 1,
            pattern: vec![SaturatingCounter::two_bit(); pattern_entries as usize],
            pattern_entries,
        }
    }

    fn pattern_index(&self, pc: u64) -> usize {
        let h = self.histories[pc_index(pc, self.history_entries)];
        (h & (self.pattern_entries - 1)) as usize
    }
}

impl DirectionPredictor for LocalTwoLevel {
    #[inline]
    fn predict(&mut self, pc: u64, _actual: bool) -> bool {
        self.pattern[self.pattern_index(pc)].predicts_taken()
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool) {
        let pidx = self.pattern_index(pc);
        self.pattern[pidx].train(taken);
        let hidx = pc_index(pc, self.history_entries);
        self.histories[hidx] = ((self.histories[hidx] << 1) | u32::from(taken)) & self.history_mask;
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

/// Tournament predictor: bimodal and gshare components arbitrated by a
/// per-PC chooser table.
#[derive(Debug, Clone)]
pub struct Tournament {
    bimodal: Bimodal,
    gshare: GShare,
    chooser: Vec<SaturatingCounter>,
    entries: u32,
}

impl Tournament {
    /// Creates a tournament predictor with `entries` counters per
    /// component.
    ///
    /// # Panics
    ///
    /// Panics on invalid component parameters (see [`Bimodal::new`] and
    /// [`GShare::new`]).
    pub fn new(entries: u32, history_bits: u32) -> Self {
        Self {
            bimodal: Bimodal::new(entries),
            gshare: GShare::new(entries, history_bits),
            // Chooser: upper half selects gshare.
            chooser: vec![SaturatingCounter::two_bit(); entries as usize],
            entries,
        }
    }
}

impl DirectionPredictor for Tournament {
    #[inline]
    fn predict(&mut self, pc: u64, actual: bool) -> bool {
        let use_gshare = self.chooser[pc_index(pc, self.entries)].predicts_taken();
        if use_gshare {
            self.gshare.predict(pc, actual)
        } else {
            self.bimodal.predict(pc, actual)
        }
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool) {
        let b = self.bimodal.predict(pc, taken);
        let g = self.gshare.predict(pc, taken);
        // Train the chooser only when the components disagree.
        if b != g {
            self.chooser[pc_index(pc, self.entries)].train(g == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }

    fn name(&self) -> &'static str {
        "tournament"
    }
}

/// Perceptron predictor (Jiménez & Lin, HPCA 2001).
///
/// Each PC hashes to a weight vector over the global history (plus a bias
/// weight). The prediction is the sign of the dot product; training
/// adjusts weights on a misprediction or when the output magnitude is
/// below the threshold `θ = ⌊1.93·h + 14⌋`.
#[derive(Debug, Clone)]
pub struct Perceptron {
    /// `entries × (history_bits + 1)` weights; index 0 of each row is the
    /// bias.
    weights: Vec<i16>,
    entries: u32,
    history_bits: u32,
    /// Global history as ±1 values packed into a bitset (bit i = 1 means
    /// taken).
    history: u64,
    threshold: i32,
    /// Output of the most recent `predict`, consumed by `update`.
    last_output: i32,
}

impl Perceptron {
    /// Creates a perceptron predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits` is 0
    /// or greater than 48.
    pub fn new(entries: u32, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two() && entries > 0);
        assert!((1..=48).contains(&history_bits));
        Self {
            weights: vec![0; entries as usize * (history_bits as usize + 1)],
            entries,
            history_bits,
            history: 0,
            threshold: (1.93 * f64::from(history_bits) + 14.0) as i32,
            last_output: 0,
        }
    }

    fn row(&self, pc: u64) -> usize {
        pc_index(pc, self.entries) * (self.history_bits as usize + 1)
    }

    fn output(&self, pc: u64) -> i32 {
        let row = self.row(pc);
        let mut y = i32::from(self.weights[row]); // bias
        for i in 0..self.history_bits as usize {
            let x = if self.history >> i & 1 == 1 { 1 } else { -1 };
            y += i32::from(self.weights[row + 1 + i]) * x;
        }
        y
    }
}

impl DirectionPredictor for Perceptron {
    #[inline]
    fn predict(&mut self, pc: u64, _actual: bool) -> bool {
        self.last_output = self.output(pc);
        self.last_output >= 0
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool) {
        let y = self.output(pc);
        let predicted = y >= 0;
        if predicted != taken || y.abs() <= self.threshold {
            let row = self.row(pc);
            let t: i16 = if taken { 1 } else { -1 };
            let clamp = |w: i16, d: i16| (w + d).clamp(-128, 127);
            self.weights[row] = clamp(self.weights[row], t);
            for i in 0..self.history_bits as usize {
                let x: i16 = if self.history >> i & 1 == 1 { 1 } else { -1 };
                self.weights[row + 1 + i] = clamp(self.weights[row + 1 + i], t * x);
            }
        }
        self.history = (self.history << 1 | u64::from(taken)) & ((1u64 << self.history_bits) - 1);
    }

    fn name(&self) -> &'static str {
        "perceptron"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(p: &mut dyn DirectionPredictor, pc: u64, outcomes: &[bool]) {
        for &t in outcomes {
            p.predict(pc, t);
            p.update(pc, t);
        }
    }

    #[test]
    fn static_predictors() {
        let mut t = build_predictor(&PredictorConfig::AlwaysTaken);
        let mut n = build_predictor(&PredictorConfig::AlwaysNotTaken);
        assert!(t.predict(0, false));
        assert!(!n.predict(0, true));
    }

    #[test]
    fn perfect_never_misses() {
        let mut p = build_predictor(&PredictorConfig::Perfect);
        for (pc, actual) in [(0u64, true), (4, false), (8, true), (8, false)] {
            assert_eq!(p.predict(pc, actual), actual);
            p.update(pc, actual);
        }
    }

    #[test]
    fn bimodal_learns_a_bias() {
        let mut p = Bimodal::new(64);
        train(&mut p, 0x100, &[true; 4]);
        assert!(p.predict(0x100, true));
        train(&mut p, 0x100, &[false; 4]);
        assert!(!p.predict(0x100, false));
    }

    #[test]
    fn bimodal_aliasing_uses_pc_bits_above_two() {
        let mut p = Bimodal::new(4);
        // pc 0x0 and pc 0x40 alias in a 4-entry table ((pc>>2) & 3).
        train(&mut p, 0x0, &[true; 4]);
        assert!(p.predict(0x40, false), "aliased entry shares state");
        // pc 0x4 maps to a different entry.
        assert!(!p.predict(0x4, false));
    }

    #[test]
    fn gshare_learns_alternating_pattern_bimodal_cannot() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        let mut g = GShare::new(1024, 8);
        let mut b = Bimodal::new(1024);
        let mut g_wrong = 0;
        let mut b_wrong = 0;
        for &t in &pattern {
            if g.predict(0x200, t) != t {
                g_wrong += 1;
            }
            if b.predict(0x200, t) != t {
                b_wrong += 1;
            }
            g.update(0x200, t);
            b.update(0x200, t);
        }
        assert!(
            g_wrong < 20,
            "gshare should lock onto T/NT alternation, {g_wrong} wrong"
        );
        assert!(
            b_wrong > 50,
            "bimodal cannot learn alternation, only {b_wrong} wrong"
        );
    }

    #[test]
    fn local_learns_short_loops() {
        // A loop taken 3 times then not taken, repeating: TTTN.
        let pattern: Vec<bool> = (0..400).map(|i| i % 4 != 3).collect();
        let mut l = LocalTwoLevel::new(256, 10, 1024);
        let mut wrong = 0;
        for &t in &pattern {
            if l.predict(0x300, t) != t {
                wrong += 1;
            }
            l.update(0x300, t);
        }
        assert!(
            wrong < 40,
            "local predictor should learn TTTN, {wrong} wrong"
        );
    }

    #[test]
    fn tournament_beats_or_matches_components_on_mixed_workload() {
        // Branch A: strongly biased (bimodal-friendly).
        // Branch B: alternating (gshare-friendly).
        let mut t = Tournament::new(4096, 10);
        let mut wrong = 0;
        let mut total = 0;
        for i in 0..500 {
            for (pc, outcome) in [(0x100u64, true), (0x200, i % 2 == 0)] {
                if t.predict(pc, outcome) != outcome {
                    wrong += 1;
                }
                t.update(pc, outcome);
                total += 1;
            }
        }
        let miss_rate = wrong as f64 / total as f64;
        assert!(miss_rate < 0.1, "tournament miss rate {miss_rate} too high");
    }

    #[test]
    fn build_matches_names() {
        for (cfg, name) in [
            (PredictorConfig::AlwaysTaken, "always-taken"),
            (PredictorConfig::Bimodal { entries: 64 }, "bimodal"),
            (
                PredictorConfig::GShare {
                    entries: 64,
                    history_bits: 4,
                },
                "gshare",
            ),
            (
                PredictorConfig::Local {
                    history_entries: 64,
                    history_bits: 4,
                    pattern_entries: 64,
                },
                "local",
            ),
            (
                PredictorConfig::Tournament {
                    entries: 64,
                    history_bits: 4,
                },
                "tournament",
            ),
            (
                PredictorConfig::Perceptron {
                    entries: 64,
                    history_bits: 16,
                },
                "perceptron",
            ),
            (
                PredictorConfig::Tage {
                    base_entries: 64,
                    tagged_entries: 64,
                    tag_bits: 8,
                    num_tables: 4,
                    min_history: 2,
                    max_history: 16,
                },
                "tage",
            ),
            (PredictorConfig::Perfect, "perfect"),
        ] {
            assert_eq!(build_predictor(&cfg).name(), name);
        }
    }

    #[test]
    fn perceptron_learns_biased_branches() {
        let mut p = Perceptron::new(256, 16);
        train(&mut p, 0x100, &[true; 20]);
        assert!(p.predict(0x100, true));
        train(&mut p, 0x200, &[false; 20]);
        assert!(!p.predict(0x200, false));
    }

    #[test]
    fn perceptron_learns_history_correlation() {
        // Branch B's outcome equals branch A's previous outcome — a
        // linearly separable function of one history bit, the perceptron's
        // specialty.
        let mut p = Perceptron::new(256, 16);
        let mut a_prev = false;
        let mut wrong = 0;
        let mut total = 0;
        for i in 0..600 {
            let a = i % 3 != 0;
            p.predict(0x100, a);
            p.update(0x100, a);
            let b = a_prev;
            if i > 200 {
                total += 1;
                if p.predict(0x200, b) != b {
                    wrong += 1;
                }
            } else {
                p.predict(0x200, b);
            }
            p.update(0x200, b);
            a_prev = a;
        }
        let rate = wrong as f64 / total as f64;
        assert!(
            rate < 0.10,
            "perceptron should learn correlation, miss {rate}"
        );
    }

    #[test]
    fn perceptron_weights_saturate() {
        let mut p = Perceptron::new(16, 4);
        for _ in 0..10_000 {
            p.predict(0x40, true);
            p.update(0x40, true);
        }
        // No panic and still functional after heavy training.
        assert!(p.predict(0x40, true));
    }

    #[test]
    #[should_panic(expected = "valid")]
    fn build_rejects_invalid_config() {
        let _ = build_predictor(&PredictorConfig::Bimodal { entries: 3 });
    }
}
