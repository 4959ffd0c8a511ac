//! Branch resolution at fetch: the one routine that decides which
//! branches mispredict.

use bmp_trace::{BranchInfo, BranchKind};
use bmp_uarch::MachineConfig;

use crate::{BranchStats, Btb, DirectionPredictor, IndirectPredictor, ReturnAddressStack};

/// What the frontend learns when it fetches a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Predicted correctly; a taken transfer redirects through a BTB hit,
    /// the RAS or the indirect predictor.
    Correct,
    /// A correctly predicted taken conditional, jump or call whose BTB
    /// lookup missed: decode computes the target, which costs the
    /// frontend a fetch bubble.
    BtbMiss,
    /// Wrong direction (conditional) or wrong target (return, indirect
    /// jump): a full misprediction.
    Mispredict,
}

/// The frontend's prediction machinery — direction predictor, BTB, RAS
/// and indirect-target predictor — plus the direction accounting.
///
/// [`resolve`](Self::resolve) is the single definition of which branches
/// mispredict, shared by the interval model's functional pass and the
/// event-driven simulator, so both see the same miss events. `P` is a
/// concrete predictor type so a simulator hot loop can inline it.
///
/// # Examples
///
/// ```
/// use bmp_branch::{BranchUnit, InlinePredictor, Resolution};
/// use bmp_trace::{BranchInfo, BranchKind};
/// use bmp_uarch::{presets, PredictorConfig};
///
/// let cfg = presets::baseline_4wide();
/// let mut unit = BranchUnit::new(&cfg, InlinePredictor::build(&PredictorConfig::AlwaysNotTaken));
/// let taken = BranchInfo { taken: true, target: 0x800, kind: BranchKind::Conditional };
/// assert_eq!(unit.resolve(0x400, taken), Resolution::Mispredict);
/// let jump = BranchInfo { taken: true, target: 0x800, kind: BranchKind::Jump };
/// assert_eq!(unit.resolve(0x500, jump), Resolution::BtbMiss);
/// assert_eq!(unit.resolve(0x500, jump), Resolution::Correct);
/// assert_eq!(unit.stats().mispredictions(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BranchUnit<P> {
    predictor: P,
    btb: Btb,
    indirect: IndirectPredictor,
    ras: ReturnAddressStack,
    stats: BranchStats,
}

impl<P: DirectionPredictor> BranchUnit<P> {
    /// Builds the BTB, RAS and indirect predictor `cfg` describes around
    /// `predictor`.
    pub fn new(cfg: &MachineConfig, predictor: P) -> Self {
        Self {
            predictor,
            btb: Btb::new(cfg.btb_entries),
            indirect: IndirectPredictor::build(&cfg.indirect_predictor),
            ras: ReturnAddressStack::new(cfg.ras_entries),
            stats: BranchStats::new(),
        }
    }

    /// Resolves the fetched branch at `pc` against its architected
    /// outcome `info` and trains every structure it touched.
    ///
    /// A mispredicted conditional leaves the BTB alone; a correctly
    /// predicted taken conditional, jump or call looks the BTB up and
    /// installs its target either way.
    #[inline]
    pub fn resolve(&mut self, pc: u64, info: BranchInfo) -> Resolution {
        match info.kind {
            BranchKind::Conditional => {
                let pred = self.predictor.predict(pc, info.taken);
                self.stats.record(pred, info.taken);
                self.predictor.update(pc, info.taken);
                if pred != info.taken {
                    Resolution::Mispredict
                } else if info.taken {
                    self.redirect(pc, info.target)
                } else {
                    Resolution::Correct
                }
            }
            BranchKind::Jump => self.redirect(pc, info.target),
            BranchKind::Call => {
                self.ras.push(pc.wrapping_add(4));
                self.redirect(pc, info.target)
            }
            // An empty or stale RAS sends fetch down a wrong target.
            BranchKind::Return => match self.ras.pop() {
                Some(t) if t == info.target => Resolution::Correct,
                _ => Resolution::Mispredict,
            },
            BranchKind::IndirectJump => {
                // The indirect-target predictor (BTB last-target by
                // default, gtarget/ITTAGE when configured) picks the
                // target; anything but the actual one mispredicts.
                let btb_target = self.btb.lookup(pc);
                let predicted = self.indirect.predict(pc, btb_target);
                self.indirect.update(pc, info.target);
                self.btb.update(pc, info.target);
                match predicted {
                    Some(t) if t == info.target => Resolution::Correct,
                    _ => Resolution::Mispredict,
                }
            }
        }
    }

    /// A taken transfer redirects through the BTB; the entry is installed
    /// whether or not the lookup hit.
    fn redirect(&mut self, pc: u64, target: u64) -> Resolution {
        let hit = self.btb.lookup(pc).is_some();
        self.btb.update(pc, target);
        if hit {
            Resolution::Correct
        } else {
            Resolution::BtbMiss
        }
    }

    /// Direction-prediction accounting since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// Zeroes the accounting and keeps every predictor's state (a
    /// warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InlinePredictor;
    use bmp_uarch::{presets, PredictorConfig};

    fn unit(predictor: PredictorConfig, btb_entries: u32) -> BranchUnit<InlinePredictor> {
        let cfg = presets::baseline_4wide()
            .to_builder()
            .btb_entries(btb_entries)
            .build()
            .unwrap();
        BranchUnit::new(&cfg, InlinePredictor::build(&predictor))
    }

    fn info(kind: BranchKind, taken: bool, target: u64) -> BranchInfo {
        BranchInfo {
            taken,
            target,
            kind,
        }
    }

    #[test]
    fn mispredicted_conditional_leaves_the_btb_alone() {
        // Slot 0 of a 4-entry BTB holds the jump at 0x0; a mispredicted
        // taken conditional at the aliasing 0x40 must not evict it.
        let mut u = unit(PredictorConfig::AlwaysNotTaken, 4);
        let jump = info(BranchKind::Jump, true, 0x100);
        assert_eq!(u.resolve(0x0, jump), Resolution::BtbMiss);
        let cond = info(BranchKind::Conditional, true, 0x200);
        assert_eq!(u.resolve(0x40, cond), Resolution::Mispredict);
        assert_eq!(u.resolve(0x0, jump), Resolution::Correct);
    }

    #[test]
    fn correct_taken_transfers_report_btb_misses_once() {
        let mut u = unit(PredictorConfig::AlwaysTaken, 64);
        let cond = info(BranchKind::Conditional, true, 0x200);
        assert_eq!(u.resolve(0x40, cond), Resolution::BtbMiss);
        assert_eq!(u.resolve(0x40, cond), Resolution::Correct);
        let call = info(BranchKind::Call, true, 0x800);
        assert_eq!(u.resolve(0x80, call), Resolution::BtbMiss);
        assert_eq!(u.resolve(0x84, call), Resolution::BtbMiss);
        // Not-taken conditionals never consult the BTB.
        let mut u = unit(PredictorConfig::AlwaysNotTaken, 64);
        let fall = info(BranchKind::Conditional, false, 0x200);
        assert_eq!(u.resolve(0x40, fall), Resolution::Correct);
        assert_eq!(u.stats().predictions(), 1);
    }

    #[test]
    fn returns_follow_the_ras() {
        let mut u = unit(PredictorConfig::Perfect, 64);
        assert_eq!(
            u.resolve(0x300, info(BranchKind::Return, true, 0x104)),
            Resolution::Mispredict,
            "empty RAS"
        );
        let _ = u.resolve(0x100, info(BranchKind::Call, true, 0x300));
        assert_eq!(
            u.resolve(0x300, info(BranchKind::Return, true, 0x104)),
            Resolution::Correct
        );
    }

    #[test]
    fn indirect_jumps_predict_the_last_target() {
        let mut u = unit(PredictorConfig::Perfect, 64);
        let to = |t| info(BranchKind::IndirectJump, true, t);
        assert_eq!(u.resolve(0x40, to(0x400)), Resolution::Mispredict);
        assert_eq!(u.resolve(0x40, to(0x400)), Resolution::Correct);
        assert_eq!(u.resolve(0x40, to(0x500)), Resolution::Mispredict);
    }

    #[test]
    fn reset_keeps_predictor_state() {
        let mut u = unit(PredictorConfig::AlwaysNotTaken, 64);
        let cond = info(BranchKind::Conditional, true, 0x200);
        let _ = u.resolve(0x40, cond);
        u.reset_stats();
        assert_eq!(u.stats(), BranchStats::new());
        let jump = info(BranchKind::Jump, true, 0x100);
        let _ = u.resolve(0x80, jump);
        assert_eq!(u.resolve(0x80, jump), Resolution::Correct);
    }
}
