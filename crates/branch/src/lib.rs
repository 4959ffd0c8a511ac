//! Branch prediction models for the `mispredict` workspace.
//!
//! The branch predictor is the source of the miss events this whole system
//! characterizes. This crate provides the classic direction predictors of
//! the paper's era — static, bimodal, gshare, local two-level and
//! tournament — plus a [`Perfect`](direction::Perfect) oracle used by
//! knock-out experiments, a branch target buffer and a return-address
//! stack. [`BranchUnit`] combines them into the frontend's one
//! branch-resolution routine.
//!
//! Predictors are trace-driven: [`DirectionPredictor::predict`] receives
//! the architected outcome so the oracle can be expressed in the same
//! interface; real predictors must ignore it.
//!
//! Predictors set the *number* of branch intervals; what each one costs
//! is the per-event accounting of `bmp-core` (the E-X1 study in
//! `EXPERIMENTS.md` separates the two, and `docs/OBSERVABILITY.md`
//! shows how to watch both in a live run).
//!
//! # Examples
//!
//! ```
//! use bmp_branch::{build_predictor, DirectionPredictor};
//! use bmp_uarch::PredictorConfig;
//!
//! let mut p = build_predictor(&PredictorConfig::Bimodal { entries: 1024 });
//! // After training, a strongly-biased branch is predicted taken.
//! for _ in 0..4 {
//!     p.predict(0x4000, true);
//!     p.update(0x4000, true);
//! }
//! assert!(p.predict(0x4000, true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod counter;
pub mod direction;
mod indirect;
mod ras;
mod stats;
pub mod tage;
mod unit;

pub use btb::Btb;
pub use counter::SaturatingCounter;
pub use direction::{build_predictor, DirectionPredictor, InlinePredictor};
pub use indirect::{GTarget, IndirectPredictor, Ittage};
pub use ras::ReturnAddressStack;
pub use stats::BranchStats;
pub use tage::{Tage, U_AGING_PERIOD};
pub use unit::{BranchUnit, Resolution};
