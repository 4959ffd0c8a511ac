//! Interval analysis of superscalar performance — the reproduction of
//! Eyerman, Smith & Eeckhout, *"Characterizing the branch misprediction
//! penalty"* (ISPASS 2006).
//!
//! Interval analysis views execution as a sequence of *intervals* between
//! *miss events* (branch mispredictions, I-cache misses, long D-cache
//! misses). Between events a balanced machine sustains its dispatch width
//! `D`; each event inserts a penalty. This crate provides:
//!
//! * [`functional`] — a timing-free frontend pass that derives the miss
//!   events and per-load latencies of a trace from the machine's
//!   predictor and cache models (no cycle-level simulation needed);
//! * [`intervals`] — segmentation of the instruction stream into
//!   inter-miss intervals;
//! * [`drain`] — the analytical window model: dispatch-rate-limited,
//!   window-capped data-flow scheduling of an interval, from which a
//!   branch's *resolution time* is read off;
//! * [`penalty`] — the paper's centerpiece: per-misprediction penalty
//!   `= resolution + frontend refill`, decomposed into the five
//!   contributors by knock-out re-scheduling;
//! * [`closed_form`] — the statistics-only penalty estimate built from
//!   the `I_W(k)` ILP curve and the interval-length distribution;
//! * [`cpi`] — the interval-model CPI stack built on the same machinery;
//! * [`accounting`] — the observability layer's per-interval record and
//!   its model-side producer (see `docs/OBSERVABILITY.md`);
//! * [`metrics`] — the `results/metrics/*.json` schema aggregating those
//!   records per experiment;
//! * [`identities`] — the accounting identities above as checkable
//!   predicates, shared by the model's debug assertions and the
//!   BMP2xx/BMP6xx lints (see `docs/STATIC_ANALYSIS.md`);
//! * [`journal`] + [`json`] — the crash-safe run journal and the one
//!   JSON reader and writer every document in the workspace goes through;
//! * [`io`] + [`store`] — the atomic-write primitive and the crash-safe
//!   persistent artifact store built on it (see `docs/STORE.md`);
//! * [`report`] — markdown rendering of an analysis;
//! * [`validate`] — error metrics for comparing the model against the
//!   cycle-level simulator (experiment E-F10).
//!
//! # Examples
//!
//! ```
//! use bmp_core::PenaltyModel;
//! use bmp_uarch::presets;
//! use bmp_workloads::spec;
//!
//! let trace = spec::by_name("twolf").unwrap().generate(20_000, 1);
//! let analysis = PenaltyModel::new(presets::baseline_4wide()).analyze(&trace);
//! // The headline result: the penalty exceeds the frontend pipeline length.
//! if let Some(mean) = analysis.mean_penalty() {
//!     assert!(mean > 5.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod closed_form;
pub mod cpi;
pub mod drain;
pub mod functional;
pub mod identities;
pub mod intervals;
pub mod io;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod penalty;
pub mod report;
pub mod store;
pub mod validate;

pub use accounting::IntervalRecord;
pub use functional::FunctionalOutcome;
pub use intervals::{segment, Interval, IntervalEvent, IntervalEventKind, IntervalLengthHistogram};
pub use io::write_atomic;
pub use metrics::{ExperimentMetrics, ModelMetrics, WorkloadMetrics};
pub use penalty::{PenaltyAnalysis, PenaltyBreakdown, PenaltyModel};
pub use store::{DiskStore, RecoveryReport, StoreError};
