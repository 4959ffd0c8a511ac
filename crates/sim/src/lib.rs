//! Cycle-level out-of-order superscalar simulator.
//!
//! This is the measurement substrate of the reproduction: a trace-driven
//! model of a pipelined superscalar processor with
//!
//! * a fetch unit with I-cache, direction predictor, BTB and RAS,
//! * an `frontend_depth`-cycle frontend pipe between fetch and dispatch
//!   (contributor i of the misprediction penalty),
//! * a dispatch stage bounded by ROB and issue-window occupancy,
//! * oldest-first issue constrained by functional-unit pools and
//!   latencies (contributor iv), with loads resolved by the cache
//!   hierarchy (contributor v and the long-miss events),
//! * in-order commit.
//!
//! Because the trace is correct-path-only, a misprediction is modeled
//! exactly as interval analysis describes it: the frontend stops
//! delivering useful instructions at the mispredicted branch, the window
//! drains until the branch executes (the *resolution time*), then fetch
//! redirects and the frontend refills. Per-misprediction
//! [`MispredictRecord`]s capture dispatch, resolution and window occupancy
//! so the five penalty contributors can be read directly off the run.
//!
//! # Examples
//!
//! ```
//! use bmp_sim::Simulator;
//! use bmp_uarch::presets;
//! use bmp_workloads::micro;
//! use bmp_uarch::OpClass;
//!
//! let trace = micro::chain_kernel(2_000, 4, 64, OpClass::IntAlu);
//! let result = Simulator::new(presets::baseline_4wide()).run(&trace);
//! assert_eq!(result.instructions, 2_000);
//! assert!(result.ipc() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod engine;
mod error;
mod options;
mod reference;
mod result;
mod sched;

pub use engine::{reference_engine_forced, RunPhases, Simulator};
pub use error::{BudgetForensics, SimError};
pub use options::SimOptions;
pub use result::{
    ClassIssueStats, FetchAccounting, MispredictRecord, MissEvent, SimResult, SlotAccounting,
};
