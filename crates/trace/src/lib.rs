//! Dynamic instruction traces for the `mispredict` workspace.
//!
//! The unit of work in this system is a [`Trace`]: a linear sequence of
//! [`MicroOp`]s describing the *correct-path* dynamic instruction stream of
//! a program. Each micro-op carries exactly the information the interval
//! model and the cycle-level simulator need:
//!
//! * its [`OpClass`](bmp_uarch::OpClass) (which selects functional unit and
//!   latency),
//! * up to two register source dependences, encoded as *dependence
//!   distances* (how many dynamic instructions earlier the producer is),
//! * a memory address for loads/stores, and
//! * direction/target/kind for branches.
//!
//! Encoding dependences as distances makes traces position-independent and
//! cheap to slice, which the interval model exploits when scheduling
//! individual inter-miss intervals (and the event-driven simulator
//! un-does once, resolving distances to absolute producer indices in its
//! compiled structure-of-arrays form — `docs/PERFORMANCE.md`). The
//! [`view`] module's [`OpView`] trait reads either layout by position,
//! so the interval model's kernels are written once for both.
//!
//! The [`dag`] module provides dependence-graph utilities — data-flow
//! scheduling and critical-path extraction — and the `I_W(k)` window-ILP
//! characterization from the interval-analysis literature. The [`sites`]
//! module adds the *static* view: per-branch-PC execution/direction
//! statistics for the predictability classifier.
//!
//! # Examples
//!
//! ```
//! use bmp_trace::{MicroOp, TraceBuilder};
//! use bmp_uarch::OpClass;
//!
//! let mut b = TraceBuilder::new();
//! b.push(MicroOp::alu(0x1000, OpClass::IntAlu, [None, None]))?;
//! b.push(MicroOp::load(0x1004, 0xbeef_0000, [Some(1), None]))?;
//! let trace = b.finish();
//! assert_eq!(trace.len(), 2);
//! # Ok::<(), bmp_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod dag;
pub mod io;
mod op;
pub mod sites;
mod stats;
pub mod superblock;
mod trace;
pub mod view;

pub use compiled::CompiledTrace;
pub use op::{BranchInfo, BranchKind, MicroOp};
pub use sites::BranchSiteStats;
pub use stats::{DepDistanceHistogram, TraceStats};
pub use superblock::{Region, RegionEnd, SuperblockMap, SuperblockStats};
pub use trace::{Trace, TraceBuilder, TraceError};
pub use view::OpView;

/// The heap bytes `v` reserves: its capacity times its element size.
/// The building block of the artifacts' `heap_bytes` accounting.
pub fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}
