//! The experiment implementations, one function per table/figure of the
//! reconstructed evaluation and its extensions (DESIGN.md, E-T1 … E-F11,
//! E-X1 … E-X11), each next to its registry entry: an
//! [`ExperimentDef`](crate::engine::ExperimentDef) naming the grid of
//! cells its table reads (see [`crate::grid`]).

mod characterize;
mod extensions;
mod generations;
mod isa;
mod sensitivity;
mod tables;
mod validation;

pub use characterize::*;
pub use extensions::*;
pub use generations::*;
pub use isa::*;
pub use sensitivity::*;
pub use tables::*;
pub use validation::*;
