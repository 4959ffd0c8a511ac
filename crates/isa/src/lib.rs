//! Execution-driven workload frontend: an RV32IM functional executor
//! and a branch-heavy kernel suite that emit the repo's trace format.
//!
//! Every other workload in the repo is *statistical* — synthesized
//! from measured distributions. This crate is the out-of-distribution
//! counterpart: real programs, actually executed, whose branch
//! outcomes, producer distances, and memory addresses come from
//! architectural state rather than samplers. Because the output is an
//! ordinary [`bmp_trace::Trace`], every downstream consumer — both
//! simulation engines, the interval-analysis decomposition, the
//! static bounds of `bmp-lint --static`, the H2P classifier, and the
//! TAGE/ITTAGE predictors — runs unchanged on executed traces.
//!
//! The pipeline is: assemble ([`asm`]) → load → execute ([`cpu`],
//! [`mem`]) → record ([`emit`]). The kernel catalogue lives in
//! [`kernels`]; [`kernel_trace`] is the one-call entry point the
//! bench harness and the analyzers share, so a kernel cell's trace is
//! bit-identical wherever it is regenerated.
//!
//! See `docs/ISA.md` for the ISA subset, the sequential-consistency
//! contract, and measured executed-vs-synthetic deltas.
//!
//! # Examples
//!
//! ```
//! let trace = bmp_isa::kernel_trace("bsearch", 2_000, 42).unwrap();
//! assert_eq!(trace.len(), 2_000);
//! // Real control flow: each op's next PC is the next op's PC.
//! for w in trace.ops().windows(2) {
//!     assert_eq!(w[0].next_pc(), w[1].pc());
//! }
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod cpu;
pub mod decode;
pub mod emit;
pub mod kernels;
pub mod mem;

pub use cpu::{Cpu, ExecError, Step, HALT_ADDR};
pub use decode::{decode, Inst, Op};
pub use emit::TraceRecorder;
pub use kernels::{build, Program, CODE_BASE, DATA_BASE, NAMES, SCRATCH_BASE};
pub use mem::Memory;

use bmp_trace::Trace;

/// Loads a program into a fresh machine and executes it, recording at
/// most `max_ops` instructions into a trace.
///
/// Execution stops at the op budget or when the program returns to the
/// [`HALT_ADDR`] sentinel, whichever comes first. The kernel suite
/// never halts (each kernel loops forever over its data), so kernel
/// traces always have exactly `max_ops` ops.
///
/// # Errors
///
/// Propagates [`ExecError`] from the executor; the shipped kernels
/// never fault, so an error indicates a corrupt program image.
pub fn execute(program: &Program, max_ops: usize) -> Result<Trace, ExecError> {
    let mut mem = Memory::new();
    mem.write_words(program.code_base, &program.code);
    for (base, bytes) in &program.data {
        mem.write_bytes(*base, bytes);
    }
    let mut cpu = Cpu::new(program.entry, mem);
    let mut rec = TraceRecorder::new(max_ops);
    while !cpu.halted() && rec.len() < max_ops {
        let step = cpu.step()?;
        rec.record(&step);
    }
    Ok(rec.finish())
}

/// Builds, executes, and records the named kernel: the shared entry
/// point for the bench harness and the analyzers.
///
/// Returns `None` for a name outside [`kernels::NAMES`]. The result is
/// fully determined by `(name, max_ops, seed)`; callers relying on
/// cache-key equality (the bench `Memo` layer, the static pass of
/// `bmp-lint --static`) depend on that.
pub fn kernel_trace(name: &str, max_ops: usize, seed: u64) -> Option<Trace> {
    let program = kernels::build(name, max_ops, seed)?;
    Some(execute(&program, max_ops).expect("shipped kernels execute without faulting"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_traces_fill_the_budget_exactly() {
        for name in NAMES {
            let t = kernel_trace(name, 3_000, 42).expect("known kernel");
            assert_eq!(t.len(), 3_000, "{name}");
        }
    }

    #[test]
    fn kernel_traces_are_deterministic() {
        let a = kernel_trace("hash", 2_000, 7).unwrap();
        let b = kernel_trace("hash", 2_000, 7).unwrap();
        assert_eq!(a, b);
        let c = kernel_trace("hash", 2_000, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn unknown_kernel_is_none() {
        assert!(kernel_trace("gzip", 1_000, 1).is_none());
    }

    #[test]
    fn traces_mix_classes_and_carry_branch_outcomes() {
        use bmp_uarch::OpClass;
        for name in NAMES {
            let t = kernel_trace(name, 4_000, 1).unwrap();
            let stats = t.stats();
            let loads = t.iter().filter(|o| o.class() == OpClass::Load).count();
            let branches = t.iter().filter(|o| o.class() == OpClass::Branch).count();
            assert!(loads > 0, "{name} has no loads");
            assert!(branches > 0, "{name} has no branches");
            // Conditional branches must actually vary: an executed
            // kernel whose branches all go one way is a sizing bug.
            let taken = t
                .iter()
                .filter_map(|o| o.branch_info())
                .filter(|b| b.kind.is_conditional() && b.taken)
                .count();
            let cond = t
                .iter()
                .filter_map(|o| o.branch_info())
                .filter(|b| b.kind.is_conditional())
                .count();
            assert!(taken > 0 && taken < cond, "{name} branches are degenerate");
            assert_eq!(stats.total(), 4_000);
        }
    }
}
