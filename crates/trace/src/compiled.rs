//! Structure-of-arrays compiled traces.
//!
//! [`Trace`] stores ops as an array-of-structs with an enum payload —
//! ideal for building and validating, poor for the simulator's hot loop:
//! every access pattern-matches the payload, and dependences are encoded
//! as *distances* that each consumer must re-resolve against its own
//! position. [`CompiledTrace`] is a one-time, deterministic transform
//! into flat per-field arrays:
//!
//! * dependence distances are pre-resolved to **absolute producer
//!   indices** ([`NO_PRODUCER`] when a slot is empty or the distance
//!   reaches before the trace — such sources are ready by definition),
//! * class, pc and a packed flags byte live in dense arrays, and
//! * branch and memory payloads are split into side tables indexed
//!   through one `payload` array, so non-memory non-branch ops pay
//!   nothing for the enum.
//!
//! The transform is pure and cacheable: compiling the same trace twice
//! yields identical arrays, and [`CompiledTrace::op`] reconstructs each
//! original [`MicroOp`] exactly (for self-contained traces — windowed
//! slices whose leading ops depend on producers before the window
//! compile those sources away, as the consumers treat them as ready).

use bmp_uarch::OpClass;

use crate::op::{BranchInfo, MicroOp};
use crate::trace::Trace;

/// Sentinel producer index: the source slot is empty (or reached before
/// the start of the trace and is therefore always ready).
pub const NO_PRODUCER: u32 = u32::MAX;

/// Sentinel payload index: the op has no branch/memory side-table entry.
const NO_PAYLOAD: u32 = u32::MAX;

/// Bit set in [`CompiledTrace::flags`] for any branch op.
pub const FLAG_BRANCH: u8 = 1 << 0;
/// Bit set in [`CompiledTrace::flags`] for conditional branches.
pub const FLAG_COND_BRANCH: u8 = 1 << 1;
/// Bit set in [`CompiledTrace::flags`] for loads and stores.
pub const FLAG_MEM: u8 = 1 << 2;

/// A [`Trace`] compiled into structure-of-arrays form.
///
/// Build one with [`Trace::compile`] (or [`CompiledTrace::from_trace`]);
/// the arrays are immutable afterwards. All per-op accessors are O(1)
/// and branch-free except the side-table indirections.
///
/// # Examples
///
/// ```
/// use bmp_trace::{MicroOp, Trace, compiled::NO_PRODUCER};
/// use bmp_uarch::OpClass;
///
/// let t: Trace = vec![
///     MicroOp::alu(0x100, OpClass::IntAlu, [None, None]),
///     MicroOp::load(0x104, 0xbeef, [Some(1), None]),
/// ]
/// .into_iter()
/// .collect();
/// let ct = t.compile();
/// assert_eq!(ct.producers(1), [0, NO_PRODUCER]); // distance 1 → index 0
/// assert_eq!(ct.mem_addr(1), Some(0xbeef));
/// assert_eq!(ct.op(1), *t.get(1).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrace {
    pc: Vec<u64>,
    class: Vec<OpClass>,
    flags: Vec<u8>,
    producers: Vec<[u32; 2]>,
    payload: Vec<u32>,
    mem_addrs: Vec<u64>,
    branches: Vec<BranchInfo>,
}

impl CompiledTrace {
    /// Compiles `trace` into structure-of-arrays form.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds `u32::MAX` or more ops (the index
    /// encoding's sentinel space).
    pub fn from_trace(trace: &Trace) -> Self {
        let ops = trace.ops();
        let n = ops.len();
        assert!(
            (n as u64) < u64::from(u32::MAX),
            "trace too long for 32-bit compiled indices"
        );
        let mut out = Self {
            pc: Vec::with_capacity(n),
            class: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            producers: Vec::with_capacity(n),
            payload: Vec::with_capacity(n),
            mem_addrs: Vec::new(),
            branches: Vec::new(),
        };
        for (i, op) in ops.iter().enumerate() {
            out.pc.push(op.pc());
            out.class.push(op.class());
            out.producers.push(op.producers_at(i).map(|p| {
                if (p as usize) < i {
                    p
                } else {
                    NO_PRODUCER
                }
            }));
            let mut flags = 0u8;
            let payload = if let Some(info) = op.branch_info() {
                flags |= FLAG_BRANCH;
                if info.kind.is_conditional() {
                    flags |= FLAG_COND_BRANCH;
                }
                out.branches.push(info);
                (out.branches.len() - 1) as u32
            } else if let Some(addr) = op.mem_addr() {
                flags |= FLAG_MEM;
                out.mem_addrs.push(addr);
                (out.mem_addrs.len() - 1) as u32
            } else {
                NO_PAYLOAD
            };
            out.flags.push(flags);
            out.payload.push(payload);
        }
        out
    }

    /// Number of ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// The heap bytes of the compiled arrays.
    pub fn heap_bytes(&self) -> u64 {
        use crate::vec_bytes;
        vec_bytes(&self.pc)
            + vec_bytes(&self.class)
            + vec_bytes(&self.flags)
            + vec_bytes(&self.producers)
            + vec_bytes(&self.payload)
            + vec_bytes(&self.mem_addrs)
            + vec_bytes(&self.branches)
    }

    /// Returns `true` when the trace holds no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// The op's program counter.
    #[inline]
    pub fn pc(&self, i: usize) -> u64 {
        self.pc[i]
    }

    /// The op's class.
    #[inline]
    pub fn class(&self, i: usize) -> OpClass {
        self.class[i]
    }

    /// The packed per-op flags byte ([`FLAG_BRANCH`] / [`FLAG_COND_BRANCH`]
    /// / [`FLAG_MEM`]).
    #[inline]
    pub fn flags(&self, i: usize) -> u8 {
        self.flags[i]
    }

    /// The op's absolute producer indices ([`NO_PRODUCER`] for empty or
    /// out-of-trace source slots). Producers always precede consumers:
    /// `producers(i)[k] < i` for every real entry.
    #[inline]
    pub fn producers(&self, i: usize) -> [u32; 2] {
        self.producers[i]
    }

    /// Memory address for loads and stores, `None` otherwise.
    #[inline]
    pub fn mem_addr(&self, i: usize) -> Option<u64> {
        if self.flags[i] & FLAG_MEM != 0 {
            Some(self.mem_addrs[self.payload[i] as usize])
        } else {
            None
        }
    }

    /// Branch information for branches, `None` otherwise.
    #[inline]
    pub fn branch_info(&self, i: usize) -> Option<BranchInfo> {
        if self.flags[i] & FLAG_BRANCH != 0 {
            Some(self.branches[self.payload[i] as usize])
        } else {
            None
        }
    }

    /// Reconstructs the original [`MicroOp`] at `i`.
    ///
    /// Exact for self-contained traces. For windowed slices, source
    /// distances that reached before the window were compiled to
    /// [`NO_PRODUCER`] (they are unconditionally ready) and reconstruct
    /// as "no dependence".
    pub fn op(&self, i: usize) -> MicroOp {
        let srcs = self.producers[i].map(|p| {
            if p == NO_PRODUCER {
                None
            } else {
                Some((i - p as usize) as u32)
            }
        });
        let pc = self.pc[i];
        if let Some(info) = self.branch_info(i) {
            MicroOp::branch(pc, info.kind, info.taken, info.target, srcs)
        } else if let Some(addr) = self.mem_addr(i) {
            match self.class[i] {
                OpClass::Store => MicroOp::store(pc, addr, srcs),
                _ => MicroOp::load(pc, addr, srcs),
            }
        } else {
            MicroOp::alu(pc, self.class[i], srcs)
        }
    }

    /// Rebuilds the array-of-structs [`Trace`], one [`op`](Self::op) per
    /// position — exact for self-contained traces. For the few readers
    /// that need a whole `Trace` (the reference engine, [`Trace::stats`]);
    /// the interval model reads the compiled form directly.
    pub fn to_trace(&self) -> Trace {
        (0..self.len()).map(|i| self.op(i)).collect()
    }
}

impl Trace {
    /// Compiles this trace into [`CompiledTrace`] form; see the module
    /// docs for the layout.
    pub fn compile(&self) -> CompiledTrace {
        CompiledTrace::from_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BranchKind;
    use crate::trace::TraceBuilder;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.push(MicroOp::alu(0x100, OpClass::IntAlu, [None, None]))
            .unwrap();
        b.push(MicroOp::load(0x104, 0x1000_0000, [Some(1), None]))
            .unwrap();
        b.push(MicroOp::store(0x108, 0x2000_0008, [Some(1), Some(2)]))
            .unwrap();
        b.push(MicroOp::alu(0x10c, OpClass::FpMul, [Some(3), None]))
            .unwrap();
        b.push(MicroOp::branch(
            0x110,
            BranchKind::Conditional,
            true,
            0x100,
            [Some(2), None],
        ))
        .unwrap();
        b.push(MicroOp::branch(
            0x100,
            BranchKind::Return,
            true,
            0x200,
            [None, None],
        ))
        .unwrap();
        b.finish()
    }

    /// The round-trip guarantee: every MicroOp field survives
    /// compilation (satellite requirement).
    #[test]
    fn roundtrips_every_field() {
        let t = sample_trace();
        let ct = t.compile();
        assert_eq!(ct.len(), t.len());
        for (i, op) in t.iter().enumerate() {
            let back = ct.op(i);
            assert_eq!(back, *op, "op {i} must round-trip exactly");
            assert_eq!(back.pc(), op.pc());
            assert_eq!(back.class(), op.class());
            assert_eq!(back.srcs(), op.srcs());
            assert_eq!(back.mem_addr(), op.mem_addr());
            assert_eq!(back.branch_info(), op.branch_info());
        }
    }

    #[test]
    fn producers_are_absolute_and_backward() {
        let ct = sample_trace().compile();
        assert_eq!(ct.producers(0), [NO_PRODUCER, NO_PRODUCER]);
        assert_eq!(ct.producers(1), [0, NO_PRODUCER]);
        assert_eq!(ct.producers(2), [1, 0]);
        assert_eq!(ct.producers(3), [0, NO_PRODUCER]);
        assert_eq!(ct.producers(4), [2, NO_PRODUCER]);
        for i in 0..ct.len() {
            for p in ct.producers(i) {
                assert!(p == NO_PRODUCER || (p as usize) < i);
            }
        }
    }

    #[test]
    fn flags_and_side_tables_partition_the_ops() {
        let ct = sample_trace().compile();
        assert_eq!(ct.flags(0), 0);
        assert_eq!(ct.flags(1), FLAG_MEM);
        assert_eq!(ct.flags(2), FLAG_MEM);
        assert_eq!(ct.flags(4), FLAG_BRANCH | FLAG_COND_BRANCH);
        assert_eq!(ct.flags(5), FLAG_BRANCH);
        assert_eq!(ct.mem_addr(0), None);
        assert_eq!(ct.mem_addr(1), Some(0x1000_0000));
        assert_eq!(ct.mem_addr(2), Some(0x2000_0008));
        assert_eq!(ct.branch_info(1), None);
        assert_eq!(ct.branch_info(4).map(|b| b.target), Some(0x100));
    }

    #[test]
    fn dangling_distances_compile_to_always_ready() {
        // A windowed slice: op 0 names a producer before the window.
        let t = Trace::from_ops_unchecked(vec![
            MicroOp::alu(0x100, OpClass::IntAlu, [Some(5), None]),
            MicroOp::alu(0x104, OpClass::IntAlu, [Some(1), None]),
        ]);
        let ct = t.compile();
        assert_eq!(ct.producers(0), [NO_PRODUCER, NO_PRODUCER]);
        assert_eq!(ct.producers(1), [0, NO_PRODUCER]);
        // The dangling source reconstructs as "no dependence".
        assert_eq!(ct.op(0).srcs(), [None, None]);
    }

    #[test]
    fn empty_trace_compiles() {
        let ct = Trace::new().compile();
        assert_eq!(ct.len(), 0);
        assert!(ct.is_empty());
    }

    #[test]
    fn compilation_is_deterministic() {
        let t = sample_trace();
        assert_eq!(t.compile(), t.compile());
    }
}
