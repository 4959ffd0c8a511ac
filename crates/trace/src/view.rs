//! One read interface over both trace layouts.
//!
//! The interval model's kernels read five things of an op: its pc, its
//! class, its memory address, its branch outcome and its producers.
//! [`OpView`] gives exactly those by position, so each kernel is written
//! once and compiled for the array-of-structs slice `[MicroOp]`
//! ([`Trace::ops`](crate::Trace::ops)) and for the structure-of-arrays
//! [`CompiledTrace`].
//!
//! Producers are absolute op indices in both layouts: op `i`'s slot
//! holds its producer when the value is below `i`, and any value of `i`
//! or more marks a slot that is empty or reaches before the first op
//! (always ready). [`CompiledTrace`] stores
//! [`NO_PRODUCER`](crate::compiled::NO_PRODUCER) there; the
//! array-of-structs layout computes `i - distance` with one wrapping
//! subtraction, so neither layout needs a data-dependent branch.

use bmp_uarch::OpClass;

use crate::compiled::CompiledTrace;
use crate::op::{BranchInfo, MicroOp};

/// Positional read access to a trace's ops.
///
/// # Examples
///
/// ```
/// use bmp_trace::{MicroOp, OpView, Trace};
/// use bmp_uarch::OpClass;
///
/// fn chained<T: OpView + ?Sized>(t: &T, i: usize) -> bool {
///     t.producers(i).iter().any(|&p| (p as usize) < i)
/// }
///
/// let t: Trace = vec![
///     MicroOp::alu(0x100, OpClass::IntAlu, [None, None]),
///     MicroOp::load(0x104, 0xbeef, [Some(1), None]),
/// ]
/// .into_iter()
/// .collect();
/// assert!(chained(t.ops(), 1) && chained(&t.compile(), 1));
/// assert!(!chained(t.ops(), 0));
/// ```
pub trait OpView {
    /// Number of ops.
    fn len(&self) -> usize;

    /// Returns `true` when the view holds no ops.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The program counter of op `i`.
    fn pc(&self, i: usize) -> u64;

    /// The class of op `i`.
    fn class(&self, i: usize) -> OpClass;

    /// The memory address of op `i` for loads and stores, `None`
    /// otherwise.
    fn mem_addr(&self, i: usize) -> Option<u64>;

    /// The branch information of op `i` for branches, `None` otherwise.
    fn branch_info(&self, i: usize) -> Option<BranchInfo>;

    /// The absolute producer indices of op `i`'s two source slots. A
    /// value below `i` is the producer; a value of `i` or more (such as
    /// [`NO_PRODUCER`](crate::compiled::NO_PRODUCER)) marks an empty
    /// slot or a source before the first op.
    fn producers(&self, i: usize) -> [u32; 2];
}

impl OpView for [MicroOp] {
    #[inline]
    fn len(&self) -> usize {
        <[MicroOp]>::len(self)
    }

    #[inline]
    fn pc(&self, i: usize) -> u64 {
        self[i].pc()
    }

    #[inline]
    fn class(&self, i: usize) -> OpClass {
        self[i].class()
    }

    #[inline]
    fn mem_addr(&self, i: usize) -> Option<u64> {
        self[i].mem_addr()
    }

    #[inline]
    fn branch_info(&self, i: usize) -> Option<BranchInfo> {
        self[i].branch_info()
    }

    #[inline]
    fn producers(&self, i: usize) -> [u32; 2] {
        self[i].producers_at(i)
    }
}

impl OpView for CompiledTrace {
    #[inline]
    fn len(&self) -> usize {
        CompiledTrace::len(self)
    }

    #[inline]
    fn pc(&self, i: usize) -> u64 {
        CompiledTrace::pc(self, i)
    }

    #[inline]
    fn class(&self, i: usize) -> OpClass {
        CompiledTrace::class(self, i)
    }

    #[inline]
    fn mem_addr(&self, i: usize) -> Option<u64> {
        CompiledTrace::mem_addr(self, i)
    }

    #[inline]
    fn branch_info(&self, i: usize) -> Option<BranchInfo> {
        CompiledTrace::branch_info(self, i)
    }

    #[inline]
    fn producers(&self, i: usize) -> [u32; 2] {
        CompiledTrace::producers(self, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::NO_PRODUCER;
    use crate::op::BranchKind;
    use crate::trace::Trace;

    /// Every accessor of `v` agrees with the ops of `t`; producers agree
    /// up to how each layout marks a slot with none, including sources
    /// that reach before the first op.
    fn agrees<V: OpView + ?Sized>(v: &V, t: &Trace) {
        assert_eq!(v.len(), t.len());
        assert!(!v.is_empty());
        for (i, op) in t.iter().enumerate() {
            assert_eq!(v.pc(i), op.pc());
            assert_eq!(v.class(i), op.class());
            assert_eq!(v.mem_addr(i), op.mem_addr());
            assert_eq!(v.branch_info(i), op.branch_info());
        }
        let producers = |i: usize| v.producers(i).map(|p| ((p as usize) < i).then_some(p));
        assert_eq!(producers(0), [None, None]);
        assert_eq!(producers(1), [Some(0), None]);
        assert_eq!(producers(2), [Some(0), Some(1)]);
        assert_eq!(producers(3), [Some(2), None]);
        assert_eq!(producers(4), [Some(0), None]);
    }

    #[test]
    fn layouts_agree_op_for_op() {
        let t = Trace::from_ops_unchecked(vec![
            MicroOp::alu(0x100, OpClass::IntAlu, [Some(3), None]),
            MicroOp::load(0x104, 0xbeef, [Some(1), Some(2)]),
            MicroOp::store(0x108, 0x10, [Some(2), Some(1)]),
            MicroOp::branch(0x10c, BranchKind::Call, true, 0x40, [Some(1), None]),
            MicroOp::alu(0x40, OpClass::FpDiv, [Some(4), Some(u32::MAX)]),
        ]);
        agrees(t.ops(), &t);
        let ct = t.compile();
        agrees(&ct, &t);
        for i in 0..ct.len() {
            for p in ct.producers(i) {
                assert!((p as usize) < i || p == NO_PRODUCER);
            }
        }
    }
}
