//! The dynamic micro-operation type.

use bmp_uarch::OpClass;
use serde::{Deserialize, Serialize};

/// Control-transfer flavors, used by the BTB/RAS models and the workload
/// generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Conditional direct branch; the only kind the direction predictor
    /// speaks to.
    Conditional,
    /// Unconditional direct jump.
    Jump,
    /// Direct call (pushes the return-address stack).
    Call,
    /// Return (pops the return-address stack).
    Return,
    /// Indirect jump (switch table, virtual call): the target varies at
    /// run time, so the frontend relies on the BTB's last-seen target and
    /// mispredicts when it changes.
    IndirectJump,
}

impl BranchKind {
    /// Returns `true` for conditional branches.
    #[inline]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }
}

/// Resolved control-flow information attached to a branch micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// The architected outcome: `true` if the branch is taken.
    pub taken: bool,
    /// The architected target address (next PC when taken).
    pub target: u64,
    /// The control-transfer flavor.
    pub kind: BranchKind,
}

/// What a [`MicroOp`]'s `addr` field holds. The enum fits one byte:
/// `Branch` carries the kind and the other two variants take spare
/// discriminants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum Payload {
    None,
    Mem,
    Branch(BranchKind),
}

/// One dynamic instruction of the correct-path stream.
///
/// Register dependences are encoded as *distances*: `Some(d)` means "my
/// producer is the instruction `d` positions earlier in the trace". The
/// constructors enforce that the payload matches the class (loads carry an
/// address, branches carry a [`BranchInfo`], and so on), so a constructed
/// `MicroOp` is always internally consistent.
///
/// # Examples
///
/// ```
/// use bmp_trace::{BranchKind, MicroOp};
/// use bmp_uarch::OpClass;
///
/// let br = MicroOp::branch(0x40, BranchKind::Conditional, true, 0x80, [Some(2), None]);
/// assert!(br.class().is_branch());
/// assert_eq!(br.branch_info().unwrap().target, 0x80);
/// assert_eq!(br.mem_addr(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MicroOp {
    pc: u64,
    class: OpClass,
    /// The address of a load or store, the taken target of a branch,
    /// 0 otherwise.
    addr: u64,
    /// Dependence distances; 0 encodes "no dependence".
    srcs: [u32; 2],
    payload: Payload,
    /// A branch's outcome; `false` for every other op.
    taken: bool,
}

impl MicroOp {
    fn encode_srcs(srcs: [Option<u32>; 2]) -> [u32; 2] {
        let enc = |s: Option<u32>| match s {
            Some(0) | None => 0,
            Some(d) => d,
        };
        [enc(srcs[0]), enc(srcs[1])]
    }

    /// Creates a non-memory, non-branch computational op of the given
    /// class.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `class` is a memory or branch class — use
    /// the dedicated constructors for those.
    pub fn alu(pc: u64, class: OpClass, srcs: [Option<u32>; 2]) -> Self {
        debug_assert!(
            !class.is_memory() && !class.is_branch(),
            "use MicroOp::load/store/branch for {class}"
        );
        Self {
            pc,
            class,
            addr: 0,
            srcs: Self::encode_srcs(srcs),
            payload: Payload::None,
            taken: false,
        }
    }

    /// Creates a load from `addr`.
    pub fn load(pc: u64, addr: u64, srcs: [Option<u32>; 2]) -> Self {
        Self {
            pc,
            class: OpClass::Load,
            addr,
            srcs: Self::encode_srcs(srcs),
            payload: Payload::Mem,
            taken: false,
        }
    }

    /// Creates a store to `addr`.
    pub fn store(pc: u64, addr: u64, srcs: [Option<u32>; 2]) -> Self {
        Self {
            pc,
            class: OpClass::Store,
            addr,
            srcs: Self::encode_srcs(srcs),
            payload: Payload::Mem,
            taken: false,
        }
    }

    /// Creates a branch with its resolved outcome and target.
    pub fn branch(
        pc: u64,
        kind: BranchKind,
        taken: bool,
        target: u64,
        srcs: [Option<u32>; 2],
    ) -> Self {
        Self {
            pc,
            class: OpClass::Branch,
            addr: target,
            srcs: Self::encode_srcs(srcs),
            payload: Payload::Branch(kind),
            taken,
        }
    }

    /// The instruction's program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The operation class.
    #[inline]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// The two source-dependence distances; `None` means no dependence in
    /// that slot.
    #[inline]
    pub fn srcs(&self) -> [Option<u32>; 2] {
        let dec = |d: u32| if d == 0 { None } else { Some(d) };
        [dec(self.srcs[0]), dec(self.srcs[1])]
    }

    /// Iterator over the present dependence distances.
    #[inline]
    pub fn src_distances(&self) -> impl Iterator<Item = u32> + '_ {
        self.srcs.iter().copied().filter(|&d| d != 0)
    }

    /// The absolute producer indices of this op at trace position `i`:
    /// `i - d` for a source at distance `d` with `1 <= d <= i`, and a
    /// value of `i` or more for an empty slot or a source before the
    /// trace (the [`OpView::producers`](crate::OpView::producers)
    /// contract). One wrapping subtraction, so the model's kernels read
    /// it without a data-dependent branch.
    #[inline]
    pub(crate) fn producers_at(&self, i: usize) -> [u32; 2] {
        self.srcs.map(|d| (i as u32).wrapping_sub(d))
    }

    /// Memory address for loads and stores, `None` otherwise.
    #[inline]
    pub fn mem_addr(&self) -> Option<u64> {
        match self.payload {
            Payload::Mem => Some(self.addr),
            _ => None,
        }
    }

    /// Branch information for branches, `None` otherwise.
    #[inline]
    pub fn branch_info(&self) -> Option<BranchInfo> {
        match self.payload {
            Payload::Branch(kind) => Some(BranchInfo {
                taken: self.taken,
                target: self.addr,
                kind,
            }),
            _ => None,
        }
    }

    /// Returns `true` if this is a conditional branch.
    #[inline]
    pub fn is_conditional_branch(&self) -> bool {
        self.payload == Payload::Branch(BranchKind::Conditional)
    }

    /// The address of the next instruction on the architected path:
    /// the branch target when taken, otherwise `pc + 4` (a fixed 4-byte
    /// instruction encoding is assumed throughout).
    pub fn next_pc(&self) -> u64 {
        if self.taken {
            self.addr
        } else {
            self.pc.wrapping_add(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_op_is_32_bytes() {
        assert_eq!(std::mem::size_of::<MicroOp>(), 32);
    }

    #[test]
    fn constructors_set_class() {
        assert_eq!(MicroOp::load(0, 0, [None, None]).class(), OpClass::Load);
        assert_eq!(MicroOp::store(0, 0, [None, None]).class(), OpClass::Store);
        assert_eq!(
            MicroOp::branch(0, BranchKind::Jump, true, 8, [None, None]).class(),
            OpClass::Branch
        );
        assert_eq!(
            MicroOp::alu(0, OpClass::FpMul, [None, None]).class(),
            OpClass::FpMul
        );
    }

    #[test]
    #[should_panic(expected = "use MicroOp::load")]
    #[cfg(debug_assertions)]
    fn alu_rejects_memory_class() {
        let _ = MicroOp::alu(0, OpClass::Load, [None, None]);
    }

    #[test]
    fn src_encoding_roundtrip() {
        let op = MicroOp::alu(0, OpClass::IntAlu, [Some(3), None]);
        assert_eq!(op.srcs(), [Some(3), None]);
        assert_eq!(op.src_distances().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn zero_distance_is_no_dependence() {
        // A distance of zero would mean "depends on itself"; it is
        // normalized to no-dependence.
        let op = MicroOp::alu(0, OpClass::IntAlu, [Some(0), Some(5)]);
        assert_eq!(op.srcs(), [None, Some(5)]);
    }

    #[test]
    fn payload_accessors_are_exclusive() {
        let ld = MicroOp::load(0, 0x1234, [None, None]);
        assert_eq!(ld.mem_addr(), Some(0x1234));
        assert!(ld.branch_info().is_none());

        let br = MicroOp::branch(0, BranchKind::Return, false, 0, [None, None]);
        assert!(br.mem_addr().is_none());
        assert_eq!(br.branch_info().unwrap().kind, BranchKind::Return);
    }

    #[test]
    fn next_pc_follows_taken_branches() {
        let br = MicroOp::branch(0x100, BranchKind::Conditional, true, 0x40, [None, None]);
        assert_eq!(br.next_pc(), 0x40);
        let nt = MicroOp::branch(0x100, BranchKind::Conditional, false, 0x40, [None, None]);
        assert_eq!(nt.next_pc(), 0x104);
        let alu = MicroOp::alu(0x100, OpClass::IntAlu, [None, None]);
        assert_eq!(alu.next_pc(), 0x104);
    }

    #[test]
    fn conditional_detection() {
        assert!(
            MicroOp::branch(0, BranchKind::Conditional, true, 0, [None, None])
                .is_conditional_branch()
        );
        assert!(
            !MicroOp::branch(0, BranchKind::Call, true, 0, [None, None]).is_conditional_branch()
        );
        assert!(!MicroOp::alu(0, OpClass::IntAlu, [None, None]).is_conditional_branch());
    }
}
