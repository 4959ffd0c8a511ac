//! Compact binary serialization of traces.
//!
//! Synthesizing a multi-million-instruction trace is cheap but not free;
//! saving it lets a parameter sweep reuse one trace across dozens of
//! machine configurations, and lets experiments archive exactly what they
//! ran. The format is a simple length-prefixed record stream:
//!
//! ```text
//! magic "BMPT"  u8 version  u64 op-count
//! per op:
//!   u8  tag          (class index, with branch flavors folded in)
//!   u64 pc
//!   u32 src1, u32 src2          (0 = none)
//!   payload:
//!     memory ops:  u64 addr
//!     branches:    u64 target, u8 taken
//! ```
//!
//! All integers are little-endian. The format is versioned and refuses
//! foreign or truncated input with a descriptive [`TraceIoError`].

use std::io::{Read, Write};

use bmp_uarch::OpClass;

use crate::op::{BranchKind, MicroOp};
use crate::trace::Trace;

const MAGIC: &[u8; 4] = b"BMPT";
const VERSION: u8 = 1;

/// Tags: 0..=8 mirror `OpClass::index()` for non-branch classes; branches
/// encode their kind.
const TAG_BRANCH_COND: u8 = 16;
const TAG_BRANCH_JUMP: u8 = 17;
const TAG_BRANCH_CALL: u8 = 18;
const TAG_BRANCH_RET: u8 = 19;
const TAG_BRANCH_INDIRECT: u8 = 20;

/// Ops reserved before any record is read. The header's op count is
/// untrusted until its records arrive (a 13-byte input can claim 2^64
/// ops), so larger traces grow the vector as they are read.
const PRESIZE_OPS: usize = 1 << 12;

/// Error reading or writing a serialized trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the trace magic.
    BadMagic,
    /// The input's format version is not supported.
    BadVersion(u8),
    /// An op record carried an unknown tag.
    BadTag(u8),
    /// The input ended before the declared op count was read.
    Truncated,
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::BadMagic => f.write_str("input is not a bmp trace (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceIoError::BadTag(t) => write!(f, "unknown op tag {t}"),
            TraceIoError::Truncated => f.write_str("trace input ended early"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated
        } else {
            TraceIoError::Io(e)
        }
    }
}

fn class_tag(op: &MicroOp) -> u8 {
    match op.branch_info() {
        Some(info) => match info.kind {
            BranchKind::Conditional => TAG_BRANCH_COND,
            BranchKind::Jump => TAG_BRANCH_JUMP,
            BranchKind::Call => TAG_BRANCH_CALL,
            BranchKind::Return => TAG_BRANCH_RET,
            BranchKind::IndirectJump => TAG_BRANCH_INDIRECT,
        },
        None => op.class().index() as u8,
    }
}

/// Writes `trace` to `w` in the compact binary format.
///
/// A `&mut` reference works as the writer, e.g. `&mut Vec<u8>` or
/// `&mut File`.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on any underlying write failure.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for op in trace.iter() {
        w.write_all(&[class_tag(op)])?;
        w.write_all(&op.pc().to_le_bytes())?;
        let srcs = op.srcs();
        w.write_all(&srcs[0].unwrap_or(0).to_le_bytes())?;
        w.write_all(&srcs[1].unwrap_or(0).to_le_bytes())?;
        if let Some(addr) = op.mem_addr() {
            w.write_all(&addr.to_le_bytes())?;
        } else if let Some(info) = op.branch_info() {
            w.write_all(&info.target.to_le_bytes())?;
            w.write_all(&[u8::from(info.taken)])?;
        }
    }
    Ok(())
}

fn read_u8<R: Read>(r: &mut R) -> Result<u8, TraceIoError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, TraceIoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceIoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns a [`TraceIoError`] for foreign input, version mismatch,
/// unknown tags, or truncation.
pub fn read_trace<R: Read>(mut r: R) -> Result<Trace, TraceIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = read_u8(&mut r)?;
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let n = read_u64(&mut r)? as usize;
    let mut ops = Vec::with_capacity(n.min(PRESIZE_OPS));
    for _ in 0..n {
        let tag = read_u8(&mut r)?;
        let pc = read_u64(&mut r)?;
        let s1 = read_u32(&mut r)?;
        let s2 = read_u32(&mut r)?;
        let srcs = [(s1 != 0).then_some(s1), (s2 != 0).then_some(s2)];
        let op = match tag {
            TAG_BRANCH_COND | TAG_BRANCH_JUMP | TAG_BRANCH_CALL | TAG_BRANCH_RET
            | TAG_BRANCH_INDIRECT => {
                let target = read_u64(&mut r)?;
                let taken = read_u8(&mut r)? != 0;
                let kind = match tag {
                    TAG_BRANCH_COND => BranchKind::Conditional,
                    TAG_BRANCH_JUMP => BranchKind::Jump,
                    TAG_BRANCH_CALL => BranchKind::Call,
                    TAG_BRANCH_INDIRECT => BranchKind::IndirectJump,
                    _ => BranchKind::Return,
                };
                MicroOp::branch(pc, kind, taken, target, srcs)
            }
            t if (t as usize) < bmp_uarch::OP_CLASSES.len() => {
                let class = bmp_uarch::OP_CLASSES[t as usize];
                match class {
                    OpClass::Load => MicroOp::load(pc, read_u64(&mut r)?, srcs),
                    OpClass::Store => MicroOp::store(pc, read_u64(&mut r)?, srcs),
                    OpClass::Branch => return Err(TraceIoError::BadTag(t)),
                    other => MicroOp::alu(pc, other, srcs),
                }
            }
            t => return Err(TraceIoError::BadTag(t)),
        };
        ops.push(op);
    }
    Ok(Trace::from_ops_unchecked(ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let ops = vec![
            MicroOp::alu(0x100, OpClass::IntAlu, [None, None]),
            MicroOp::alu(0x104, OpClass::FpMul, [Some(1), None]),
            MicroOp::load(0x108, 0xdead_beef, [Some(2), Some(1)]),
            MicroOp::store(0x10c, 0xcafe_f00d, [Some(1), None]),
            MicroOp::branch(0x110, BranchKind::Conditional, true, 0x100, [Some(2), None]),
            MicroOp::branch(0x100, BranchKind::Jump, true, 0x200, [None, None]),
            MicroOp::branch(0x200, BranchKind::Call, true, 0x300, [None, None]),
            MicroOp::branch(0x300, BranchKind::Return, true, 0x204, [None, None]),
            MicroOp::branch(
                0x304,
                BranchKind::IndirectJump,
                true,
                0x400,
                [Some(1), None],
            ),
        ];
        Trace::from_ops_unchecked(ops)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_generated_trace() {
        // The real consumer: a generated workload.
        let ops: Vec<MicroOp> = (0..500)
            .map(|i| {
                MicroOp::alu(
                    0x1000 + i * 4,
                    OpClass::IntAlu,
                    [if i > 0 { Some(1) } else { None }, None],
                )
            })
            .collect();
        let t = Trace::from_ops_unchecked(ops);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            TraceIoError::BadVersion(99)
        ));
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            TraceIoError::Truncated
        ));
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf[13] = 42; // first op's tag byte (4 magic + 1 version + 8 count)
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            TraceIoError::BadTag(42)
        ));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(TraceIoError::BadMagic.to_string().contains("magic"));
        assert!(TraceIoError::Truncated.to_string().contains("early"));
    }
}
