//! Pins every executed kernel trace, op for op.
//!
//! Each kernel's trace at 50,000 ops and seed 42 is folded through
//! FNV-1a field by field: `pc`, class index, both source distances,
//! the memory address and the branch kind, outcome and target. The
//! fold reads only public accessors, never `Debug` or `Hash`, so it
//! pins what the trace *says* and not how `MicroOp` lays it out. A
//! change to the assembler, the executor, its memory or the recorder
//! that alters any op of any kernel fails here.

use bmp_trace::Trace;
use bmp_uarch::fp::fnv1a;

const OPS: usize = 50_000;
const SEED: u64 = 42;

/// Expected digests, in `bmp_isa::NAMES` order, computed before the
/// executor's memory moved to whole-word page accesses.
const PINNED: [(&str, u64); 5] = [
    ("isort", 0x3a6009a6deebbc97),
    ("hash", 0x5b59855f9989ad86),
    ("parse", 0x986448d2c7c01a69),
    ("rle", 0x5b5c02ef5be6172d),
    ("bsearch", 0xc14db038a9e7c98f),
];

fn fold(trace: &Trace) -> u64 {
    let mut bytes = Vec::with_capacity(trace.len() * 36);
    for op in trace.iter() {
        bytes.extend_from_slice(&op.pc().to_le_bytes());
        bytes.push(op.class().index() as u8);
        for src in op.srcs() {
            bytes.extend_from_slice(&src.unwrap_or(0).to_le_bytes());
        }
        match op.mem_addr() {
            Some(addr) => {
                bytes.push(1);
                bytes.extend_from_slice(&addr.to_le_bytes());
            }
            None => bytes.push(0),
        }
        match op.branch_info() {
            Some(b) => {
                bytes.push(1 + b.kind as u8);
                bytes.push(u8::from(b.taken));
                bytes.extend_from_slice(&b.target.to_le_bytes());
            }
            None => bytes.push(0),
        }
    }
    fnv1a(&bytes)
}

#[test]
fn every_kernel_trace_is_pinned() {
    let names: Vec<&str> = PINNED.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, bmp_isa::NAMES, "pin table must cover NAMES in order");
    let got: Vec<(&str, u64)> = bmp_isa::NAMES
        .iter()
        .map(|&name| {
            let trace = bmp_isa::kernel_trace(name, OPS, SEED).expect("known kernel");
            assert_eq!(trace.len(), OPS, "{name}");
            (name, fold(&trace))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "executed kernel traces changed; now:\n{table}");
}
