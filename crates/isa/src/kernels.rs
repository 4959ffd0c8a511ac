//! The embedded RV32IM kernel suite.
//!
//! Five small programs chosen for data-dependent branch behaviour —
//! the structure statistical workload generators flatten out:
//!
//! | kernel    | shape                                   | hard branches |
//! |-----------|-----------------------------------------|---------------|
//! | `isort`   | insertion sort of random words          | inner-loop compare/shift exit |
//! | `hash`    | FNV-1a + open-addressing insertion      | probe-hit vs collision |
//! | `parse`   | ASCII decimal scanning with separators  | digit/separator classification |
//! | `rle`     | run-length encoding of a skewed buffer  | run-continuation |
//! | `bsearch` | repeated binary search over sorted data | compare direction per level |
//!
//! Each kernel is assembled from the [`crate::asm`] builder, with its
//! input data generated host-side from the deterministic vendored RNG
//! and sized from the requested op budget so that a single pass
//! slightly overshoots the budget. The body sits inside an infinite
//! outer loop (the last instruction jumps back to the entry), so the
//! executor always truncates at exactly the budget and the emitted
//! trace keeps control-flow continuity — there is no halt inside a
//! kernel, only re-execution over the (possibly mutated) data.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::asm::{reg, Asm};

/// Base address where kernel code is loaded.
pub const CODE_BASE: u32 = 0x0010_0000;
/// Base address of each kernel's primary input data.
pub const DATA_BASE: u32 = 0x5000_0000;
/// Base address for kernel outputs and scratch tables.
pub const SCRATCH_BASE: u32 = 0x6000_0000;

/// Kernel names in canonical order. Disjoint from the statistical
/// profile names in `bmp-workloads`, so a cell label is unambiguous
/// about its workload source.
pub const NAMES: [&str; 5] = ["isort", "hash", "parse", "rle", "bsearch"];

/// A loadable program: assembled code plus generated data segments.
#[derive(Debug, Clone)]
pub struct Program {
    /// Kernel name (one of [`NAMES`]).
    pub name: &'static str,
    /// Load address of `code`.
    pub code_base: u32,
    /// Assembled instruction words.
    pub code: Vec<u32>,
    /// Entry point (always `code_base` for this suite).
    pub entry: u32,
    /// Data segments as `(base address, bytes)` pairs.
    pub data: Vec<(u32, Vec<u8>)>,
}

fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Deterministic per-kernel RNG: the kernel name perturbs the seed so
/// sibling kernels at the same `(ops, seed)` see different data.
fn kernel_rng(name: &str, seed: u64) -> SmallRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SmallRng::seed_from_u64(seed ^ h)
}

/// Integer square root (floor).
fn isqrt(v: u64) -> u64 {
    if v < 2 {
        return v;
    }
    let mut x = v;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + v / x) / 2;
    }
    x
}

/// Builds the named kernel sized for roughly `target_ops` executed
/// instructions per pass; `None` for an unknown name.
pub fn build(name: &str, target_ops: usize, seed: u64) -> Option<Program> {
    let ops = target_ops.max(256) as u64;
    match name {
        "isort" => Some(isort(ops, seed)),
        "hash" => Some(hash(ops, seed)),
        "parse" => Some(parse(ops, seed)),
        "rle" => Some(rle(ops, seed)),
        "bsearch" => Some(bsearch(ops, seed)),
        _ => None,
    }
}

/// Insertion sort: one pass over `n` random words costs ~`2n^2` ops,
/// almost all of them in the data-dependent shift loop.
fn isort(ops: u64, seed: u64) -> Program {
    let mut rng = kernel_rng("isort", seed);
    // 2n^2 ≈ 1.3 * ops  =>  n = sqrt(0.65 * ops).
    let n = isqrt(ops * 13 / 20).clamp(16, 65_536) as u32;
    let data: Vec<u32> = (0..n).map(|_| rng.gen::<u32>()).collect();

    use reg::*;
    let mut a = Asm::new(CODE_BASE);
    a.label("restart");
    a.li(A0, DATA_BASE as i32);
    a.li(A1, n as i32);
    a.li(T0, 1); // i = 1
    a.label("outer");
    a.bge(T0, A1, "wrap");
    a.slli(T1, T0, 2);
    a.add(T1, T1, A0);
    a.lw(T2, 0, T1); // key = a[i]
    a.mv(T3, T0); // j = i
    a.label("inner");
    a.beq(T3, ZERO, "place");
    a.slli(T4, T3, 2);
    a.add(T4, T4, A0);
    a.lw(T5, -4, T4); // a[j-1]
    a.bgeu(T2, T5, "place"); // key >= a[j-1]: stop shifting
    a.sw(T5, 0, T4); // a[j] = a[j-1]
    a.addi(T3, T3, -1);
    a.j("inner");
    a.label("place");
    a.slli(T4, T3, 2);
    a.add(T4, T4, A0);
    a.sw(T2, 0, T4); // a[j] = key
    a.addi(T0, T0, 1);
    a.j("outer");
    a.label("wrap");
    a.j("restart");

    Program {
        name: "isort",
        code_base: CODE_BASE,
        code: a.finish(),
        entry: CODE_BASE,
        data: vec![(DATA_BASE, words_to_bytes(&data))],
    }
}

/// FNV-1a hashing of random keys into an open-addressing table at
/// half load factor: probe length varies per key, and the hit/empty/
/// collision three-way split is data-dependent.
fn hash(ops: u64, seed: u64) -> Program {
    let mut rng = kernel_rng("hash", seed);
    // ~42 ops per key (4-byte FNV loop + probes); overshoot by 1.3x.
    let m = (ops * 13 / (10 * 42)).clamp(16, 1 << 20) as u32;
    // Nonzero keys: zero is the table's empty-slot sentinel.
    let keys: Vec<u32> = (0..m).map(|_| rng.gen::<u32>() | 1).collect();
    let tsize = (2 * m).next_power_of_two();
    let mask = tsize - 1;

    use reg::*;
    let mut a = Asm::new(CODE_BASE);
    a.label("restart");
    a.li(S0, DATA_BASE as i32); // key cursor
    a.li(S1, m as i32); // keys remaining
    a.li(S2, SCRATCH_BASE as i32); // table
    a.li(S3, mask as i32);
    a.li(T6, 0x0100_0193); // FNV prime, hoisted
    a.label("keys");
    a.beq(S1, ZERO, "wrap");
    a.lw(A0, 0, S0); // key
    a.li(T0, 0x811c_9dc5_u32 as i32); // FNV offset basis
    a.li(T1, 4); // byte counter
    a.mv(T2, A0);
    a.label("fnv");
    a.andi(T3, T2, 0xff);
    a.xor(T0, T0, T3);
    a.mul(T0, T0, T6);
    a.srli(T2, T2, 8);
    a.addi(T1, T1, -1);
    a.bne(T1, ZERO, "fnv");
    a.and(T0, T0, S3); // slot = h & mask
    a.label("probe");
    a.slli(T3, T0, 2);
    a.add(T3, T3, S2);
    a.lw(T4, 0, T3);
    a.beq(T4, ZERO, "insert"); // empty slot
    a.beq(T4, A0, "next"); // already present
    a.addi(T0, T0, 1); // linear probe
    a.and(T0, T0, S3);
    a.j("probe");
    a.label("insert");
    a.sw(A0, 0, T3);
    a.label("next");
    a.addi(S0, S0, 4);
    a.addi(S1, S1, -1);
    a.j("keys");
    a.label("wrap");
    a.j("restart");

    Program {
        name: "hash",
        code_base: CODE_BASE,
        code: a.finish(),
        entry: CODE_BASE,
        data: vec![(DATA_BASE, words_to_bytes(&keys))],
    }
}

/// ASCII decimal parsing: classify each character as digit or
/// separator, accumulate values, store the running sum. Number lengths
/// and separator choice are random, so the digit-loop trip count and
/// the classification branch are both hard to predict.
fn parse(ops: u64, seed: u64) -> Program {
    let mut rng = kernel_rng("parse", seed);
    // ~7.5 ops per character; overshoot by 1.3x.
    let target_chars = (ops * 13 / (10 * 6)).clamp(64, 1 << 22) as usize;
    let mut text = Vec::with_capacity(target_chars + 16);
    while text.len() < target_chars {
        let digits = rng.gen_range(1_u32..=8);
        text.push(b'1' + rng.gen_range(0_u32..9) as u8);
        for _ in 1..digits {
            text.push(b'0' + rng.gen_range(0_u32..10) as u8);
        }
        text.push(match rng.gen_range(0_u32..3) {
            0 => b' ',
            1 => b',',
            _ => b'\n',
        });
    }
    text.push(0); // terminator

    use reg::*;
    let mut a = Asm::new(CODE_BASE);
    a.label("restart");
    a.li(S0, DATA_BASE as i32); // cursor
    a.li(S1, 0); // sum
    a.label("top");
    a.lbu(T0, 0, S0);
    a.beq(T0, ZERO, "flush"); // end of buffer
    a.addi(T1, T0, -48); // c - '0'
    a.sltiu(T2, T1, 10); // digit?
    a.beq(T2, ZERO, "skip");
    a.li(T3, 0); // value
    a.li(T4, 10);
    a.label("num");
    a.mul(T3, T3, T4);
    a.add(T3, T3, T1);
    a.addi(S0, S0, 1);
    a.lbu(T0, 0, S0);
    a.addi(T1, T0, -48);
    a.sltiu(T2, T1, 10);
    a.bne(T2, ZERO, "num"); // next digit
    a.add(S1, S1, T3);
    a.j("top");
    a.label("skip");
    a.addi(S0, S0, 1);
    a.j("top");
    a.label("flush");
    a.li(T5, SCRATCH_BASE as i32);
    a.sw(S1, 0, T5);
    a.j("restart");

    Program {
        name: "parse",
        code_base: CODE_BASE,
        code: a.finish(),
        entry: CODE_BASE,
        data: vec![(DATA_BASE, text)],
    }
}

/// Run-length encoding of a buffer with geometric-ish run lengths over
/// a small alphabet: the run-continuation branch flips at
/// data-dependent positions.
fn rle(ops: u64, seed: u64) -> Program {
    let mut rng = kernel_rng("rle", seed);
    // ~7 ops per input byte; overshoot by 1.3x.
    let target_len = (ops * 13 / (10 * 6)).clamp(64, 1 << 22) as usize;
    let mut src = Vec::with_capacity(target_len + 48);
    let mut prev = u8::MAX;
    while src.len() < target_len {
        // Consecutive runs must differ, or they would merge.
        let sym = loop {
            let s = b'a' + rng.gen_range(0_u32..8) as u8;
            if s != prev {
                break s;
            }
        };
        prev = sym;
        let len = if rng.gen_bool(0.2) {
            rng.gen_range(4_u32..=40)
        } else {
            rng.gen_range(1_u32..=3)
        };
        src.extend(std::iter::repeat_n(sym, len as usize));
    }
    let src_end = DATA_BASE + src.len() as u32;

    use reg::*;
    let mut a = Asm::new(CODE_BASE);
    a.label("restart");
    a.li(S0, DATA_BASE as i32); // src cursor
    a.li(S1, src_end as i32); // src end
    a.li(S2, SCRATCH_BASE as i32); // dst cursor
    a.label("top");
    a.bgeu(S0, S1, "wrap");
    a.lbu(T0, 0, S0); // run symbol
    a.li(T1, 1); // run length
    a.label("run");
    a.add(T2, S0, T1);
    a.bgeu(T2, S1, "emit");
    a.lbu(T3, 0, T2);
    a.bne(T3, T0, "emit"); // run ends
    a.addi(T1, T1, 1);
    a.j("run");
    a.label("emit");
    a.sb(T0, 0, S2); // symbol
    a.sb(T1, 1, S2); // length (< 256 by construction)
    a.addi(S2, S2, 2);
    a.add(S0, S0, T1);
    a.j("top");
    a.label("wrap");
    a.j("restart");

    Program {
        name: "rle",
        code_base: CODE_BASE,
        code: a.finish(),
        entry: CODE_BASE,
        data: vec![(DATA_BASE, src)],
    }
}

/// Repeated binary search: every level of every probe is a three-way
/// compare whose direction depends on the key — the canonical
/// hard-to-predict branch pattern. Half the probe keys hit, half are
/// random (mostly missing).
fn bsearch(ops: u64, seed: u64) -> Program {
    let mut rng = kernel_rng("bsearch", seed);
    let n = (ops / 20).clamp(64, 8192) as u32;
    let mut arr: Vec<u32> = (0..n).map(|_| rng.gen::<u32>()).collect();
    arr.sort_unstable();
    let lg = 32 - n.leading_zeros() as u64; // ceil(log2) + 1 bound
    let per_probe = 10 * lg + 10;
    let m = (ops * 13 / (10 * per_probe)).clamp(8, 1 << 20) as u32;
    let probes: Vec<u32> = (0..m)
        .map(|_| {
            if rng.gen_bool(0.5) {
                arr[rng.gen_range(0_usize..arr.len())]
            } else {
                rng.gen::<u32>()
            }
        })
        .collect();
    let probes_base = DATA_BASE + 4 * n;

    use reg::*;
    let mut a = Asm::new(CODE_BASE);
    a.label("restart");
    a.li(S0, DATA_BASE as i32); // sorted array
    a.li(S1, n as i32);
    a.li(S2, probes_base as i32); // probe cursor
    a.li(S3, m as i32); // probes remaining
    a.li(A5, 0); // hit count
    a.label("ploop");
    a.beq(S3, ZERO, "flush");
    a.lw(A0, 0, S2); // key
    a.li(T0, 0); // lo
    a.mv(T1, S1); // hi = n
    a.label("bs");
    a.bgeu(T0, T1, "miss"); // lo >= hi: not found
    a.add(T2, T0, T1);
    a.srli(T2, T2, 1); // mid
    a.slli(T3, T2, 2);
    a.add(T3, T3, S0);
    a.lw(T4, 0, T3); // arr[mid]
    a.beq(T4, A0, "hit");
    a.bltu(T4, A0, "right");
    a.mv(T1, T2); // hi = mid
    a.j("bs");
    a.label("right");
    a.addi(T0, T2, 1); // lo = mid + 1
    a.j("bs");
    a.label("hit");
    a.addi(A5, A5, 1);
    a.label("miss");
    a.addi(S2, S2, 4);
    a.addi(S3, S3, -1);
    a.j("ploop");
    a.label("flush");
    a.li(T5, SCRATCH_BASE as i32);
    a.sw(A5, 0, T5);
    a.j("restart");

    let mut data = words_to_bytes(&arr);
    data.extend(words_to_bytes(&probes));
    Program {
        name: "bsearch",
        code_base: CODE_BASE,
        code: a.finish(),
        entry: CODE_BASE,
        data: vec![(DATA_BASE, data)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds() {
        for name in NAMES {
            let p = build(name, 4_000, 7).expect("known kernel");
            assert_eq!(p.name, name);
            assert!(!p.code.is_empty());
            assert!(!p.data.is_empty());
            assert_eq!(p.entry, CODE_BASE);
        }
        assert!(build("nosuch", 4_000, 7).is_none());
    }

    #[test]
    fn data_is_seed_dependent_and_deterministic() {
        let a = build("isort", 4_000, 1).unwrap();
        let b = build("isort", 4_000, 1).unwrap();
        let c = build("isort", 4_000, 2).unwrap();
        assert_eq!(a.data, b.data);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn sibling_kernels_draw_different_data() {
        // Same (ops, seed) must not give two kernels identical bytes.
        let h = build("hash", 4_000, 5).unwrap();
        let s = build("isort", 4_000, 5).unwrap();
        assert_ne!(h.data[0].1, s.data[0].1);
    }

    #[test]
    fn bsearch_array_is_sorted() {
        let p = build("bsearch", 8_000, 3).unwrap();
        let bytes = &p.data[0].1;
        let n = bytes.len() / 4; // words in segment
        let words: Vec<u32> = (0..n)
            .map(|i| {
                u32::from_le_bytes([
                    bytes[4 * i],
                    bytes[4 * i + 1],
                    bytes[4 * i + 2],
                    bytes[4 * i + 3],
                ])
            })
            .collect();
        // The sorted array is the prefix; probes follow. Find the array
        // length from the sizing formula used by the kernel.
        let arr_n = (8_000_u64 / 20).clamp(64, 8192) as usize;
        assert!(words[..arr_n].windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rle_runs_never_exceed_a_byte() {
        let p = build("rle", 100_000, 9).unwrap();
        let src = &p.data[0].1;
        let mut run = 1usize;
        let mut max_run = 1usize;
        for w in src.windows(2) {
            if w[0] == w[1] {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(
            max_run < 256,
            "run of {max_run} would overflow the count byte"
        );
    }

    #[test]
    fn isqrt_is_floor_sqrt() {
        for v in [0u64, 1, 2, 3, 4, 15, 16, 17, 1000, 999_999] {
            let r = isqrt(v);
            assert!(r * r <= v && (r + 1) * (r + 1) > v, "isqrt({v}) = {r}");
        }
    }
}
