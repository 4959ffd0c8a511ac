//! Superblock segmentation of compiled traces.
//!
//! The event-driven simulator's frontend examines every op: load its
//! flags, compare its cache line against the previous one, branch on
//! both. Almost all of those tests have statically known answers — a
//! trace is a fixed sequence, so *where the branches are* and *where a
//! new I-cache line begins* are pure functions of the trace and the line
//! size. [`SuperblockMap`] precomputes them once:
//!
//! * the trace is tiled into **regions**: maximal runs of non-branch ops
//!   that share one I-cache line, plus single-op regions for branches —
//!   the boundaries are exactly the places where per-op work (prediction,
//!   I-cache access, redirect) can happen;
//! * [`run_len`](SuperblockMap::run_len) gives, for every op, the number
//!   of plain same-line ops starting there, so a fetch stage can admit a
//!   whole run as one branch-free batched fill;
//! * [`is_line_start`](SuperblockMap::is_line_start) marks the ops whose
//!   examination triggers an I-cache line access (a *likely miss event*
//!   in interval-analysis terms).
//!
//! The map depends only on the trace and the L1I line size, so it is
//! cacheable per `(trace, line_bytes)` — one map serves every machine
//! configuration sharing a line size. [`SuperblockMap::regions`]
//! materializes the region list with per-region metadata (functional-unit
//! demand vector, maximum backward producer reach, intra-region critical
//! depth) for lints, profiling reports and property tests; the simulator
//! itself reads only the two dense arrays.
//!
//! Structural invariants (established by [`SuperblockMap::build`], the
//! only constructor, and proven by proptests in
//! `tests/trace_properties.rs`):
//!
//! 1. regions tile the trace exactly (concatenated, in order, no gaps);
//! 2. a branch op is always a single-op region;
//! 3. no region spans an I-cache line boundary;
//! 4. `run_len(i)` is 0 exactly on branches, and otherwise counts the
//!    remaining ops of `i`'s region.

use bmp_uarch::FU_KINDS;

use crate::compiled::{CompiledTrace, FLAG_BRANCH, NO_PRODUCER};

/// Why a region ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionEnd {
    /// The region is a single branch op.
    Branch,
    /// The next op begins a new I-cache line.
    LineBreak,
    /// The trace ran out.
    TraceEnd,
}

/// One superblock region: a tile of the trace (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// First op index.
    pub start: u32,
    /// Number of ops (>= 1).
    pub len: u32,
    /// Why the region ended.
    pub end: RegionEnd,
    /// Ops per functional-unit kind ([`bmp_uarch::FU_KINDS`] order).
    pub fu_demand: [u32; 5],
    /// Maximum backward producer reach: `max(i - producer(i))` over the
    /// region's ops, 0 when no op has a producer.
    pub max_reach: u32,
    /// Length in ops of the longest dependence chain internal to the
    /// region — a lower bound on the issue spread of the region when
    /// dispatched together (the "earliest-issue offset" of its last
    /// chain link).
    pub crit_depth: u32,
}

/// Aggregate region statistics, reported per workload by `bmp-profile`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperblockStats {
    /// Number of regions tiling the trace.
    pub regions: u64,
    /// Mean region length in ops (0 for an empty trace).
    pub mean_len: f64,
    /// Longest region in ops.
    pub max_len: u32,
    /// Ops that begin a new I-cache line.
    pub line_starts: u64,
}

/// Precomputed superblock segmentation of one [`CompiledTrace`] at one
/// L1I line size. See the module docs for the layout and invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperblockMap {
    line_bytes: u32,
    /// `run_len[i]`: number of consecutive non-branch ops starting at
    /// `i` that share op `i`'s I-cache line; 0 iff op `i` is a branch.
    run_len: Vec<u32>,
    /// One bit per op: set iff examining the op performs an I-cache
    /// line access (`i == 0` or its line differs from op `i - 1`'s).
    line_start: Vec<u64>,
}

impl SuperblockMap {
    /// Builds the map for `ct` at an L1I line size of `line_bytes`
    /// (a power of two, as enforced by cache-config validation).
    pub fn build(ct: &CompiledTrace, line_bytes: u32) -> Self {
        let n = ct.len();
        let mask = !u64::from(line_bytes - 1);
        let mut run_len = vec![0u32; n];
        let mut line_start = vec![0u64; (n >> 6) + 1];
        let mut prev_line = u64::MAX; // op 0 always starts a line
        for i in 0..n {
            let line = ct.pc(i) & mask;
            if line != prev_line {
                line_start[i >> 6] |= 1 << (i & 63);
            }
            prev_line = line;
        }
        // Backward pass: a run ends before a branch or a line start.
        for i in (0..n).rev() {
            if ct.flags(i) & FLAG_BRANCH != 0 {
                continue; // run_len stays 0
            }
            let next_breaks = i + 1 == n
                || ct.flags(i + 1) & FLAG_BRANCH != 0
                || line_start[(i + 1) >> 6] >> ((i + 1) & 63) & 1 == 1;
            run_len[i] = if next_breaks { 1 } else { run_len[i + 1] + 1 };
        }
        Self {
            line_bytes,
            run_len,
            line_start,
        }
    }

    /// The L1I line size the map was built for.
    #[inline]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// The heap bytes of the run-length and line-start arrays.
    pub fn heap_bytes(&self) -> u64 {
        crate::vec_bytes(&self.run_len) + crate::vec_bytes(&self.line_start)
    }

    /// Number of ops covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.run_len.len()
    }

    /// `true` when the map covers no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.run_len.is_empty()
    }

    /// Length of the branch-free same-line run starting at `i` (0 iff
    /// op `i` is a branch).
    #[inline]
    pub fn run_len(&self, i: usize) -> u32 {
        self.run_len[i]
    }

    /// `true` when examining op `i` performs an I-cache line access.
    #[inline]
    pub fn is_line_start(&self, i: usize) -> bool {
        self.line_start[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Materializes the region list with per-region metadata. `ct` must
    /// be the trace the map was built from.
    ///
    /// # Panics
    ///
    /// Panics if `ct` has a different length than the map.
    pub fn regions(&self, ct: &CompiledTrace) -> Vec<Region> {
        assert_eq!(ct.len(), self.len(), "map/trace length mismatch");
        let n = self.len();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < n {
            let run = self.run_len[i];
            let (len, end) = if run == 0 {
                (1u32, RegionEnd::Branch)
            } else if i + run as usize == n {
                (run, RegionEnd::TraceEnd)
            } else if ct.flags(i + run as usize) & FLAG_BRANCH != 0
                && !self.is_line_start(i + run as usize)
            {
                // The run stopped at a same-line branch: that branch is
                // its own region, so this one ended *because* of it —
                // still a Branch-adjacent tile, classified by what
                // follows.
                (run, RegionEnd::Branch)
            } else {
                (run, RegionEnd::LineBreak)
            };
            let mut fu_demand = [0u32; 5];
            let mut max_reach = 0u32;
            // Longest intra-region chain, computed with per-op depths
            // relative to the region (ops whose producers all precede
            // the region have depth 1).
            let mut depth = vec![1u32; len as usize];
            let mut crit = 0u32;
            for k in 0..len as usize {
                let idx = i + k;
                let mut d = depth[k];
                fu_demand[ct.class(idx).fu_kind().index()] += 1;
                for p in ct.producers(idx) {
                    if p == NO_PRODUCER {
                        continue;
                    }
                    let reach = (idx as u32) - p;
                    max_reach = max_reach.max(reach);
                    if p as usize >= i {
                        d = d.max(depth[(p as usize) - i] + 1);
                    }
                }
                depth[k] = d;
                crit = crit.max(d);
            }
            out.push(Region {
                start: i as u32,
                len,
                end,
                fu_demand,
                max_reach,
                crit_depth: crit,
            });
            i += len as usize;
        }
        out
    }

    /// Aggregate statistics over the region tiling (cheap scan; does not
    /// materialize the region list).
    pub fn stats(&self) -> SuperblockStats {
        let n = self.len();
        let mut regions = 0u64;
        let mut max_len = 0u32;
        let mut i = 0usize;
        while i < n {
            let len = self.run_len[i].max(1);
            regions += 1;
            max_len = max_len.max(len);
            i += len as usize;
        }
        let line_starts: u64 = self
            .line_start
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        SuperblockStats {
            regions,
            mean_len: if regions == 0 {
                0.0
            } else {
                n as f64 / regions as f64
            },
            max_len,
            line_starts,
        }
    }
}

// `Region::fu_demand` is indexed by `FuKind::index()`.
const _: () = assert!(FU_KINDS.len() == 5);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BranchKind, MicroOp};
    use crate::trace::Trace;
    use bmp_uarch::OpClass;

    fn trace_with_branch() -> Trace {
        // 64-byte lines; pcs 4 bytes apart. Ops 0..=2 plain on one line,
        // op 3 a branch, ops 4..=5 plain on the target's line.
        vec![
            MicroOp::alu(0x100, OpClass::IntAlu, [None, None]),
            MicroOp::alu(0x104, OpClass::IntAlu, [Some(1), None]),
            MicroOp::load(0x108, 0xbeef, [Some(1), None]),
            MicroOp::branch(0x10c, BranchKind::Conditional, true, 0x400, [Some(1), None]),
            MicroOp::alu(0x400, OpClass::IntMul, [None, None]),
            MicroOp::alu(0x404, OpClass::IntAlu, [Some(1), None]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn runs_and_line_starts() {
        let ct = trace_with_branch().compile();
        let sb = SuperblockMap::build(&ct, 64);
        assert_eq!(sb.len(), 6);
        assert!(sb.is_line_start(0));
        assert!(!sb.is_line_start(1));
        assert!(sb.is_line_start(4), "branch target starts a new line");
        assert_eq!(sb.run_len(0), 3);
        assert_eq!(sb.run_len(1), 2);
        assert_eq!(sb.run_len(2), 1);
        assert_eq!(sb.run_len(3), 0, "branches have zero run length");
        assert_eq!(sb.run_len(4), 2);
        assert_eq!(sb.run_len(5), 1);
    }

    #[test]
    fn regions_tile_the_trace() {
        let ct = trace_with_branch().compile();
        let sb = SuperblockMap::build(&ct, 64);
        let regions = sb.regions(&ct);
        assert_eq!(regions.len(), 3);
        let mut cursor = 0u32;
        for r in &regions {
            assert_eq!(r.start, cursor, "regions must tile exactly");
            assert!(r.len >= 1);
            cursor += r.len;
        }
        assert_eq!(cursor as usize, ct.len());
        assert_eq!(regions[0].end, RegionEnd::Branch, "run ends at the branch");
        assert_eq!(regions[1].end, RegionEnd::Branch, "the branch itself");
        assert_eq!(regions[2].end, RegionEnd::TraceEnd);
    }

    #[test]
    fn region_metadata_counts_fu_and_reach() {
        let ct = trace_with_branch().compile();
        let sb = SuperblockMap::build(&ct, 64);
        let regions = sb.regions(&ct);
        let r0 = &regions[0];
        // 2 ALU + 1 load.
        assert_eq!(r0.fu_demand.iter().sum::<u32>(), 3);
        assert_eq!(r0.max_reach, 1);
        // op0 -> op1 -> op2 is a 3-deep chain.
        assert_eq!(r0.crit_depth, 3);
        let r2 = &regions[2];
        assert_eq!(r2.max_reach, 1);
        assert_eq!(r2.crit_depth, 2);
    }

    #[test]
    fn line_size_sets_boundaries() {
        // With 8-byte lines every other op starts a line.
        let t: Trace = (0..8)
            .map(|i| MicroOp::alu(0x100 + 4 * i, OpClass::IntAlu, [None, None]))
            .collect();
        let ct = t.compile();
        let sb = SuperblockMap::build(&ct, 8);
        for i in 0..8 {
            assert_eq!(sb.is_line_start(i), i % 2 == 0, "op {i}");
            assert_eq!(sb.run_len(i), if i % 2 == 0 { 2 } else { 1 });
        }
        assert_eq!(sb.stats().regions, 4);
    }

    #[test]
    fn stats_match_regions() {
        let ct = trace_with_branch().compile();
        let sb = SuperblockMap::build(&ct, 64);
        let s = sb.stats();
        let regions = sb.regions(&ct);
        assert_eq!(s.regions as usize, regions.len());
        assert_eq!(s.max_len, regions.iter().map(|r| r.len).max().unwrap());
        let mean: f64 = ct.len() as f64 / regions.len() as f64;
        assert!((s.mean_len - mean).abs() < 1e-12);
        assert_eq!(s.line_starts, 2);
    }

    #[test]
    fn empty_trace() {
        let ct = Trace::new().compile();
        let sb = SuperblockMap::build(&ct, 64);
        assert!(sb.is_empty());
        assert_eq!(sb.stats().regions, 0);
        assert!(sb.regions(&ct).is_empty());
    }
}
