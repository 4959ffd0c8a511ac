//! Versioned binary codec for persisted simulation artifacts.
//!
//! The persistent store ([`bmp_core::store`]) moves opaque byte
//! payloads; this module defines what those bytes *are* for the one
//! artifact class worth persisting — [`SimResult`], the output of a
//! cycle-level simulation (~20 ms to recompute, dominated by everything
//! downstream of it). Analyses and traces are cheap to rebuild and stay
//! memory-only.
//!
//! The format is little-endian, length-prefixed and **strict**: decode
//! fails on a version mismatch, on truncation, and on trailing bytes.
//! Corruption *within* a record is the store's problem (FNV checksum);
//! the codec's failure mode is *skew* — a record written by an older
//! binary whose layout changed. A failed decode is treated exactly like
//! a store miss: the caller quarantines the record and recomputes, so a
//! version bump never serves garbage and never aborts a run.
//!
//! Layout (all integers LE):
//!
//! ```text
//! u32  codec version (CODEC_VERSION)
//! u64  cycles                u64 instructions
//! u64×2 branch stats         u64×2 ×3 + u64×4  hierarchy
//! u64  event count,    then per event:   u64 trace_idx, u64 cycle, u8 kind
//! u64  mispredict count, then per record: u64 branch_idx, u64×3 cycles, u32 occupancy
//! u8   timeline flag [+ u64 len + bytes]
//! u32  frontend_depth
//! u64×4 slots                u64×2 fetch
//! u64  rob_occupancy len + entries
//! (u64×2)×9 class_issue
//! ```

use bmp_branch::BranchStats;
use bmp_cache::{CacheStats, HierarchyStats};
use bmp_core::IntervalEventKind;
use bmp_sim::{
    ClassIssueStats, FetchAccounting, MispredictRecord, MissEvent, SimResult, SlotAccounting,
};
use std::fmt;

/// Version written by this build; readers reject every other value.
pub const CODEC_VERSION: u32 = 2;

/// Why a persisted artifact could not be decoded. Always means
/// "recompute", never "abort".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    message: String,
}

impl CodecError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact decode failed: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Little-endian byte sink.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

/// Strict little-endian byte source with bounds checking.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CodecError::new(format!("truncated at {what}")))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    fn usize(&mut self, what: &str) -> Result<usize, CodecError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| CodecError::new(format!("{what} count overflows usize")))
    }

    /// A length prefix that is about to size a `Vec` allocation: bound
    /// it by what the remaining bytes could possibly hold, so a
    /// corrupted-but-checksum-colliding length can't OOM the process.
    fn len_prefix(&mut self, elem_min_bytes: usize, what: &str) -> Result<usize, CodecError> {
        let n = self.usize(what)?;
        let remaining = self.bytes.len() - self.at;
        if n.saturating_mul(elem_min_bytes) > remaining {
            return Err(CodecError::new(format!(
                "{what} count {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.at != self.bytes.len() {
            return Err(CodecError::new(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

fn cache_stats(w: &mut Writer, s: &CacheStats) {
    w.u64(s.accesses());
    w.u64(s.misses());
}

fn read_cache_stats(r: &mut Reader<'_>, what: &str) -> Result<CacheStats, CodecError> {
    let accesses = r.u64(what)?;
    let misses = r.u64(what)?;
    Ok(CacheStats::from_raw(accesses, misses))
}

fn interval_kind_tag(k: IntervalEventKind) -> u8 {
    match k {
        IntervalEventKind::BranchMispredict => 0,
        IntervalEventKind::ICacheMiss => 1,
        IntervalEventKind::ICacheLongMiss => 2,
        IntervalEventKind::LongDCacheMiss => 3,
    }
}

fn interval_kind_from_tag(tag: u8) -> Result<IntervalEventKind, CodecError> {
    match tag {
        0 => Ok(IntervalEventKind::BranchMispredict),
        1 => Ok(IntervalEventKind::ICacheMiss),
        2 => Ok(IntervalEventKind::ICacheLongMiss),
        3 => Ok(IntervalEventKind::LongDCacheMiss),
        other => Err(CodecError::new(format!("unknown event kind {other}"))),
    }
}

/// Serializes a [`SimResult`] for the persistent store.
pub fn encode_sim_result(r: &SimResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(CODEC_VERSION);
    w.u64(r.cycles);
    w.u64(r.instructions);
    w.u64(r.branch_stats.predictions());
    w.u64(r.branch_stats.mispredictions());
    cache_stats(&mut w, &r.hierarchy.l1i);
    cache_stats(&mut w, &r.hierarchy.l1d);
    cache_stats(&mut w, &r.hierarchy.l2);
    w.u64(r.hierarchy.short_dmisses);
    w.u64(r.hierarchy.long_dmisses);
    w.u64(r.hierarchy.dprefetches);
    w.u64(r.hierarchy.iprefetches);
    w.usize(r.events.len());
    for e in &r.events {
        w.usize(e.trace_idx);
        w.u64(e.cycle);
        w.u8(interval_kind_tag(e.kind));
    }
    w.usize(r.mispredicts.len());
    for m in &r.mispredicts {
        w.usize(m.branch_idx);
        w.u64(m.fetch_cycle);
        w.u64(m.dispatch_cycle);
        w.u64(m.resolve_cycle);
        w.u32(m.window_occupancy);
    }
    match &r.dispatch_timeline {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            w.usize(t.len());
            w.buf.extend_from_slice(t);
        }
    }
    w.u32(r.frontend_depth);
    w.u64(r.slots.used);
    w.u64(r.slots.frontend_starved);
    w.u64(r.slots.rob_full);
    w.u64(r.slots.window_full);
    w.u64(r.fetch.redirect_wait);
    w.u64(r.fetch.stall);
    w.usize(r.rob_occupancy.len());
    for &c in &r.rob_occupancy {
        w.u64(c);
    }
    for s in &r.class_issue {
        w.u64(s.issued);
        w.u64(s.wait_cycles);
    }
    w.buf
}

/// Deserializes a [`SimResult`] written by [`encode_sim_result`].
///
/// # Errors
///
/// [`CodecError`] on version mismatch, truncation, unknown enum tags or
/// trailing bytes — all of which the caller treats as a cache miss.
pub fn decode_sim_result(bytes: &[u8]) -> Result<SimResult, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u32("version")?;
    if version != CODEC_VERSION {
        return Err(CodecError::new(format!(
            "codec version {version} (this build reads {CODEC_VERSION})"
        )));
    }
    let cycles = r.u64("cycles")?;
    let instructions = r.u64("instructions")?;
    let predictions = r.u64("branch stats")?;
    let mispredictions = r.u64("branch stats")?;
    let branch_stats = BranchStats::from_raw(predictions, mispredictions);
    let hierarchy = HierarchyStats {
        l1i: read_cache_stats(&mut r, "l1i stats")?,
        l1d: read_cache_stats(&mut r, "l1d stats")?,
        l2: read_cache_stats(&mut r, "l2 stats")?,
        short_dmisses: r.u64("hierarchy")?,
        long_dmisses: r.u64("hierarchy")?,
        dprefetches: r.u64("hierarchy")?,
        iprefetches: r.u64("hierarchy")?,
    };
    let n_events = r.len_prefix(17, "events")?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        events.push(MissEvent {
            trace_idx: r.usize("event")?,
            cycle: r.u64("event")?,
            kind: interval_kind_from_tag(r.u8("event")?)?,
        });
    }
    let n_misp = r.len_prefix(36, "mispredicts")?;
    let mut mispredicts = Vec::with_capacity(n_misp);
    for _ in 0..n_misp {
        mispredicts.push(MispredictRecord {
            branch_idx: r.usize("mispredict")?,
            fetch_cycle: r.u64("mispredict")?,
            dispatch_cycle: r.u64("mispredict")?,
            resolve_cycle: r.u64("mispredict")?,
            window_occupancy: r.u32("mispredict")?,
        });
    }
    let dispatch_timeline = match r.u8("timeline flag")? {
        0 => None,
        1 => {
            let n = r.len_prefix(1, "timeline")?;
            Some(r.take(n, "timeline")?.to_vec())
        }
        other => {
            return Err(CodecError::new(format!("bad timeline flag {other}")));
        }
    };
    let frontend_depth = r.u32("frontend depth")?;
    let slots = SlotAccounting {
        used: r.u64("slots")?,
        frontend_starved: r.u64("slots")?,
        rob_full: r.u64("slots")?,
        window_full: r.u64("slots")?,
    };
    let fetch = FetchAccounting {
        redirect_wait: r.u64("fetch")?,
        stall: r.u64("fetch")?,
    };
    let n_rob = r.len_prefix(8, "rob occupancy")?;
    let mut rob_occupancy = Vec::with_capacity(n_rob);
    for _ in 0..n_rob {
        rob_occupancy.push(r.u64("rob occupancy")?);
    }
    let mut class_issue = [ClassIssueStats::default(); 9];
    for s in &mut class_issue {
        s.issued = r.u64("class issue")?;
        s.wait_cycles = r.u64("class issue")?;
    }
    r.finish()?;
    Ok(SimResult {
        cycles,
        instructions,
        branch_stats,
        hierarchy,
        events,
        mispredicts,
        dispatch_timeline,
        frontend_depth,
        slots,
        fetch,
        rob_occupancy,
        class_issue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result exercising every field, including the optional ones.
    fn busy_result() -> SimResult {
        let mut branch_stats = BranchStats::new();
        branch_stats.record(true, false);
        branch_stats.record(true, true);
        let mut l1d = CacheStats::new();
        l1d.record(false);
        l1d.record(true);
        SimResult {
            cycles: 123_456,
            instructions: 200_000,
            branch_stats,
            hierarchy: HierarchyStats {
                l1i: CacheStats::from_raw(10, 2),
                l1d,
                l2: CacheStats::from_raw(5, 1),
                short_dmisses: 4,
                long_dmisses: 2,
                dprefetches: 7,
                iprefetches: 3,
            },
            events: vec![
                MissEvent {
                    trace_idx: 17,
                    cycle: 40,
                    kind: IntervalEventKind::BranchMispredict,
                },
                MissEvent {
                    trace_idx: 90,
                    cycle: 300,
                    kind: IntervalEventKind::LongDCacheMiss,
                },
            ],
            mispredicts: vec![MispredictRecord {
                branch_idx: 17,
                fetch_cycle: 30,
                dispatch_cycle: 35,
                resolve_cycle: 52,
                window_occupancy: 21,
            }],
            dispatch_timeline: Some(vec![0, 4, 4, 2, 0, 1]),
            frontend_depth: 5,
            slots: SlotAccounting {
                used: 1000,
                frontend_starved: 300,
                rob_full: 50,
                window_full: 10,
            },
            fetch: FetchAccounting {
                redirect_wait: 60,
                stall: 12,
            },
            rob_occupancy: vec![3, 1, 4, 1, 5],
            class_issue: {
                let mut c = [ClassIssueStats::default(); 9];
                c[0] = ClassIssueStats {
                    issued: 9,
                    wait_cycles: 27,
                };
                c[8] = ClassIssueStats {
                    issued: 1,
                    wait_cycles: 2,
                };
                c
            },
        }
    }

    /// The degenerate empty run.
    fn empty_result() -> SimResult {
        SimResult {
            cycles: 0,
            instructions: 0,
            branch_stats: BranchStats::default(),
            hierarchy: HierarchyStats::default(),
            events: vec![],
            mispredicts: vec![],
            dispatch_timeline: None,
            frontend_depth: 5,
            slots: SlotAccounting::default(),
            fetch: FetchAccounting::default(),
            rob_occupancy: vec![],
            class_issue: [ClassIssueStats::default(); 9],
        }
    }

    #[test]
    fn round_trips_every_field() {
        for r in [busy_result(), empty_result()] {
            let bytes = encode_sim_result(&r);
            let back = decode_sim_result(&bytes).unwrap();
            assert_eq!(back, r);
            // Deterministic: same result, same bytes.
            assert_eq!(encode_sim_result(&back), bytes);
        }
    }

    #[test]
    fn rejects_version_skew() {
        let mut bytes = encode_sim_result(&empty_result());
        bytes[0] = 99;
        let err = decode_sim_result(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode_sim_result(&busy_result());
        for cut in 0..bytes.len() {
            assert!(
                decode_sim_result(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix must not decode"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode_sim_result(&busy_result());
        bytes.push(0);
        let err = decode_sim_result(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_unknown_enum_tags() {
        let r = busy_result();
        let bytes = encode_sim_result(&r);
        // The fixed header is the u32 version plus 14 u64 counters
        // (cycles, instructions, 2 branch, 3×2 cache, 4 hierarchy);
        // the first event's kind tag sits after that block + the event
        // count + trace_idx + cycle.
        let kind_at = 4 + 8 * 14 + 8 + 8 + 8;
        let mut bad = bytes.clone();
        bad[kind_at] = 200;
        assert!(decode_sim_result(&bad).is_err());
    }

    #[test]
    fn hostile_length_prefix_cannot_oom() {
        // A record claiming u64::MAX events must fail fast on the
        // length sanity bound, not try to allocate.
        let mut bytes = encode_sim_result(&empty_result());
        let events_len_at = 4 + 8 * 14;
        bytes[events_len_at..events_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_sim_result(&bytes).is_err());
    }
}
