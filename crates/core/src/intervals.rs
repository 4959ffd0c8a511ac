//! Segmentation of the instruction stream into inter-miss intervals.

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// The miss-event kinds of interval analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntervalEventKind {
    /// Mispredicted branch (conditional direction or return target).
    BranchMispredict,
    /// L1 I-cache miss served by the L2.
    ICacheMiss,
    /// Instruction fetch that went to memory.
    ICacheLongMiss,
    /// Load served by memory.
    LongDCacheMiss,
}

impl IntervalEventKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            IntervalEventKind::BranchMispredict => "bmiss",
            IntervalEventKind::ICacheMiss => "il1",
            IntervalEventKind::ICacheLongMiss => "il2",
            IntervalEventKind::LongDCacheMiss => "dlong",
        }
    }
}

/// One miss event, positioned in the instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalEvent {
    /// Dynamic-instruction index the event is attached to.
    pub pos: usize,
    /// What happened there.
    pub kind: IntervalEventKind,
}

/// One inter-miss interval: the instructions from just after the previous
/// miss event up to and including the instruction carrying this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interval {
    /// First instruction of the interval.
    pub start: usize,
    /// The instruction carrying the terminating event (inclusive).
    pub end: usize,
    /// Kind of the terminating event, or `None` for the final partial
    /// interval that runs to the end of the trace.
    pub kind: Option<IntervalEventKind>,
}

impl Interval {
    /// Number of instructions in the interval (including the event
    /// instruction). Never zero — an interval always contains at least
    /// its event instruction, so there is deliberately no `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }
}

/// Splits the measured instructions `range` of a trace into intervals at
/// `events` — the one segmentation the model, the closed form, the CPI
/// stack and the simulator's interval records share.
///
/// `range` starts at the first measured instruction: 0 for the model,
/// the warm-up boundary for a simulation. `events` must be sorted by
/// position (as produced by [`FunctionalOutcome`](crate::FunctionalOutcome)
/// or by sorting a simulator event log). Events at one position make one
/// interval boundary: a misprediction wins over a coincident cache miss,
/// otherwise the first event wins. A final partial interval (with
/// `kind: None`) covers any tail after the last event.
///
/// # Panics
///
/// Panics if `events` is not sorted or an event position is outside
/// `range`.
///
/// # Examples
///
/// ```
/// use bmp_core::{segment, IntervalEvent, IntervalEventKind};
///
/// let events = [
///     IntervalEvent { pos: 9, kind: IntervalEventKind::ICacheMiss },
///     IntervalEvent { pos: 9, kind: IntervalEventKind::BranchMispredict },
///     IntervalEvent { pos: 29, kind: IntervalEventKind::LongDCacheMiss },
/// ];
/// let ivs = segment(0..40, &events);
/// assert_eq!(ivs.len(), 3);
/// assert_eq!(ivs[0].len(), 10);
/// assert_eq!(ivs[0].kind, Some(IntervalEventKind::BranchMispredict));
/// assert_eq!(ivs[1].len(), 20);
/// assert_eq!(ivs[2].kind, None);
/// ```
pub fn segment(range: Range<usize>, events: &[IntervalEvent]) -> Vec<Interval> {
    let mut intervals: Vec<Interval> = Vec::with_capacity(events.len() + 1);
    let mut start = range.start;
    for e in events {
        assert!(
            range.contains(&e.pos),
            "event position {} out of range",
            e.pos
        );
        if let Some(last) = intervals.last_mut().filter(|iv| iv.end == e.pos) {
            // Another event at the same instruction: one boundary.
            if e.kind == IntervalEventKind::BranchMispredict {
                last.kind = Some(e.kind);
            }
            continue;
        }
        assert!(e.pos >= start, "events must be sorted by position");
        intervals.push(Interval {
            start,
            end: e.pos,
            kind: Some(e.kind),
        });
        start = e.pos + 1;
    }
    if start < range.end {
        intervals.push(Interval {
            start,
            end: range.end - 1,
            kind: None,
        });
    }
    intervals
}

/// Bucket boundaries of every interval-length (and resolution)
/// histogram in the workspace; read them through [`bucket_index`] and
/// [`bucket_label`].
pub const LENGTH_BUCKETS: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Number of buckets: one per [`LENGTH_BUCKETS`] boundary, the last
/// being the overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = LENGTH_BUCKETS.len();

/// The bucket `value` falls in. Bucket `i < 9` holds
/// `[LENGTH_BUCKETS[i], LENGTH_BUCKETS[i + 1])`, and values at or past
/// the last boundary land in the overflow bucket
/// `HISTOGRAM_BUCKETS − 1 = 9`. Zero shares bucket 0 with 1.
///
/// # Examples
///
/// ```
/// use bmp_core::intervals::{bucket_index, bucket_label, HISTOGRAM_BUCKETS};
///
/// assert_eq!(bucket_index(3), 1);
/// assert_eq!(bucket_label(bucket_index(3)), "2");
/// assert_eq!(bucket_index(600), HISTOGRAM_BUCKETS - 1);
/// assert_eq!(bucket_label(9), "512+");
/// ```
pub fn bucket_index(value: u64) -> usize {
    LENGTH_BUCKETS
        .iter()
        .position(|&b| value < b as u64)
        .map_or(HISTOGRAM_BUCKETS - 1, |p| p.saturating_sub(1))
}

/// The label of bucket `i`: its lower bound, with a `+` on the overflow
/// bucket.
///
/// # Panics
///
/// Panics if `i >= HISTOGRAM_BUCKETS`.
pub fn bucket_label(i: usize) -> String {
    let lo = LENGTH_BUCKETS[i];
    if i + 1 == HISTOGRAM_BUCKETS {
        format!("{lo}+")
    } else {
        lo.to_string()
    }
}

/// The mean of the values per bucket of their lengths, over
/// `(length, value)` pairs: `(bucket, mean, count)` per non-empty
/// bucket, in increasing length order.
pub fn bucket_means(pairs: impl IntoIterator<Item = (u64, u64)>) -> Vec<(usize, f64, u64)> {
    let mut sums = [0u64; HISTOGRAM_BUCKETS];
    let mut counts = [0u64; HISTOGRAM_BUCKETS];
    for (len, value) in pairs {
        let bucket = bucket_index(len);
        sums[bucket] += value;
        counts[bucket] += 1;
    }
    (0..HISTOGRAM_BUCKETS)
        .filter(|&i| counts[i] > 0)
        .map(|i| (i, sums[i] as f64 / counts[i] as f64, counts[i]))
        .collect()
}

/// Histogram of interval lengths over the [`bucket_index`] buckets, used
/// by the burstiness characterization (E-F4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalLengthHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl IntervalLengthHistogram {
    /// Builds the histogram from a set of intervals (the final partial
    /// interval, if present, is excluded — it has no terminating event).
    pub fn from_intervals(intervals: &[Interval]) -> Self {
        let mut counts = vec![0u64; HISTOGRAM_BUCKETS];
        let mut total = 0;
        for iv in intervals.iter().filter(|iv| iv.kind.is_some()) {
            counts[bucket_index(iv.len() as u64)] += 1;
            total += 1;
        }
        Self { counts, total }
    }

    /// Count in bucket `i` (see [`bucket_index`]).
    pub fn count(&self, bucket: usize) -> u64 {
        self.counts[bucket]
    }

    /// Number of buckets ([`HISTOGRAM_BUCKETS`]).
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total intervals recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of intervals in bucket `i`.
    pub fn fraction(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[bucket] as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pos: usize, kind: IntervalEventKind) -> IntervalEvent {
        IntervalEvent { pos, kind }
    }

    #[test]
    fn segments_with_tail() {
        let events = [
            ev(4, IntervalEventKind::BranchMispredict),
            ev(5, IntervalEventKind::BranchMispredict),
            ev(19, IntervalEventKind::ICacheMiss),
        ];
        let ivs = segment(0..30, &events);
        assert_eq!(ivs.len(), 4);
        assert_eq!((ivs[0].start, ivs[0].end, ivs[0].len()), (0, 4, 5));
        assert_eq!(ivs[1].len(), 1, "back-to-back events give a 1-interval");
        assert_eq!(ivs[2].len(), 14);
        assert_eq!(ivs[3].kind, None);
        assert_eq!(ivs[3].end, 29);
    }

    #[test]
    fn no_events_gives_one_partial_interval() {
        let ivs = segment(0..10, &[]);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].kind, None);
        assert_eq!(ivs[0].len(), 10);
    }

    #[test]
    fn event_on_last_instruction_leaves_no_tail() {
        let ivs = segment(0..10, &[ev(9, IntervalEventKind::LongDCacheMiss)]);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].kind, Some(IntervalEventKind::LongDCacheMiss));
    }

    #[test]
    fn coincident_events_collapse() {
        use IntervalEventKind::*;
        // A misprediction wins over a cache miss logged before it at
        // the same instruction; otherwise the first event wins.
        let ivs = segment(
            0..10,
            &[
                ev(3, ICacheMiss),
                ev(3, BranchMispredict),
                ev(3, LongDCacheMiss),
                ev(6, ICacheLongMiss),
                ev(6, LongDCacheMiss),
            ],
        );
        assert_eq!(ivs.len(), 3);
        assert_eq!((ivs[0].end, ivs[0].kind), (3, Some(BranchMispredict)));
        assert_eq!((ivs[1].start, ivs[1].end), (4, 6));
        assert_eq!(ivs[1].kind, Some(ICacheLongMiss));
    }

    #[test]
    fn measured_range_starts_at_the_warmup_boundary() {
        let ivs = segment(50..70, &[ev(60, IntervalEventKind::BranchMispredict)]);
        assert_eq!(ivs.len(), 2);
        assert_eq!((ivs[0].start, ivs[0].end, ivs[0].len()), (50, 60, 11));
        assert_eq!((ivs[1].start, ivs[1].end, ivs[1].kind), (61, 69, None));
        let total: usize = ivs.iter().map(|iv| iv.len()).sum();
        assert_eq!(total, 20, "the intervals partition the measured range");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn event_before_the_measured_range_panics() {
        let _ = segment(50..70, &[ev(49, IntervalEventKind::ICacheMiss)]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_events_panic() {
        let _ = segment(
            0..10,
            &[
                ev(5, IntervalEventKind::ICacheMiss),
                ev(3, IntervalEventKind::ICacheMiss),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_event_panics() {
        let _ = segment(0..5, &[ev(5, IntervalEventKind::ICacheMiss)]);
    }

    #[test]
    fn lengths_partition_the_trace() {
        let events = [
            ev(10, IntervalEventKind::BranchMispredict),
            ev(11, IntervalEventKind::BranchMispredict),
            ev(99, IntervalEventKind::LongDCacheMiss),
        ];
        let n = 250;
        let ivs = segment(0..n, &events);
        let total: usize = ivs.iter().map(|iv| iv.len()).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn histogram_buckets() {
        let ivs = [
            Interval {
                start: 0,
                end: 0,
                kind: Some(IntervalEventKind::BranchMispredict),
            }, // len 1
            Interval {
                start: 1,
                end: 3,
                kind: Some(IntervalEventKind::BranchMispredict),
            }, // len 3
            Interval {
                start: 4,
                end: 600,
                kind: Some(IntervalEventKind::BranchMispredict),
            }, // len 597
            Interval {
                start: 601,
                end: 700,
                kind: None,
            }, // excluded
        ];
        let h = IntervalLengthHistogram::from_intervals(&ivs);
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(0), 1, "len 1 in bucket [1,2)");
        assert_eq!(h.count(1), 1, "len 3 in bucket [2,4)");
        assert_eq!(h.count(HISTOGRAM_BUCKETS - 1), 1, "len 597 in overflow");
        assert!((h.fraction(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_edges() {
        // len exactly at boundary 8 belongs to bucket [8,16) = index 3.
        let ivs = [Interval {
            start: 0,
            end: 7,
            kind: Some(IntervalEventKind::ICacheMiss),
        }];
        let h = IntervalLengthHistogram::from_intervals(&ivs);
        assert_eq!(h.count(3), 1);
    }
}
