//! In-memory span recording around the layer calls a pass makes.
//!
//! A span has a name, a start and end in nanoseconds since the pass's
//! tracer was created, and the span that was open when it started. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Spans are kept in memory and written
//! out only when the run ends, so recording costs two clock reads and a
//! push per span; a disabled tracer costs one branch.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Parent span index within the same pass, if any.
    pub parent: Option<usize>,
    /// Layer name (`module.function`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans when enabled; runs the wrapped work untouched when not.
///
/// Recording state sits behind a mutex only because the suite records
/// from inside `Engine::run_all_tolerant`'s completion callback, which
/// must be `Sync`; every pass runs on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Option<Mutex<State>>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            state: enabled.then(Mutex::default),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `work` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else {
            return work();
        };
        let id = {
            let mut s = state.lock().expect("tracer lock poisoned");
            let id = s.spans.len();
            let parent = s.open.last().copied();
            let start_ns = self.now_ns();
            s.spans.push(Span {
                parent,
                name,
                start_ns,
                end_ns: start_ns,
            });
            s.open.push(id);
            id
        };
        let out = work();
        let end_ns = self.now_ns();
        let mut s = state.lock().expect("tracer lock poisoned");
        s.spans[id].end_ns = end_ns;
        s.open.pop();
        out
    }

    /// Every span recorded so far (empty when disabled).
    pub fn spans(&self) -> Vec<Span> {
        self.state.as_ref().map_or_else(Vec::new, |s| {
            s.lock().expect("tracer lock poisoned").spans.clone()
        })
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sum of the self times, in seconds, of the spans named `name`.
pub fn self_seconds(spans: &[Span], self_ns: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns)
        .sum::<u64>() as f64
        * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span(None, 0, 100),    // 0: root
            span(Some(0), 10, 40), // 1: child of root
            span(Some(1), 15, 25), // 2: grandchild
            span(Some(0), 50, 70), // 3: child of root
            span(Some(3), 50, 70), // 4: fills its parent exactly
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 0, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 120), // overlaps its sibling and the root's end
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let t = Tracer::new(true);
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
