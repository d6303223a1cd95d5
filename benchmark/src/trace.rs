//! Spans recorded by the benchmark around its calls into the engine.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! request it belongs to.  Spans stay in memory while a run measures and
//! are written out once, when the run ends, so recording costs one
//! `Vec::push` per span.  A span's *self time* is its duration minus the
//! part of its interval that its children cover.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the interval measured (`sort`, `storage.write_run`, ...).
    pub name: &'static str,
    /// Start, relative to the trace's origin.
    pub start: Duration,
    /// End, relative to the trace's origin.
    pub end: Duration,
    /// The span this one was caused by.
    pub parent: Option<SpanId>,
    /// The request (or sort, or query) this span belongs to.
    pub request: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished interval; returns its id.  Instants earlier
    /// than the trace's origin are clamped to it.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start = start.saturating_duration_since(self.origin);
        let end = end.saturating_duration_since(self.origin).max(start);
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the union of its
    /// children's intervals, each clipped to the span.  Never exceeds the
    /// span's duration.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let span = &self.spans[id];
        let mut covered: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .filter(|(s, e)| s < e)
            .collect();
        covered.sort();
        let mut busy = Duration::ZERO;
        let mut reach = span.start;
        for (s, e) in covered {
            let s = s.max(reach);
            if e > s {
                busy += e - s;
                reach = e;
            }
        }
        span.duration() - busy
    }

    /// Write every span as one JSON object per line, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.request,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                self.self_time(id).as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let o = t.origin;
        let root = t.record("root", None, 0, at(o, 10), at(o, 110));
        // Two overlapping children cover 20..60; one sticks out past the end.
        t.record("a", Some(root), 0, at(o, 20), at(o, 50));
        t.record("b", Some(root), 0, at(o, 40), at(o, 60));
        t.record("c", Some(root), 0, at(o, 100), at(o, 130));
        // A grandchild does not count against the root.
        let a2 = t.record("d", Some(root), 0, at(o, 70), at(o, 80));
        t.record("e", Some(a2), 0, at(o, 70), at(o, 75));
        assert_eq!(t.self_time(root), Duration::from_millis(100 - 40 - 10 - 10));
        assert_eq!(t.self_time(a2), Duration::from_millis(5));
    }

    #[test]
    fn self_time_never_exceeds_the_span() {
        let mut t = Trace::new();
        let o = t.origin;
        let root = t.record("root", None, 0, at(o, 5), at(o, 9));
        t.record("child", Some(root), 0, at(o, 0), at(o, 20));
        assert_eq!(t.self_time(root), Duration::ZERO);
        let lone = t.record("lone", None, 1, at(o, 3), at(o, 4));
        assert_eq!(t.self_time(lone), t.spans()[lone].duration());
    }
}
