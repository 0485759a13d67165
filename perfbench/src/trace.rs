//! The traced run's span recorder.
//!
//! Spans are taken from outside the program, around calls into the
//! public functions of each layer, and kept in memory until the run ends.
//! Every span carries the operation it belongs to (a batch, a query
//! sample, a mine) and, where one exists, the span that caused it, so a
//! layer's self time is its span minus the spans recorded under it.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `stream.push` or `lattice.insert`.
    pub name: &'static str,
    /// The operation the span belongs to; spans of one batch share it.
    pub op: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The recorded spans; the work counts taken at the same boundaries are
/// kept by the run beside them.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Summed duration, in microseconds, of every span named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed duration of the spans directly under `parent`.
    pub fn children_us(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::micros)
            .sum()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}
