//! In-memory spans for the traced run. Each span carries a name, start,
//! end, parent and operation id; spans are written out as JSON lines
//! when the benchmark ends, and per-layer times are read back from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sat.solve`.
    pub name: &'static str,
    /// The operation (instance or request) the span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: usize) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length
    /// in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Runs `body` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: usize, body: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let value = body();
        self.exit(id);
        value
    }

    /// Records an already measured interval (a span timed on another
    /// thread) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, op: usize, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
        };
        self.spans.push(span);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0.0) += span.secs();
        }
        totals
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut tracer = Tracer::default();
        let outer = tracer.enter("outer", 0);
        tracer.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let start = Instant::now();
        tracer.record(
            "inner",
            0,
            start,
            start + std::time::Duration::from_millis(1),
        );
        tracer.exit(outer);
        let totals = tracer.totals();
        assert!(totals["inner"] >= 0.006);
        assert!(totals["outer"] >= 0.005);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[2].parent, Some(0));
        assert_eq!(tracer.to_json_lines().lines().count(), 3);
    }
}
