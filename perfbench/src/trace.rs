//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as a Chrome trace when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name over the spans that descend from
    /// span `root`, in milliseconds.
    pub fn totals_under(&self, root: usize) -> BTreeMap<&str, f64> {
        let mut totals = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate().skip(root + 1) {
            if self.descends_from(id, root) {
                *totals.entry(s.name.as_str()).or_insert(0.0) += s.ms();
            }
        }
        totals
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        while let Some(p) = self.spans[id].parent {
            if p == root {
                return true;
            }
            id = p;
        }
        false
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, with
    /// its own and its parent's index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_name() {
        let mut t = Tracer::default();
        t.span("pass", |t| {
            t.span("prog", |t| {
                t.span("layer", |_| ());
                t.span("layer", |_| ());
            });
        });
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(1));
        let totals = t.totals_under(0);
        assert_eq!(
            totals.keys().copied().collect::<Vec<_>>(),
            ["layer", "prog"]
        );
        assert!(t.chrome_json().contains("\"parent\":1"));
    }
}
