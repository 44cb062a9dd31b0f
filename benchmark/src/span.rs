//! The driver's own span recorder.
//!
//! The traced pass wraps every public call the driver makes into the program in a span
//! `{name, start, end, parent, op}`; spans stay in memory and are written to `--out`
//! when the run ends.  Nothing in the program is edited: spans inside it are a later
//! change.  With tracing off every method is a branch on one bool.

use std::io::Write;
use std::time::Instant;

/// Identifies a recorded span; `NONE` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one operation (one tick, one query) share this identifier.
    pub op: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1_000.0
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    rows_pulled: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            rows_pulled: 0,
        }
    }

    /// Counts rows a traced cursor handed to the driver (the denominator of
    /// `core.cursor_ns_per_row`).
    pub fn pulled(&mut self, rows: usize) {
        if self.enabled {
            self.rows_pulled += rows as u64;
        }
    }

    pub fn rows_pulled(&self) -> u64 {
        self.rows_pulled
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        self.spans[id.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, microseconds, in recording order.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Sum of the durations of every span called `name`, seconds.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.micros_of(name).iter().sum::<f64>() / 1e6
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                "null".to_owned()
            } else {
                s.parent.0.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("core.step", SpanId::NONE, 1);
        t.end(id);
        assert_eq!(t.scope("bench.drain", id, 1, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_keep_their_parent_operation_and_duration() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.tick", SpanId::NONE, 9);
        let child = t.begin("core.step", root, 9);
        t.end(child);
        t.end(root);
        // Make the arithmetic exact regardless of how fast the calls ran.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 10_000;
        t.spans[1].start_ns = 2_000;
        t.spans[1].end_ns = 9_000;
        assert_eq!(t.micros_of("core.step"), vec![7.0]);
        assert!((t.seconds_of("bench.tick") - 1e-5).abs() < 1e-15);
        assert_eq!(t.spans()[1].parent, root);
        assert_eq!(t.spans()[1].op, 9);
    }
}
