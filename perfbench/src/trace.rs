//! In-memory spans recorded around calls into the library's layers.
//!
//! A span has a name, a start and an end, the span that caused it and the
//! request it belongs to; `items` counts the units of work it covers, so a
//! span around a loop of calls yields a per-call time. Spans stay in memory
//! and are written out as JSON lines when the run ends. A disabled tracer
//! records nothing, which is how the end-to-end runs measure without it.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = u64;

/// The parent of a span that nothing else caused.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    /// Duration per unit of work, in nanoseconds.
    pub fn ns_per_item(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / self.items.max(1) as f64
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns [`ROOT`] (and
    /// records nothing) while tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
            items: 1,
        });
        id
    }

    /// Closes span `id`, which covered `items` units of work.
    pub fn end(&mut self, id: SpanId, items: u64) {
        if id == ROOT {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let span = &mut self.spans[(id - 1) as usize];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Records a span whose start and end were taken elsewhere (another
    /// thread, or a transport hook).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        (start, end): (Instant, Instant),
        items: u64,
    ) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as SpanId + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            items,
        });
        id
    }

    /// Runs `f` inside a span named `name` covering `items` units of work.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id, items);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-item durations (ns) of every span named `name`.
    pub fn ns_per_item(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns_per_item)
            .collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.items
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", ROOT, 1);
        t.end(id, 1);
        assert!(t.spans().is_empty());
    }
}
