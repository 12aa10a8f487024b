//! Spans recorded around every call the benchmark makes into a P3Q layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end and the span that
//! was open when it began. Spans stay in memory and are written out when
//! the run ends. With tracing off, [`Tracer::timed`] still measures the
//! call (the end-to-end metrics need that) but records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::clock;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `sim.drive`.
    pub name: &'static str,
    /// Milliseconds since the tracer's origin.
    pub start_ms: f64,
    /// Milliseconds since the tracer's origin.
    pub end_ms: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// The layer prefix of the span's name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder that can be switched on and off between
/// repetitions.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer, recording iff `on`.
    pub fn new(on: bool) -> Self {
        Self {
            origin: clock::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off (only between top-level spans).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Milliseconds since the tracer's origin.
    pub fn now_ms(&self) -> f64 {
        clock::ms_since(self.origin)
    }

    /// Runs `f`, recording it as span `name` when tracing is on, and
    /// returns its result with its duration in milliseconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start_ms = self.now_ms();
        let id = self.on.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                start_ms,
                end_ms: start_ms,
                parent: self.open.last().copied(),
            });
            self.open.push(id);
            id
        });
        let out = f(self);
        let end_ms = self.now_ms();
        if let Some(id) = id {
            self.spans[id].end_ms = end_ms;
            self.open.pop();
        }
        (out, end_ms - start_ms)
    }

    /// [`timed`](Self::timed) without the duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.timed(name, f).0
    }

    /// Renames the most recently closed span called `from` (a call whose
    /// kind is only known after it returned, e.g. a cache hit or miss).
    pub fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            span.name = to;
        }
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Sum of the durations of the top-level spans that start inside
    /// `[from_ms, to_ms]`.
    pub fn top_level_ms(&self, from_ms: f64, to_ms: f64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ms >= from_ms && s.end_ms <= to_ms)
            .map(Span::ms)
            .sum()
    }

    /// Self time per layer: each span's duration minus the time its child
    /// spans cover, summed by layer prefix.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ms) {
            *by_layer.entry(span.layer()).or_insert(0.0) += span.ms() - child;
        }
        by_layer
    }

    /// The spans as JSON lines (`name`, `start_ms`, `end_ms`, `parent`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ms\": {}, \"end_ms\": {}, \"parent\": {parent}}}",
                span.name, span.start_ms, span.end_ms
            );
        }
        out
    }
}
