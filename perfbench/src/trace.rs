//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and end (offsets from the tracer's epoch),
//! the span that caused it, and the bytes allocated between its
//! boundaries (read from the allocation ledger). Spans stay in memory and
//! are written out as JSON lines when the run ends. A span's *self* time
//! is its duration minus the durations of its direct children; its self
//! allocation is defined the same way.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::alloc;

/// One recorded span.
struct Span {
    /// Layer name, e.g. `core.solve`.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Offset of the start from the tracer's epoch.
    start: Duration,
    /// Offset of the end from the tracer's epoch.
    end: Duration,
    /// Bytes allocated while the span was open (children included).
    alloc: usize,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Self time and self allocation of every span name under one root.
#[derive(Clone, Debug, Default)]
pub struct SelfTotals {
    /// Name → (self time, self bytes allocated), summed over the spans
    /// with that name.
    pub by_name: BTreeMap<&'static str, (Duration, usize)>,
}

impl SelfTotals {
    /// Self time of `name` in milliseconds (0 when no span had the name).
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(d, _)| d.as_secs_f64() * 1e3)
    }

    /// Self allocation of `name` in MiB.
    pub fn alloc_mib(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(_, b)| *b as f64 / crate::MIB)
    }
}

/// An in-memory span recorder for one benchmark process.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans: (index, allocation counter at entry).
    open: Vec<(usize, usize)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span and returns its
    /// index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(i, _)| i),
            start,
            end: start,
            alloc: 0,
        });
        self.open.push((idx, alloc::allocated()));
        idx
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let (idx, alloc_at_entry) = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[idx];
        span.alloc = alloc::allocated() - alloc_at_entry;
        span.end = self.epoch.elapsed();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Wall time of the span at `root`.
    pub fn duration(&self, root: usize) -> Duration {
        self.spans[root].duration()
    }

    /// Self totals of `root` and every span below it. Spans are stored in
    /// entry order, so a root's descendants follow it contiguously.
    pub fn self_totals(&self, root: usize) -> SelfTotals {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        let mut child_alloc = vec![0usize; self.spans.len()];
        let end = self.spans[root + 1..]
            .iter()
            .position(|s| !self.descends_from(s, root))
            .map_or(self.spans.len(), |p| root + 1 + p);
        for s in &self.spans[root + 1..end] {
            let p = s.parent.expect("a descendant has a parent");
            child_time[p] += s.duration();
            child_alloc[p] += s.alloc;
        }
        let mut totals = SelfTotals::default();
        for (i, s) in self.spans[root..end].iter().enumerate() {
            let i = root + i;
            let entry = totals.by_name.entry(s.name).or_insert((Duration::ZERO, 0));
            entry.0 += s.duration().saturating_sub(child_time[i]);
            entry.1 += s.alloc.saturating_sub(child_alloc[i]);
        }
        totals
    }

    fn descends_from(&self, s: &Span, root: usize) -> bool {
        let mut p = s.parent;
        while let Some(i) = p {
            if i == root {
                return true;
            }
            p = self.spans[i].parent;
        }
        false
    }

    /// The spans as JSON lines: `{"id", "name", "parent", "start_us",
    /// "end_us", "alloc_bytes"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}, \"alloc_bytes\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.alloc
            )
            .expect("write to string");
        }
        out
    }
}
