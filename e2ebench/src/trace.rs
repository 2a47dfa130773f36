//! In-memory span recorder. Spans are recorded around calls made from
//! the benchmark's own code (client I/O and in-process replays of layer
//! functions), kept in memory during the run and written out once at the
//! end. Nothing here reaches inside the program.

use crate::stats::{self, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `protocol.parse`.
    pub name: &'static str,
    /// Parent span id (its index in the recorder), if any.
    pub parent: Option<u32>,
    /// Request id shared by every span of one request or item.
    pub req: u64,
    /// Start, ns after the recorder's epoch.
    pub start_ns: u64,
    /// End, ns after the recorder's epoch.
    pub end_ns: u64,
}

/// Collects spans; a disabled recorder drops them.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, parent, req, t0, Instant::now());
        out
    }

    /// Opens a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64) -> Option<u32> {
        let now = Instant::now();
        self.record(name, None, req, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<u32>) {
        let end = self.ns(Instant::now());
        if let Some(s) = id.and_then(|i| self.spans.get_mut(i as usize)) {
            s.end_ns = end;
        }
    }

    /// Median self time of the spans of each name, in µs: a span's
    /// duration minus the part of it its child spans cover.
    pub fn median_self_us(&self) -> BTreeMap<&'static str, f64> {
        let intervals: Vec<Interval> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| Interval {
                id: i as u32,
                parent: s.parent,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            })
            .collect();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(stats::self_times(&intervals)) {
            by_name.entry(s.name).or_default().push(t as f64);
        }
        by_name
            .into_iter()
            .map(|(name, v)| (name, stats::median(&v).unwrap_or(0.0) / 1e3))
            .collect()
    }

    /// Durations (ns) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"schema\":\"e2ebench-trace-v1\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
