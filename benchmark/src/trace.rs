//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the per-layer arithmetic on them.
//!
//! A span is `{name, parent, window, start_ns, end_ns}`; its name is
//! `layer.call` and the layer is the module that does the work. Spans
//! are kept in memory and written once, when the run ends. A layer's
//! *self time* is its spans' duration minus the part their child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The window the work belongs to.
    pub window: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls this span stands for: 1, or the number of per-report or
    /// per-probe calls whose durations it sums (see
    /// [`Tracer::sum_child`]).
    pub calls: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }

    /// `layer` of a `layer.call` name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Name of the root span of one window's work.
pub const WINDOW: &str = "window";
/// Layer of the twin work a traced run does on the side (same inputs,
/// separate state) to split `Diagnoser::diagnose` into its stages. It is
/// tracing overhead, not window work: window arithmetic leaves out every
/// span of this layer and everything below it.
pub const TWIN: &str = "twin";

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, window: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            window,
            start_ns: now,
            end_ns: now,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) -> &Span {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        &self.spans[id]
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in milliseconds.
    pub fn time<R>(&mut self, name: &'static str, window: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name, window);
        let r = f();
        let ms = self.exit(id).ms();
        (r, ms)
    }

    /// Records `calls` calls that ran inside span `parent` and took `ns`
    /// nanoseconds together — per-probe and per-report calls are summed
    /// per window instead of recorded one by one (54 000 probe spans a
    /// window would be the trace). The child span has the summed length
    /// and sits at the parent's start.
    pub fn sum_child(&mut self, parent: usize, name: &'static str, ns: u64, calls: u64) {
        let p = &self.spans[parent];
        let (window, start_ns) = (p.window, p.start_ns);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            window,
            start_ns,
            end_ns: start_ns + ns,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Sum of the durations (ms) of the spans called `name`, per window.
    pub fn per_window(&self, name: &str) -> Vec<f64> {
        let mut by_window: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_window.entry(s.window).or_default() += s.ms();
        }
        by_window.into_values().collect()
    }

    /// Self time (ms) per layer over every span that descends from a
    /// [`WINDOW`] root, with the roots' own self time under `"window"`,
    /// and the roots' total duration. [`TWIN`] spans and their
    /// descendants are left out of both.
    pub fn window_shares(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        // Under a window root and not twin work.
        let counted = |mut i: usize| loop {
            let s = &self.spans[i];
            if s.layer() == TWIN {
                return false;
            }
            match s.parent {
                Some(p) => i = p,
                None => return s.name == WINDOW,
            }
        };
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if counted(i) {
                *layers.entry(s.layer()).or_default() += (s.ms() - child_ms[i]).max(0.0);
                if s.parent.is_none() {
                    total += s.ms();
                }
            } else if s.layer() == TWIN && s.parent.is_some_and(counted) {
                total -= s.ms();
            }
        }
        (layers, total)
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"window\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name, s.window, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name,
            parent,
            window: 0,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = fixed(vec![
            span(WINDOW, None, 0, 130),
            span("pinger.run_window", Some(0), 0, 70),
            span("dataplane.probe_tagged", Some(1), 0, 50),
            span("diagnoser.diagnose", Some(0), 70, 90),
            // Twin work is tracing overhead: neither its time nor its
            // children count, and the window is that much shorter.
            span(TWIN, Some(0), 90, 120),
            span("pll.localize", Some(4), 90, 120),
        ]);
        let (layers, total) = t.window_shares();
        assert_eq!(total, 100.0);
        assert_eq!(layers["pinger"], 20.0);
        assert_eq!(layers["dataplane"], 50.0);
        assert_eq!(layers["diagnoser"], 20.0);
        assert_eq!(layers[WINDOW], 10.0);
        assert!(!layers.contains_key("pll") && !layers.contains_key(TWIN));
    }

    #[test]
    fn spans_nest_under_the_innermost_open_one() {
        let mut t = Tracer::new();
        let root = t.enter(WINDOW, 3);
        let (value, ms) = t.time("frame.encode", 3, || 7);
        assert_eq!(value, 7);
        assert!(ms >= 0.0);
        t.sum_child(root, "dataplane.probe_tagged", 5_000, 12);
        t.exit(root);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[2].parent, Some(root));
        assert_eq!(t.spans()[2].end_ns - t.spans()[2].start_ns, 5_000);
        assert_eq!(t.spans()[2].calls, 12);
        assert_eq!(t.durations("frame.encode").len(), 1);
        assert_eq!(t.per_window("frame.encode").len(), 1);
    }
}
