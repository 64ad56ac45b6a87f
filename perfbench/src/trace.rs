//! In-memory span recorder for the traced run.
//!
//! Spans are kept in memory while the run measures and written out at
//! the end: Chrome trace-event JSON (opens in Perfetto or
//! `chrome://tracing`) plus a plain per-layer table. A disabled tracer
//! records nothing and its calls cost one branch.

use crate::json::Json;
use crate::stats;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer/operation name, e.g. `tree.build`.
    pub name: String,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Overlapping intervals (service jobs) go on their own async track
    /// instead of the nested main-thread timeline.
    pub overlapping: bool,
}

/// Records spans for one run.
#[derive(Debug)]
pub struct Tracer {
    run_id: String,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    self_s: f64,
}

impl Tracer {
    /// A tracer for run `run_id`; `enabled == false` records nothing.
    pub fn new(run_id: &str, enabled: bool) -> Tracer {
        Tracer {
            run_id: run_id.to_string(),
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            self_s: 0.0,
        }
    }

    /// The run id stamped on every span.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let t = Instant::now();
        let id = self.spans.len();
        let start_us = self.us(t);
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            overlapping: false,
        });
        self.open.push(id);
        self.self_s += t.elapsed().as_secs_f64();
        id
    }

    /// Close span `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let t = Instant::now();
        let end_us = self.us(t);
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = end_us;
            if top == id {
                break;
            }
        }
        self.self_s += t.elapsed().as_secs_f64();
    }

    /// Record an interval timed elsewhere, under `parent` (or the
    /// innermost open span when `None`).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        overlapping: bool,
    ) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let t = Instant::now();
        let id = self.spans.len();
        let span = Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent: parent.or(self.open.last().copied()),
            overlapping,
        };
        self.spans.push(span);
        self.self_s += t.elapsed().as_secs_f64();
        id
    }

    /// Seconds spent inside the tracer's own bookkeeping.
    pub fn self_s(&self) -> f64 {
        self.self_s
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: nested spans as complete (`X`) events
    /// on the main track, overlapping ones as async (`b`/`e`) pairs.
    /// Every event carries its span id, parent id and the run id.
    pub fn chrome_json(&self) -> Json {
        let mut events = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            let args = Json::obj()
                .with("id", id)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("run_id", self.run_id.as_str());
            let base = Json::obj()
                .with("name", s.name.as_str())
                .with("cat", if s.overlapping { "job" } else { "layer" })
                .with("pid", 1u64)
                .with("tid", 1u64);
            if s.overlapping {
                events.push(
                    base.clone()
                        .with("ph", "b")
                        .with("id", id)
                        .with("ts", s.start_us)
                        .with("args", args),
                );
                events.push(base.with("ph", "e").with("id", id).with("ts", s.end_us));
            } else {
                events.push(
                    base.with("ph", "X")
                        .with("ts", s.start_us)
                        .with("dur", s.end_us - s.start_us)
                        .with("args", args),
                );
            }
        }
        Json::obj()
            .with("traceEvents", events)
            .with("displayTimeUnit", "ms")
            .with("otherData", Json::obj().with("run_id", self.run_id.as_str()))
    }

    /// Plain per-layer table, one row per span name in order of first
    /// appearance: count, total, mean and median seconds, and self
    /// seconds (total minus the time nested spans account for).
    pub fn layer_table(&self) -> String {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in self.spans.iter().filter(|s| !s.overlapping) {
            if let Some(p) = s.parent {
                child_s[p] += (s.end_us - s.start_us) * 1e-6;
            }
        }
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "run {}", self.run_id);
        let _ = writeln!(
            out,
            "{:<34} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "span", "count", "total_s", "mean_s", "median_s", "self_s"
        );
        for name in names {
            let (mut d, mut self_s) = (Vec::new(), 0.0);
            for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                let dur = (s.end_us - s.start_us) * 1e-6;
                d.push(dur);
                self_s += dur - child_s[id];
            }
            let total: f64 = d.iter().sum();
            let _ = writeln!(
                out,
                "{name:<34} {:>7} {total:>12.6} {:>12.6} {:>12.6} {self_s:>12.6}",
                d.len(),
                total / d.len() as f64,
                stats::median(&d)
            );
        }
        out
    }
}
