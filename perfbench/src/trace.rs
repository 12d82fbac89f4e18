//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer's public function, made from the
//! benchmark's own code: its name, start, end and the span that caused it.
//! Spans stay in memory while the benchmark runs and are written out once,
//! at exit.  With tracing off, [`Tracer::span`] only calls its closure.
//! The tracer also owns the benchmark's one clock, which times setups and
//! runs whether or not spans are recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded call.
pub struct Span {
    /// The layer call, e.g. `sim.run` or `graph.build`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// [`Tracer::now`] when the call began.
    pub start: f64,
    /// [`Tracer::now`] when the call returned.
    pub end: f64,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans while enabled.
pub struct Tracer {
    enabled: bool,
    // gossip-lint: allow(wall-clock): the origin of the benchmark's clock, read only by Tracer::now
    origin: std::time::Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`set_enabled`](Self::set_enabled).
    pub fn new() -> Self {
        // gossip-lint: allow(wall-clock): the benchmark measures wall time by design; the clock never reaches a simulation report
        let origin = std::time::Instant::now();
        Tracer {
            enabled: false,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Seconds on a monotonic clock since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0.0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Each span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Per span name: total seconds in spans of that name, divided by the
    /// number of root spans (spans without a parent) of the root kind they
    /// sit under.  With one root span per setup and one per timed run, this
    /// is the seconds a setup or a run spends in the layer.
    pub fn seconds_per_root(&self) -> BTreeMap<&'static str, f64> {
        let mut roots: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut totals: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
        for s in &self.spans {
            let mut root = s;
            while let Some(p) = root.parent {
                root = &self.spans[p];
            }
            if s.parent.is_none() {
                *roots.entry(s.name).or_default() += 1.0;
            }
            totals.entry(s.name).or_insert((0.0, root.name)).0 += s.duration();
        }
        totals
            .into_iter()
            .map(|(name, (total, root))| (name, total / roots[root]))
            .collect()
    }

    /// Per span name: total self time, divided as in
    /// [`seconds_per_root`](Self::seconds_per_root).
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *totals.entry(s.name).or_default() += t;
        }
        totals
    }

    /// The spans as a JSON document, with each span's derived self time.
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("{\"spans\": [\n");
        for (i, (s, t)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {t}}}{sep}",
                s.name, s.start, s.end
            );
        }
        out.push_str("]}\n");
        out
    }
}
