//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, a parent and a request id; spans
//! are recorded around calls into each layer from the benchmark's own code,
//! kept in memory, and written out when the run ends. A layer's self time
//! is its span's duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub name: String,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    /// A disabled tracer records nothing (the untraced half of a pair).
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// `(request, name, value)` counts taken at the same boundaries.
    counters: Vec<(u64, String, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now.
    pub fn begin(&mut self, name: &str, request: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span now.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span whose bounds were taken elsewhere.
    pub fn interval(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn count(&mut self, request: u64, name: &str, value: f64) {
        self.counters.push((request, name.to_string(), value));
    }

    pub fn duration_ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Self time of every span, in ms: duration minus the union of its
    /// children's intervals (clipped to the parent).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e6
            })
            .collect()
    }

    /// Per request, the summed self time of each span name.
    pub fn layer_self_ms(&self) -> BTreeMap<u64, BTreeMap<String, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_ms()) {
            *out.entry(s.request)
                .or_default()
                .entry(s.name.clone())
                .or_default() += t;
        }
        out
    }

    /// Median over requests of one layer's self time (requests that never
    /// entered the layer are skipped).
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .layer_self_ms()
            .values()
            .filter_map(|layers| layers.get(name).copied())
            .collect();
        crate::median(&v)
    }

    /// Values of one counter across requests.
    pub fn counter_values(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|(_, n, _)| n == name)
            .map(|&(_, _, v)| v)
            .collect()
    }

    /// Reconcile every root span: the layers below it must cover its wall
    /// time up to `tol` (a share) or `floor_ms`, whichever is larger.
    /// Returns the largest uncovered share seen and the number of requests
    /// outside the tolerance.
    pub fn reconcile(&self, tol: f64, floor_ms: f64) -> (f64, usize) {
        let self_ms = self.self_ms();
        let mut worst = 0.0f64;
        let mut outside = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() {
                continue;
            }
            let wall = self.duration_ms(i);
            let gap = self_ms[i];
            if wall > 0.0 {
                worst = worst.max(gap / wall);
            }
            if gap > (tol * wall).max(floor_ms) {
                outside += 1;
            }
        }
        (worst, outside)
    }

    /// Write spans and counters as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        for (request, name, value) in &self.counters {
            writeln!(
                w,
                "{{\"counter\": \"{name}\", \"request\": {request}, \"value\": {value}}}"
            )?;
        }
        w.flush()
    }
}
