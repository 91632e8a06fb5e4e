//! The driver's own in-memory span recorder for the traced run.
//!
//! A span is recorded around each call into a layer's public functions:
//! name, layer, start, end, the span that caused it, the repetition it
//! belongs to, and the counts read back from the layer afterwards.
//! Spans stay in memory and are written once, when the run ends, as
//! Chrome trace-event JSON.

use std::time::Instant;

use serde_json::Value;

pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Repetition id stamped on new spans.
    pub rep: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
            counts: Vec::new(),
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        let id = *self.open.last().expect("count outside any span");
        self.spans[id].counts.push((key, value));
    }

    /// Total duration of every span with this name, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        self.spans[id].seconds() - children
    }

    /// The index of the first span with this name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Share of a root span's wall time that the self times of the spans
    /// below it account for.
    pub fn coverage(&self, root: usize) -> f64 {
        1.0 - self.self_s(root) / self.spans[root].seconds()
    }

    /// True when `id` is `root` or below it.
    fn is_under(&self, id: usize, root: usize) -> bool {
        let mut at = Some(id);
        while let Some(i) = at {
            if i == root {
                return true;
            }
            at = self.spans[i].parent;
        }
        false
    }

    /// Self time per layer of the spans at and below `root`, largest
    /// first.
    pub fn self_by_layer(&self, root: usize) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            if !self.is_under(id, root) {
                continue;
            }
            let t = self.self_s(id);
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some(slot) => slot.1 += t,
                None => out.push((s.layer, t)),
            }
        }
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite times"));
        out
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// `ui.perfetto.dev`): one complete (`X`) event per span, one track
    /// per layer.
    pub fn chrome_trace(&self) -> Value {
        let mut layers: Vec<&'static str> = Vec::new();
        let mut events = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let tid = match layers.iter().position(|l| *l == s.layer) {
                Some(i) => i,
                None => {
                    layers.push(s.layer);
                    layers.len() - 1
                }
            };
            let mut args = vec![("rep".to_string(), Value::Num(s.rep as f64))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::Str(self.spans[p].name.clone())));
            }
            args.extend(
                s.counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v))),
            );
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("cat".into(), Value::Str(s.layer.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Value::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(tid as f64 + 1.0)),
                ("args".into(), Value::Object(args)),
            ]));
        }
        for (i, layer) in layers.iter().enumerate() {
            events.push(Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(i as f64 + 1.0)),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str((*layer).into()))]),
                ),
            ]));
        }
        Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
    }
}
