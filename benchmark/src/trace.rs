//! Spans recorded from the benchmark's side of each layer boundary: one
//! per public call the benchmark makes, kept in memory and written out as
//! Chrome `traceEvents` JSON when the run ends.

use serde_json::Value;
use std::time::Instant;

struct Span {
    name: String,
    op: u64,
    tid: u32,
    parent: Option<usize>,
    start_us: f64,
    end_us: Option<f64>,
}

/// The spans of one thread (or, after [`Tracer::absorb`], of a run).
/// Tracers of one run share the epoch, so their spans line up.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run.
    pub fn sibling(&self, tid: u32) -> Tracer {
        Tracer::new(self.epoch, tid)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span named after the layer call it wraps; spans opened
    /// before it ends become its children.
    pub fn begin(&mut self, name: &str, op: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            tid: self.tid,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: None,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span and return its duration in microseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_us();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans close in LIFO order");
        let span = &mut self.spans[id.0];
        span.end_us = Some(now);
        now - span.start_us
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, op);
        let out = f();
        let us = self.end(id);
        (out, us)
    }

    /// Take over another thread's closed spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn duration(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        s.end_us.map_or(0.0, |e| e - s.start_us)
    }

    /// Each span's duration minus the time its direct children cover.
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.duration(i);
            }
        }
        own
    }

    /// The run's spans as a Chrome `traceEvents` document.
    pub fn chrome_trace(&self) -> String {
        let own = self.self_us();
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end_us.is_some())
            .map(|(i, s)| {
                let cat = s.name.split('.').next().unwrap_or("op");
                obj(vec![
                    ("name", Value::Str(s.name.clone())),
                    ("cat", Value::Str(cat.to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::F64(s.start_us)),
                    ("dur", Value::F64(self.duration(i))),
                    ("pid", Value::U64(1)),
                    ("tid", Value::U64(u64::from(s.tid))),
                    (
                        "args",
                        obj(vec![
                            ("op", Value::U64(s.op)),
                            ("self_us", Value::F64(own[i])),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", Value::Str("ms".to_string())),
        ])
        .to_string()
    }
}

/// Time `f` in microseconds, recording a span when there is a tracer.
pub fn span<T>(
    tr: &mut Option<&mut Tracer>,
    name: &str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tr {
        Some(t) => t.time(name, op, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64() * 1e6)
        }
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_across_absorbed_threads() {
        let mut t = Tracer::new(Instant::now(), 0);
        let outer = t.begin("op", 1);
        let ((), child) = t.time("layer.a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = t.end(outer);
        assert!(child >= 5000.0);
        let mut other = t.sibling(1);
        let ((), _) = other.time("layer.b", 2, || ());
        t.absorb(other);
        let own = t.self_us();
        assert!((own[0] - (total - child)).abs() < 1e-6, "{own:?}");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        let doc = serde_json::parse(&t.chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("tid").and_then(|v| v.as_u64()), Some(1));
    }
}
