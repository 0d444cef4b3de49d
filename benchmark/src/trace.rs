//! Wall-clock spans recorded by the harness around every call it makes
//! into a library layer.
//!
//! Spans live in a `Vec` while the workload runs and are written out once,
//! at exit. A span's *self time* is its duration minus the time covered by
//! its direct children; the harness is single-threaded, so children never
//! overlap and self time is a plain subtraction.

use serde::Value;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run_scheme` or `analyze.check_plan`.
    pub name: String,
    /// Start, ns since tracer creation.
    pub start_ns: u64,
    /// End, ns since tracer creation (equals `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for roots.
    pub parent: Option<usize>,
    /// Which repeat of the request list caused this span (`None` for the
    /// one-off decomposition calls).
    pub repeat: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle(Option<usize>);

/// The span recorder. Disabled tracers record nothing and cost one branch
/// per call, so the untraced pass runs the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    repeat: Option<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            repeat: None,
        }
    }

    /// Tag subsequently opened spans with a repeat id (or none).
    pub fn set_repeat(&mut self, repeat: Option<usize>) {
        self.repeat = repeat;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> SpanHandle {
        if !self.enabled {
            return SpanHandle(None);
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: t,
            end_ns: t,
            parent: self.stack.last().copied(),
            repeat: self.repeat,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanHandle(Some(id))
    }

    /// Close a span; spans close in LIFO order.
    pub fn close(&mut self, h: SpanHandle) {
        let Some(id) = h.0 else { return };
        let t = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = t;
    }

    /// Run `f` inside a span named `name` and return its result together
    /// with the elapsed wall seconds (timed whether or not recording is
    /// on, so traced and untraced passes measure the same way).
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let h = self.open(name);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.close(h);
        (out, dt)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns: duration minus direct children.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        own
    }

    /// Seconds spent in spans named `name`, summed within each repeat, one
    /// entry per repeat that has any (in repeat order).
    pub fn per_repeat_secs(&self, name: &str) -> Vec<f64> {
        let mut by_repeat: std::collections::BTreeMap<usize, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(r) = s.repeat {
                *by_repeat.entry(r).or_insert(0.0) += s.secs();
            }
        }
        by_repeat.into_values().collect()
    }

    /// The span list as JSON (`id` is the array index `parent` refers to).
    pub fn to_value(&self) -> Value {
        let own = self.self_ns();
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Object(vec![
                        ("id".into(), Value::U64(id as u64)),
                        ("name".into(), Value::Str(s.name.clone())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        (
                            "repeat".into(),
                            s.repeat.map_or(Value::Null, |r| Value::U64(r as u64)),
                        ),
                        ("self_ns".into(), Value::I64(own[id])),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_repeat(Some(0));
        let outer = t.open("outer");
        let ((), _) = t.timed("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = t.self_ns();
        assert!(own.iter().all(|&x| x >= 0));
        assert_eq!(own[0] + own[1], (s[0].end_ns - s[0].start_ns) as i64);
        assert_eq!(t.per_repeat_secs("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, dt) = t.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0);
        assert!(t.spans().is_empty());
    }
}
