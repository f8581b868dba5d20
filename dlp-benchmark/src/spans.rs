//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (seconds since the child started)
//! and the span that caused it. Spans stay in memory and are written
//! out once, when the child ends. A disabled recorder (every untimed
//! measurement) runs the wrapped call and records nothing.

use crate::json::{obj, Value};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// End, seconds since the recorder was created.
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder.
pub struct Spans {
    t0: Instant,
    enabled: bool,
    stack: Vec<usize>,
    /// Every closed or open span, in start order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            t0: Instant::now(),
            enabled,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans opened inside `f` get
    /// this one as their parent.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            parent: self.stack.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_s = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Total duration of the spans whose name starts with `prefix`.
    pub fn total_s(&self, prefix: &str) -> Option<f64> {
        let mut it = self
            .spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .peekable();
        it.peek()?;
        Some(it.map(Span::dur_s).sum())
    }

    /// A span's own time: its duration minus what its child spans cover.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_s)
            .sum();
        self.spans[id].dur_s() - children
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", id.into()),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("name", s.name.as_str().into()),
                        ("start_s", s.start_s.into()),
                        ("end_s", s.end_s.into()),
                        ("self_s", self.self_s(id).into()),
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
    fn nested_spans_record_parents_and_self_time() {
        let mut sp = Spans::new(true);
        let v = sp.time("outer", |sp| {
            sp.time("inner a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            sp.time("inner b", |_| 7)
        });
        assert_eq!(v, 7);
        assert_eq!(sp.spans.len(), 3);
        assert_eq!(sp.spans[1].parent, Some(0));
        assert_eq!(sp.spans[2].parent, Some(0));
        assert!(sp.self_s(0) >= 0.0 && sp.self_s(0) <= sp.spans[0].dur_s());
        assert!(sp.total_s("inner").unwrap() >= 0.002);
        assert_eq!(sp.total_s("missing"), None);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        assert_eq!(sp.time("x", |_| 3), 3);
        assert!(sp.spans.is_empty());
    }
}
