//! The harness's own wall-clock spans: one around every call it makes into
//! a layer. Kept in memory, written out once at exit. (Spans *inside* the
//! crates are ROADMAP item 2; this benchmark measures from outside.)

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Records nested spans for one workload run.
pub struct Spans {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Spans {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its result and the span's
    /// duration in seconds. This is the harness's only stopwatch, so every
    /// reported time has a span behind it.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, start_s: 0.0, end_s: 0.0 });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].start_s = (start - self.epoch).as_secs_f64();
        self.spans[id].end_s = (end - self.epoch).as_secs_f64();
        (out, (end - start).as_secs_f64())
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 =
            self.spans.iter().filter(|c| c.parent == Some(id)).map(|c| c.end_s - c.start_s).sum();
        (s.end_s - s.start_s) - children
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload.clone())),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Value::obj([
                                ("id", Value::Num(id as f64)),
                                ("name", Value::str(s.name)),
                                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                                ("start_s", Value::Num(s.start_s)),
                                ("end_s", Value::Num(s.end_s)),
                                ("self_s", Value::Num(self.self_time(id))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut spans = Spans::new("w");
        let ((), outer) = spans.time("outer", |s| {
            s.time("a", |_| std::thread::sleep(Duration::from_millis(5)));
            s.time("b", |s| {
                s.time("b.inner", |_| ());
            });
        });
        let ((), _) = spans.time("sibling", |_| ());
        let got: Vec<(&str, Option<usize>)> =
            spans.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            got,
            [
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("b.inner", Some(2)),
                ("sibling", None)
            ]
        );
        assert!(outer >= 0.005);
        for s in &spans.spans {
            assert!(s.end_s >= s.start_s);
        }
        // outer's self time excludes a and b but not b.inner (a grandchild).
        let a = spans.spans[1].end_s - spans.spans[1].start_s;
        assert!(spans.self_time(0) <= outer - a + 1e-9);
        assert!(spans.self_time(0) >= 0.0);
        let doc = spans.to_json();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("w"));
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 5);
    }
}
