//! In-memory spans for the traced run.
//!
//! A span is one timed call into a public layer function: its name,
//! start, end, parent span and the operation it belongs to. The
//! benchmark cannot open spans inside the program, so where a public
//! call contains another layer's work, the inner call is timed again,
//! right after the outer one, on the same input, and recorded as the
//! outer span's child. A span's self time is its duration minus the
//! durations of its children; the spans of one operation therefore sum,
//! by self time, to the wall time of the calls on the path.

use crate::measure::median;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

impl Span {
    fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The spans of one traced phase (one input size of one path).
pub struct Tracer {
    label: String,
    origin: Instant,
    spans: Vec<Span>,
    op: u64,
}

impl Tracer {
    pub fn new(label: impl Into<String>, origin: Instant) -> Self {
        Tracer { label: label.into(), origin, spans: Vec::new(), op: 0 }
    }

    /// Start the next operation: later spans carry its number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            op: self.op,
        });
        (out, self.spans.len() - 1)
    }

    /// Self times (µs) of every span called `name`.
    fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.duration_us();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration_us() - child_us[i])
            .collect()
    }

    /// Median self time per call of `name`, in µs.
    pub fn self_us(&self, name: &str) -> f64 {
        median(&self.self_times(name))
    }

    /// Median duration per call of `name`, children included, in µs.
    pub fn inclusive_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> =
            self.spans.iter().filter(|s| s.name == name).map(Span::duration_us).collect();
        median(&durations)
    }

    /// Per operation, the sum of its spans' self times — which is the sum
    /// of its root spans' durations, since every child is a replay.
    pub fn op_self_sum_us(&self) -> Vec<f64> {
        let mut per_op = vec![0.0; self.op as usize];
        for span in self.spans.iter().filter(|s| s.parent.is_none() && s.op > 0) {
            per_op[span.op as usize - 1] += span.duration_us();
        }
        per_op
    }

    /// Per operation, the wall time from its first root span's start to
    /// its last root span's end, less the replays timed in between: what
    /// the traced operation took, bookkeeping included.
    pub fn op_traced_wall_us(&self) -> Vec<f64> {
        (1..=self.op)
            .map(|op| {
                let spans: Vec<&Span> = self.spans.iter().filter(|s| s.op == op).collect();
                let roots = spans.iter().filter(|s| s.parent.is_none());
                let start = roots.clone().map(|s| s.start_ns).min().unwrap_or(0);
                let end = roots.map(|s| s.end_ns).max().unwrap_or(0);
                let replayed: f64 = spans
                    .iter()
                    .filter(|s| s.parent.is_some() && s.start_ns >= start && s.end_ns <= end)
                    .map(|s| s.duration_us())
                    .sum();
                (end - start) as f64 / 1e3 - replayed
            })
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"phase\":\"{}\",\"id\":{id},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.label, s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new("test", Instant::now());
        t.next_op();
        let ((), outer) = t.span("outer", None, || sleep(Duration::from_millis(20)));
        t.span("inner", Some(outer), || sleep(Duration::from_millis(5)));
        let outer_self = t.self_us("outer");
        let inner = t.self_us("inner");
        assert!(inner >= 5_000.0);
        assert!(outer_self < 20_000.0 + 5_000.0 && outer_self > 10_000.0);
        let ((), _) = t.span("last", None, || sleep(Duration::from_millis(1)));
        let sum = t.op_self_sum_us();
        assert_eq!(sum.len(), 1);
        assert!(sum[0] >= 21_000.0 && sum[0] < 30_000.0, "{sum:?}");
        let wall = t.op_traced_wall_us()[0];
        assert!(wall >= sum[0] && wall < sum[0] + 2_000.0, "{wall} vs {sum:?}");
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
