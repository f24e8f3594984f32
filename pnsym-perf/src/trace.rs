//! Spans recorded by the benchmark around each public call into a layer.
//!
//! A span has a name, a start, an end, the op it belongs to and the span
//! that encloses it. Spans stay in memory while the workload runs and are
//! written out as JSON lines when it ends. A layer's self time is its
//! span's duration minus the part covered by its child spans.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (or request) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log; `start`/`end` are no-ops when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
    }

    /// Records an already measured interval (used for request/`Done`
    /// pairs, whose start and end are observed on different threads).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                op,
                parent: None,
                start_ns,
                end_ns,
            });
        }
    }

    /// Self time of one span name restricted to the ops `keep` accepts.
    pub fn self_ms_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name && keep(s.op))
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.start("outer", 1);
        let inner = t.start("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let inner_ms = t.self_ms_where("inner", |_| true);
        assert!(inner_ms >= 5.0);
        assert!(t.self_ms_where("outer", |_| true) < inner_ms);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.start("x", 0);
        t.end(s);
        assert!(t.spans.is_empty());
    }
}
