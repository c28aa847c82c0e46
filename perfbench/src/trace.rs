//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer: name, start, end, parent span and a point id. They stay in
//! memory and are written out once, when the run ends. When tracing is
//! off every method is a plain pass-through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to; 0 is set-up.
    pub pass: u32,
    /// Call index within the pass.
    pub point: u64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_s: f64,
    /// Duration minus the time covered by child spans.
    pub self_s: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty tracer for another thread, sharing this one's epoch,
    /// state and pass; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Self {
            on: self.on,
            epoch: self.epoch,
            pass: self.pass,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, point: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.secs(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            pass: self.pass,
            point,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.secs(Instant::now());
        out
    }

    /// Records a span whose bounds the caller measured itself, as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, point: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start: self.secs(start),
            end: self.secs(end),
            parent: self.open.last().copied(),
            pass: self.pass,
            point,
        });
    }

    /// Appends the spans of a forked tracer, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name aggregates over the spans whose pass satisfies `keep`.
    pub fn summary(&self, keep: impl Fn(u32) -> bool) -> BTreeMap<&'static str, Agg> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            if !keep(s.pass) {
                continue;
            }
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_s += s.dur();
            a.self_s += (s.dur() - child).max(0.0);
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"pass\":{},\"point\":{}}}",
                s.name, s.start, s.end, s.pass, s.point
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_pass(1);
        t.span("outer", 0, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let s = t.summary(|p| p == 1);
        let (outer, inner) = (s["outer"], s["inner"]);
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert!(t.summary(|p| p == 0).is_empty());

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |_| 7), 7);
        assert!(off.to_jsonl().is_empty());
    }
}
