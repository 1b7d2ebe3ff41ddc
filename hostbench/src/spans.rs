//! Benchmark-side spans: host-time intervals recorded around each call
//! into a simulator layer, kept in memory and written out at the end.
//!
//! The simulator itself is not instrumented; a span covers one call made
//! from this benchmark. A disabled [`Tracer`] records nothing and only
//! runs the closure, so untraced passes execute the same code.

use std::time::Instant;

/// One closed host-time interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `dace.verify`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; see the module documentation.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with an open span");
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Durations in milliseconds of the spans named `name` whose start
    /// is at or after `since_ns`.
    pub fn durations_ms(&self, name: &str, since_ns: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= since_ns)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Current position on the tracer's clock, for [`Tracer::durations_ms`].
    pub fn mark(&self) -> u64 {
        self.now_ns()
    }

    /// Per span name: `(name, count, total ms, self ms)`, where self time
    /// is the span's duration minus that of its direct children.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.dur_ns() as f64 / 1e6;
            let own = s.dur_ns().saturating_sub(child) as f64 / 1e6;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", |_| 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nested_spans_link_to_parent_and_split_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        let rows = t.summary();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(outer.2 >= inner.2);
        assert!((outer.3 - (outer.2 - inner.2)).abs() < 1e-9);
    }
}
