//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions (`calls.rs`); nothing inside the
//! program is instrumented. A span has a name, start, end, parent and pass
//! id; self time is the span minus the part its children cover. With the
//! recorder disabled `span` runs the closure and takes no clock reading,
//! which is how the end-to-end metrics are measured.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    /// Counts taken at the same boundaries as the spans. Cleared when a
    /// traced pass starts: for a fixed seed every pass must count the same.
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new(Instant::now())
    }
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            enabled: false,
            epoch,
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Start pass `pass`, recording spans iff `traced`.
    pub fn begin_pass(&mut self, pass: u32, traced: bool) {
        self.pass = pass;
        self.enabled = traced;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name` (a child of the enclosing one).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Add to a count taken at a layer boundary (traced passes only).
    pub fn add(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += value;
        }
    }

    /// Reset the counts at the start of a traced pass.
    pub fn clear_counts(&mut self) {
        self.counts.clear();
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fold another thread's recorder into this one (serve clients).
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Self seconds per span name, summed over the spans `keep` selects.
    pub fn self_seconds(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns).filter(|(s, _)| keep(s)) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
        }
        out
    }

    /// Write one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"pass\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.pass
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(Instant::now());
        r.begin_pass(1, true);
        r.span("pass", |r| {
            r.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            r.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = r.self_seconds(|_| true);
        let total = spans[0].seconds();
        assert!((selfs["pass"] + selfs["a"] + selfs["b"] - total).abs() < 1e-9);
        assert!(selfs["pass"] < selfs["b"]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now());
        r.begin_pass(1, false);
        assert_eq!(r.span("a", |r| r.span("b", |_| 7)), 7);
        r.add("n", 3);
        assert!(r.spans().is_empty());
        assert!(r.counts().is_empty());
    }
}
