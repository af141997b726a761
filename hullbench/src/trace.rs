//! Benchmark-side tracing: spans recorded around each call the benchmark
//! makes into one of the program's layers.
//!
//! A span is named `<layer>.<call>` and carries its start, end, parent
//! span and a per-batch or per-query id. Spans stay in memory and are
//! written out when the run ends. Every span is also timed when tracing
//! is off — the workloads need those durations for their end-to-end
//! metrics — so turning tracing on adds only the recording.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The batch, rep or query the span belongs to.
    pub id: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. While `recording` is false, [`Tracer::span`] only
/// times the call.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are being recorded right now.
    pub recording: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records from the start iff `recording`.
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f`, returning its result and its duration in nanoseconds,
    /// and records it as span `name` when recording. Spans opened inside
    /// `f` (through the tracer it is handed) become children of this one.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        if !self.recording {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_nanos() as u64);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// All recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations (ns) of every recorded span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per layer, in nanoseconds, over the spans whose root
    /// ancestor is called `root`: each span's duration minus the part its
    /// children cover. The root's own self time is the benchmark's
    /// (layer `bench`).
    pub fn self_ns_by_layer(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.root_of(i).name != root {
                continue;
            }
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(s.layer()).or_insert(0) += own;
        }
        out
    }

    fn root_of(&self, mut i: usize) -> &SpanRec {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        &self.spans[i]
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time_by_layer() {
        let mut t = Tracer::new(true);
        t.span("bench.rep", 0, |t| {
            t.span("tenant.ingest_bulk", 0, |t| {
                t.span("snapshot.spill", 0, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let by_layer = t.self_ns_by_layer("bench.rep");
        assert_eq!(by_layer.len(), 3);
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, t.spans()[0].dur_ns());
        assert!(by_layer["snapshot"] >= 2_000_000);
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn off_tracer_times_without_recording() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.span("bench.rep", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000);
        assert!(t.spans().is_empty());
    }
}
