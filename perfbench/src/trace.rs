//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and end (nanoseconds since the recorder was
//! created), the index of its parent span and the id of the query it
//! belongs to. Spans stay in memory while the workload runs and are
//! written out as JSON lines once it ends. A layer's self time is its
//! span's duration minus the part its direct children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, query: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recently closed span named `name`, in µs.
    pub fn last_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e3)
    }

    /// Self time (µs) summed over every span named `name`, and the number
    /// of such spans.
    pub fn self_time_us(&self, name: &str) -> (f64, usize) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut total = 0u64;
        let mut count = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += s.duration_ns().saturating_sub(child_ns[i]);
                count += 1;
            }
        }
        (total as f64 / 1e3, count)
    }

    /// Full duration (µs) summed over every span named `name`, and the
    /// number of such spans.
    pub fn total_us(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, c), s| {
                (t + s.duration_ns() as f64 / 1e3, c + 1)
            })
    }

    /// Mean self time per span named `name`, in µs (0 when none ran).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let (total, count) = self.self_time_us(name);
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
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
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            )?;
        }
        out.flush()
    }
}
