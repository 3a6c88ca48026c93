//! In-memory span recording for the traced run, plus the order statistics
//! both runs report.
//!
//! A span is (name, start, end, parent, op id). Spans stay in memory
//! while the window runs and are written as JSON lines at the end. A
//! span's self time is its duration minus the durations of its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Starts attributing spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per op, the summed self time (ns) of the spans named `name`; ops
    /// without such a span are left out.
    pub fn per_op_self_ns(&self, name: &str) -> Vec<f64> {
        let own = self.self_times();
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.name == name {
                *by_op.entry(s.op).or_default() += t;
            }
        }
        by_op.into_values().map(|v| v as f64).collect()
    }

    /// Per op, the summed duration (ns) of the spans named `name`.
    pub fn per_op_total_ns(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
        by_op.into_values().map(|v| v as f64).collect()
    }

    /// Median over ops of the self time of `name`, in milliseconds
    /// (0 when no op ran the span).
    pub fn median_self_ms(&self, name: &str) -> f64 {
        median(&self.per_op_self_ns(name)) / 1e6
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, t)) in self.spans.iter().zip(own).enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"self_ns\":{t}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median latency of a rotation of inputs: the median of each input
/// slot's own latencies, averaged over slots. With one slot (or none
/// given) this is the plain median. Taking medians per slot keeps the
/// value from jumping between the clusters of differently sized inputs
/// as the op count in a window shifts by one.
pub fn slot_median(values: &[f64], slots: &[u32]) -> f64 {
    if slots.len() != values.len() {
        return median(values);
    }
    let mut by_slot: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for (&v, &s) in values.iter().zip(slots) {
        by_slot.entry(s).or_default().push(v);
    }
    if by_slot.is_empty() {
        return 0.0;
    }
    by_slot.values().map(|v| median(v)).sum::<f64>() / by_slot.len() as f64
}
