//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span has a name (the layer call), a start and an end (nanoseconds since
//! the tracer started), the span that caused it, and the id of the sweep or
//! job it belongs to. A span's self time is its duration minus the part of
//! its interval covered by its children.

use mini_json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span { name, id, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that ends with [`Tracer::close`]; children may name it
    /// as their parent before it closes.
    pub fn open(&self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, span: SpanId) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span store poisoned")[span].end_ns = end;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Total and self time per span name, in milliseconds, with counts.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 / 1e6;
            entry.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line, then one `self_time` line per
    /// span name.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.spans.lock().expect("span store poisoned").iter().enumerate() {
            let line = Json::obj([
                ("span", Json::from(index)),
                ("name", Json::from(s.name)),
                ("id", Json::from(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        for (name, (count, total_ms, self_ms)) in self.self_times() {
            let line = Json::obj([
                ("self_time", Json::from(name)),
                ("count", Json::from(count)),
                ("total_ms", Json::from(total_ms)),
                ("self_ms", Json::from(self_ms)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::covered_ns;

    #[test]
    fn overlapping_children_count_once() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60), (90, 200)];
        assert_eq!(covered_ns(&mut kids, 0, 100), 20 + 10 + 10 + 10);
    }
}
