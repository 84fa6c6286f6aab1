//! Metric bookkeeping, order statistics, process probes and the result line.

use mini_json::Json;
use std::time::Instant;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Keeps exactly the `declared` metrics, in declared order; a declared
    /// metric the run never set reads 0 (its layer did no work).
    pub fn select(&self, declared: &[(&str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in declared {
            out.put(name, self.get(name).unwrap_or(0.0), unit);
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                    )
                })
                .collect(),
        )
    }

    /// One `name = value unit` line per metric, for the human log.
    pub fn log(&self, heading: &str) {
        eprintln!("{heading}");
        for (name, value, unit) in &self.entries {
            eprintln!("  {name:<34} {value:>16.6} {unit}");
        }
    }
}

/// What one measured pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Broken pins and invariants; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// Operations attempted (runs, jobs or sweeps, per workload).
    pub attempted: u64,
    /// Operations that failed: no completion, over cap, error line or an
    /// undrained sweep.
    pub failed: u64,
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics (filled by traced passes only).
    pub layers: Metrics,
}

impl Pass {
    /// Records a broken pin or invariant.
    pub fn problem(&mut self, text: impl Into<String>) {
        let text = text.into();
        eprintln!("CHECK FAILED: {text}");
        self.problems.push(text);
    }
}

/// Prints the result line the benchmark contract asks for.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::from(correct)),
        ("attempted".to_string(), Json::from(attempted.max(1))),
        ("failed".to_string(), Json::from(failed)),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    println!("{line}");
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples; 0
/// for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Milliseconds elapsed between two instants (0 if `to` precedes `from`).
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// A numeric field of `/proc/self/status` (the leading number of the line).
fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Current thread count of this process.
pub fn thread_count() -> f64 {
    proc_status("Threads:").unwrap_or(0.0)
}

/// 64-bit FNV-1a over a sequence of records (sorted by the caller when the
/// production order is arbitrary).
pub fn fnv1a(records: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for record in records {
        for &b in record.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Times `reps` calls of `f` and returns the median wall time in seconds
/// together with the last call's result.
pub fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}
