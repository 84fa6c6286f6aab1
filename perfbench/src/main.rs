//! The repository benchmark.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Workloads (one per process, so peak memory is per workload):
//!
//! * `stream_disk_single` — one Theorem 1.1 run on a streamed 20,000-node
//!   unit disk, repeated ([`stream`]);
//! * `sweep_mixed` — a closed loop of seed sweeps over seven clean scenarios
//!   on a 2-worker pool ([`sweep_mixed`]);
//! * `serve_faulted_open` — an open loop of faulted sweeps into the scenario
//!   server ([`serve`]).
//!
//! The workload seed shifts every protocol seed range and the streamed
//! graph seed; seed 1 is the default, at which exact results are pinned.
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload twice for half the time each, untraced then traced, and reports
//! the per-layer metrics of the traced half plus the tracing overhead (the
//! traced minus the untraced headline metric, as a share of the untraced).
//! Spans go to `--spans` when given. The last line of standard output is
//! the result object; everything else goes to standard error.

mod layers;
mod report;
mod serve;
mod spans;
mod stream;
mod sweep_mixed;
mod wire;

use report::{peak_rss_mb, print_result, Pass};
use spans::Tracer;
use std::path::PathBuf;

/// The default workload seed: exact results are pinned at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Every end-to-end metric, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("done_p50_ms", "ms"),
    ("done_p90_ms", "ms"),
    ("first_outcome_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// What a workload runs with.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload seed.
    pub seed: u64,
    /// How far the workload seed is from the default: shifts seed ranges.
    pub offset: u64,
    /// Measuring time, in seconds.
    pub seconds: f64,
}

impl Config {
    /// Whether exact results are pinned for this run.
    pub fn at_default_seed(&self) -> bool {
        self.seed == DEFAULT_SEED
    }
}

struct Args {
    workload: String,
    config: Config,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, DEFAULT_SEED, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let offset = seed.wrapping_sub(DEFAULT_SEED) % 1_000_000;
    Ok(Args { workload, config: Config { seed, offset, seconds }, trace, spans })
}

type Workload = fn(&Config, Option<&Tracer>) -> Pass;

fn workload(name: &str) -> Option<(Workload, (&'static str, bool))> {
    match name {
        "stream_disk_single" => Some((stream::run, stream::HEADLINE)),
        "sweep_mixed" => Some((sweep_mixed::run, sweep_mixed::HEADLINE)),
        "serve_faulted_open" => Some((serve::run, serve::HEADLINE)),
        _ => None,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some((run, (headline, higher_is_better))) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} cores",
        args.workload,
        args.config.seed,
        args.config.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    let (passes, metrics) = if args.trace {
        let half = Config { seconds: args.config.seconds / 2.0, ..args.config.clone() };
        let mut plain = run(&half, None);
        plain.end_to_end.put("peak_rss_mb", peak_rss_mb(), "MB");
        let tracer = Tracer::new();
        let mut traced = run(&half, Some(&tracer));
        traced.end_to_end.put("peak_rss_mb", peak_rss_mb(), "MB");
        plain.end_to_end.log("untraced half:");
        traced.end_to_end.log("traced half:");
        let untraced = plain.end_to_end.get(headline).unwrap_or(0.0);
        let with_trace = traced.end_to_end.get(headline).unwrap_or(0.0);
        let overhead = if higher_is_better {
            report::ratio(untraced - with_trace, untraced)
        } else {
            report::ratio(with_trace - untraced, untraced)
        };
        let mut layers = std::mem::take(&mut traced.layers);
        layers.put("trace.spans", tracer.len() as f64, "count");
        layers.put("trace.overhead_frac", overhead, "fraction");
        for (name, (count, total_ms, self_ms)) in tracer.self_times() {
            eprintln!(
                "span {name:<20} x{count:<6} total {total_ms:>12.3} ms  self {self_ms:>12.3} ms"
            );
        }
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write(path) {
                eprintln!("perfbench: could not write spans to {}: {e}", path.display());
            }
        }
        (vec![plain, traced], layers.select(layers::PER_LAYER))
    } else {
        let mut pass = run(&args.config, None);
        pass.end_to_end.put("peak_rss_mb", peak_rss_mb(), "MB");
        let metrics = pass.end_to_end.select(END_TO_END);
        (vec![pass], metrics)
    };

    metrics.log("metrics:");
    let correct = passes.iter().all(|p| p.problems.is_empty());
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    eprintln!("attempted {attempted}, failed {failed}, correct {correct}");
    print_result(correct, attempted, failed, &metrics);
    if !correct {
        std::process::exit(1);
    }
}
