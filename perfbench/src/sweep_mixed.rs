//! Workload `sweep_mixed`: a closed loop of seed sweeps on
//! `SweepPool::workers(2)`, each sweep the next seed range of one product of
//! seven clean, materialised scenarios:
//!
//! * `cluster_chain(20x6)` single and Decay
//! * `unit_disk(400,r=0.1,g=7)` single
//! * `cluster_chain(6x6)` multi_unknown k=8 FullK
//! * `cluster_chain(12x6)` multi_unknown k=16 Generations(4)
//! * `unit_disk(100,r=0.2,g=3)` multi_unknown k=8 FullK
//! * `grid(8x8)` multi_known k=16
//!
//! The next sweep is submitted when the previous one returns. Why: all
//! three theorems and both baselines run over CSR graphs, so the work falls
//! on the executor (stealing and `SeedMatrix::merge`), the core drivers,
//! `gst` and `rlnc`, with no streaming, no faults and no wire.
//!
//! Known correctness gap, deliberately kept out of this product:
//! `multi_unknown` on grids stops without completing, far under its cap, on
//! many seeds. `Scenario::new(TopologySpec::Grid { w, h: w },
//! Workload::MultiUnknown { .. }).seed(s).run()` returns `completion_round
//! == None` (32-bit messages `0xBEE0 + i`) for:
//!
//! * `grid(8x8)` k=16 Generations(4): 89 of seeds 0..300, first 1, 4, 5, 6, 17;
//! * `grid(8x8)` k=8 FullK: 39 of seeds 0..300, first 7, 20, 27, 29, 32;
//! * `grid(6x6)` k=8 FullK: 20 of seeds 0..300, first 12, 29, 54, 59, 83.
//!
//! Cluster chains and disks completed on every seed of the pool below. A
//! later fix must not read as a throughput change here, so no grid runs
//! `multi_unknown` in this workload.

use crate::layers::{node_count, topology_probes, wire_probe, Tally};
use crate::report::{fnv1a, median, median_timed, ms_between, quantile, Pass};
use crate::spans::{SpanId, Tracer};
use crate::{wire, Config};
use broadcast::{EmptyBehavior, Outcome, Scenario, SlowKey, SweepJob, TopologySpec, Workload};
use mini_json::Json;
use rlnc::gf2::BitVec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;
use sweep::protocol::{parse_request, Request};
use sweep::{SweepObserver, SweepPool, SweepProduct};

/// The metric the tracing overhead is measured on, and whether higher is
/// better.
pub const HEADLINE: (&str, bool) = ("jobs_per_s", true);

const WORKERS: usize = 2;
const SEEDS_PER_SWEEP: u64 = 30;
/// Protocol seeds `0..SEED_POOL` complete within their caps on all seven
/// scenarios (checked when the benchmark was defined; rare seeds outside it
/// do not — e.g. `cluster_chain(12x6)` multi_unknown fails on seed
/// 1,000,343). Sweeps take consecutive `SEEDS_PER_SWEEP`-seed blocks of the
/// pool, starting at a block the workload seed picks, and wrap around.
const SEED_POOL: u64 = 3_000;
const SETUP_REPS: usize = 31;
/// Digest of (label, seed, completion round, rounds) over the first sweep at
/// the default workload seed.
const PINNED_DIGEST: u64 = 0x1307_6328_b97e_f28e;

/// The six servable scenarios, as a wire client would submit them.
fn servable() -> Vec<Json> {
    let none = Vec::new;
    vec![
        wire::scenario(wire::cluster_chain(20, 6), wire::single(), none()),
        wire::scenario(wire::cluster_chain(20, 6), wire::decay(), none()),
        wire::scenario(wire::unit_disk(400, 0.1, 7), wire::single(), none()),
        wire::scenario(wire::cluster_chain(6, 6), wire::multi_unknown(8, None), none()),
        wire::scenario(wire::cluster_chain(12, 6), wire::multi_unknown(16, Some(4)), none()),
        wire::scenario(wire::unit_disk(100, 0.2, 3), wire::multi_unknown(8, None), none()),
    ]
}

/// The product's scenarios: the servable six decoded by the protocol layer,
/// plus Theorem 1.2 (`multi_known` is not servable: its GST is built from
/// global topology knowledge).
fn scenarios() -> Vec<Scenario> {
    let line = wire::submit(0, servable(), &[0]).to_string();
    let Ok(Request::SubmitSweep { product, .. }) = parse_request(&line) else {
        panic!("the sweep_mixed scenarios must parse as a submit_sweep");
    };
    let mut scenarios = product.scenario_list().to_vec();
    scenarios.push(Scenario::new(
        TopologySpec::Grid { w: 8, h: 8 },
        Workload::MultiKnown {
            messages: (0..16).map(|i| BitVec::from_u64(0xBEE0 + i, 32)).collect(),
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        },
    ));
    scenarios
}

/// Times the first outcome of a sweep and, when traced, every outcome with
/// the worker thread that produced it.
struct SweepWatch {
    start: Instant,
    first_ns: AtomicU64,
    events: Option<Mutex<Vec<(ThreadId, Instant, SweepJob)>>>,
}

impl SweepObserver for SweepWatch {
    fn outcome(&self, job: SweepJob, _: &Scenario, _: &Outcome) {
        let now = Instant::now();
        let ns = now.saturating_duration_since(self.start).as_nanos() as u64;
        self.first_ns.fetch_min(ns, Ordering::Relaxed);
        if let Some(events) = &self.events {
            events.lock().expect("event log poisoned").push((
                std::thread::current().id(),
                now,
                job,
            ));
        }
    }
}

/// Executor figures of the traced sweeps.
#[derive(Default)]
struct ExecutorTally {
    busy: [f64; WORKERS],
    wall_ms: f64,
    imbalance_ms: Vec<f64>,
    merge_ms: Vec<f64>,
}

/// Turns a traced sweep's outcome log into per-job spans (a job on a worker
/// runs from that worker's previous outcome, or the sweep start, to its own
/// outcome) and executor figures. Returns each job's inferred wall time.
fn infer_jobs(
    watch: &SweepWatch,
    end: Instant,
    tracer: &Tracer,
    sweep_span: SpanId,
    exec: &mut ExecutorTally,
) -> HashMap<(usize, u64), f64> {
    let events = watch.events.as_ref().expect("traced sweep").lock().expect("event log poisoned");
    let mut by_thread: Vec<(ThreadId, Vec<(Instant, SweepJob)>)> = Vec::new();
    for &(thread, at, job) in events.iter() {
        match by_thread.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, list)) => list.push((at, job)),
            None => by_thread.push((thread, vec![(at, job)])),
        }
    }
    let mut walls = HashMap::new();
    let mut finishes = Vec::new();
    let mut busy = Vec::new();
    for (_, list) in &mut by_thread {
        list.sort_by_key(|&(at, _)| at);
        let mut from = watch.start;
        for &(at, job) in list.iter() {
            let id = job.scenario as u64 * SEEDS_PER_SWEEP + job.order;
            tracer.record("job", id, Some(sweep_span), from, at);
            walls.insert((job.scenario, job.order), ms_between(from, at));
            from = at;
        }
        finishes.push(from);
        busy.push(ms_between(watch.start, from));
    }
    busy.sort_by(|a, b| b.total_cmp(a));
    for (acc, b) in exec.busy.iter_mut().zip(busy) {
        *acc += b;
    }
    exec.wall_ms += ms_between(watch.start, end);
    if let (Some(first), Some(last)) = (finishes.iter().min(), finishes.iter().max()) {
        exec.imbalance_ms.push(ms_between(*first, *last));
        exec.merge_ms.push(ms_between(*last, end));
    }
    walls
}

/// Runs the workload for `cfg.seconds`.
pub fn run(cfg: &Config, tracer: Option<&Tracer>) -> Pass {
    let mut pass = Pass::default();
    let scenarios = scenarios();
    let nodes: Vec<usize> = scenarios.iter().map(|s| node_count(s.topology())).collect();
    let (setup_s, _) =
        median_timed(SETUP_REPS, || scenarios.iter().map(Scenario::prepare).collect::<Vec<_>>());
    let blocks = SEED_POOL / SEEDS_PER_SWEEP;
    let pool = SweepPool::new().workers(WORKERS);

    let (mut walls, mut firsts, mut tally, mut exec) =
        (Vec::new(), Vec::new(), Tally::default(), ExecutorTally::default());
    let (mut job_rates, mut round_rates, mut jobs) = (Vec::new(), Vec::new(), 0u64);
    let start = Instant::now();
    for sweep_no in 0u64.. {
        let first_seed = (cfg.offset * 7 + sweep_no) % blocks * SEEDS_PER_SWEEP;
        let product = SweepProduct::new()
            .scenarios(scenarios.iter().cloned())
            .seeds(first_seed..first_seed + SEEDS_PER_SWEEP);
        let watch = SweepWatch {
            start: Instant::now(),
            first_ns: AtomicU64::new(u64::MAX),
            events: tracer.map(|_| Mutex::new(Vec::new())),
        };
        let matrices = pool.run_observed(&product, &watch);
        let end = Instant::now();
        let wall = (end - watch.start).as_secs_f64();
        walls.push(wall);
        firsts.push(watch.first_ns.load(Ordering::Relaxed) as f64 / 1e6);
        let job_ms = tracer.map(|t| {
            let span = t.record("sweep", sweep_no, None, watch.start, end);
            infer_jobs(&watch, end, t, span, &mut exec)
        });

        let (mut records, mut rounds) = (Vec::new(), 0u64);
        for (s, matrix) in matrices.iter().enumerate() {
            let kind = scenarios[s].workload().kind();
            for run in &matrix.runs {
                let out = &run.outcome;
                jobs += 1;
                rounds += out.stats.rounds;
                if out.phases.total() != out.stats.rounds {
                    pass.problem(format!(
                        "{} seed {}: phases do not sum to rounds",
                        matrix.label, run.seed
                    ));
                }
                if !out.completed_within_cap() {
                    pass.failed += 1;
                    eprintln!(
                        "failed: {} seed {} completion {:?} cap {}",
                        matrix.label, run.seed, out.completion_round, out.cap
                    );
                }
                let wall_ms = job_ms.as_ref().and_then(|m| m.get(&(s, run.order)).copied());
                tally.add(out, nodes[s], kind, "clean", wall_ms);
                records.push(format!(
                    "{}|{}|{:?}|{}",
                    matrix.label, run.seed, out.completion_round, out.stats.rounds
                ));
            }
        }
        pass.attempted += product.job_count() as u64;
        job_rates.push(records.len() as f64 / wall);
        round_rates.push(rounds as f64 / wall);
        if records.len() != product.job_count() {
            pass.problem(format!(
                "sweep {sweep_no} returned {} of {} jobs",
                records.len(),
                product.job_count()
            ));
        }
        if sweep_no == 0 && cfg.at_default_seed() {
            records.sort();
            let digest = fnv1a(&records);
            if digest != PINNED_DIGEST {
                pass.problem(format!(
                    "first-sweep digest {digest:#018x}, pinned {PINNED_DIGEST:#018x}"
                ));
            }
        }
        if start.elapsed().as_secs_f64() + wall > cfg.seconds {
            break;
        }
    }

    let e = &mut pass.end_to_end;
    e.put("setup_s", setup_s, "s");
    e.put("rounds_per_s", median(&round_rates), "1/s");
    e.put("jobs_per_s", median(&job_rates), "1/s");
    e.put("done_p50_ms", median(&walls) * 1e3, "ms");
    e.put("done_p90_ms", quantile(&walls, 0.9) * 1e3, "ms");
    e.put("first_outcome_p50_ms", median(&firsts), "ms");

    if tracer.is_some() {
        let l = &mut pass.layers;
        tally.metrics(l);
        l.put("executor.jobs", jobs as f64, "count");
        for (w, busy) in exec.busy.iter().enumerate() {
            l.put(format!("executor.busy_frac.w{w}"), busy / exec.wall_ms, "fraction");
        }
        l.put("executor.imbalance_ms", median(&exec.imbalance_ms), "ms");
        l.put("executor.merge_ms", median(&exec.merge_ms), "ms");
        l.put("run.prepare_ms", setup_s * 1e3, "ms");
        let graphs = || scenarios.iter().map(|s| s.topology().build()).collect::<Vec<_>>();
        topology_probes(SETUP_REPS, graphs, cfg.seed, l);
        if let Err(e) = wire_probe(&[wire::submit(0, servable(), &[0])], l) {
            pass.problem(e);
        }
    }
    pass
}
