//! Workload `stream_disk_single`: Theorem 1.1 runs over a streamed unit
//! disk, one after another for the length of the benchmark run.
//!
//! `StreamedUnitDisk { n: 20_000, radius: 0.03 }` with `Params::scaled` and
//! the leaned `2·log n` recruiting of the million-node bench entry. Run `r`
//! takes input `j = (workload seed - 1 + r) mod 10`: graph seed `2026 + j`
//! and protocol seed `1 + j`. Every input completes within its cap (checked
//! when the benchmark was defined); input 0, the first run at the default
//! workload seed, takes 14,742 rounds. Cycling through inputs keeps one
//! graph's per-round cost from setting a whole benchmark run's figures.
//! Why: it is the million-node hot path at a size that fits many runs — the
//! engine resolution loop, the wake wheel, the implicit graph's
//! neighbourhood cache and the single-message driver do all the work; the
//! sweep, service and fault layers do none.

use crate::layers::{topology_probes, wire_probe, Tally};
use crate::report::{median, median_timed, quantile, Pass};
use crate::spans::Tracer;
use crate::{wire, Config};
use broadcast::{Params, Scenario, TopologySpec, Workload};
use std::time::Instant;

/// The metric the tracing overhead is measured on, and whether higher is
/// better.
pub const HEADLINE: (&str, bool) = ("rounds_per_s", true);

const N: usize = 20_000;
const RADIUS: f64 = 0.03;
/// Rounds of input 0.
const PINNED_ROUNDS: u64 = 14_742;
const SETUP_REPS: usize = 31;
/// Number of validated (graph seed, protocol seed) inputs.
const INPUTS: u64 = 10;

fn topology(j: u64) -> TopologySpec {
    TopologySpec::StreamedUnitDisk { n: N, radius: RADIUS, graph_seed: 2026 + j }
}

fn scenario(j: u64) -> Scenario {
    let mut params = Params::scaled(N);
    params.recruit_iterations = 2 * params.log_n;
    Scenario::new(topology(j), Workload::Single { payload: wire::PAYLOAD }).params(params)
}

/// Runs the workload for `cfg.seconds`.
pub fn run(cfg: &Config, tracer: Option<&Tracer>) -> Pass {
    let mut pass = Pass::default();
    let first = cfg.offset % INPUTS;
    let (setup_s, _) = median_timed(SETUP_REPS, || scenario(first).prepare());
    let root = tracer.map(|t| t.open("stream_disk_single", cfg.seed, None));

    let (mut walls, mut rates, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    let start = Instant::now();
    loop {
        let rep = pass.attempted;
        let j = (first + rep) % INPUTS;
        let scenario = scenario(j);
        let prepared = scenario.prepare();
        let t0 = Instant::now();
        let out = scenario.run_seed(&prepared, 1 + j);
        let t1 = Instant::now();
        if let Some(t) = tracer {
            t.record("run_seed", j, root, t0, t1);
        }
        pass.attempted += 1;
        if out.phases.total() != out.stats.rounds {
            pass.problem(format!(
                "input {j}: phases sum to {} but {} rounds ran",
                out.phases.total(),
                out.stats.rounds
            ));
        }
        if !out.completed_within_cap() {
            pass.failed += 1;
        }
        if j == 0 && out.completion_round != Some(PINNED_ROUNDS) {
            pass.problem(format!(
                "input 0: completion round {:?}, pinned {PINNED_ROUNDS}",
                out.completion_round
            ));
        }
        let wall = (t1 - t0).as_secs_f64();
        walls.push(wall);
        rates.push(out.stats.rounds as f64 / wall);
        tally.add(&out, N, "single", "clean", Some(wall * 1e3));
        if start.elapsed().as_secs_f64() + wall > cfg.seconds {
            break;
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }

    let e = &mut pass.end_to_end;
    e.put("setup_s", setup_s, "s");
    e.put("rounds_per_s", median(&rates), "1/s");
    e.put("jobs_per_s", 1.0 / median(&walls), "1/s");
    e.put("done_p50_ms", median(&walls) * 1e3, "ms");
    e.put("done_p90_ms", quantile(&walls, 0.9) * 1e3, "ms");
    // A run has one outcome, so its first outcome is its last.
    e.put("first_outcome_p50_ms", median(&walls) * 1e3, "ms");

    if tracer.is_some() {
        let l = &mut pass.layers;
        tally.metrics(l);
        l.put("run.prepare_ms", setup_s * 1e3, "ms");
        let streamed = || vec![topology(first).streamed().expect("streamed topology spec")];
        topology_probes(SETUP_REPS, streamed, cfg.seed, l);
        // The wire format carries no parameter overrides, so the request
        // that would submit this run only measures the protocol layer; the
        // run itself never goes through it.
        let request = wire::submit(
            0,
            vec![wire::scenario(
                wire::streamed_unit_disk(N as u64, RADIUS, 2026 + first),
                wire::single(),
                Vec::new(),
            )],
            &[1 + first],
        );
        if let Err(e) = wire_probe(&[request], l) {
            pass.problem(e);
        }
    }
    pass
}
