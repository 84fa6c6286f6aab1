//! Per-layer metrics: the declared list, the tally that folds job outcomes
//! into engine/graph/fault/driver/facade numbers, and the stand-alone layer
//! probes (neighbourhood queries, GST build, request parse and encode).

use crate::report::{median, median_timed, quantile, ratio, Metrics};
use broadcast::{Outcome, TopologySpec};
use gst::{build_gst, BuildConfig};
use mini_json::Json;
use radio_sim::graph::generators;
use radio_sim::rng::stream_rng;
use radio_sim::{NodeId, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric a traced run prints, with its unit. Must match the
/// `per_layer` list of `BENCHMARK.json` (the runner script checks). A metric
/// of a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // radio_sim::engine
    ("engine.ns_per_round", "ns"),
    ("engine.ns_per_delivery", "ns"),
    ("engine.awake_frac", "fraction"),
    ("engine.rounds", "count"),
    ("engine.transmissions", "count"),
    ("engine.deliveries", "count"),
    ("engine.collisions", "count"),
    ("engine.act_skips", "count"),
    ("engine.idle_fastforward", "count"),
    // radio_sim::graph
    ("graph.build_ms", "ms"),
    ("graph.neighbors_cold_ns", "ns"),
    ("graph.neighbors_warm_ns", "ns"),
    ("graph.resident_mb", "MB"),
    // radio_sim::engine::faults
    ("faults.erased", "count"),
    ("faults.jammed", "count"),
    ("faults.churn_events", "count"),
    ("faults.erased_frac", "fraction"),
    ("faults.job_ms_p50.clean", "ms"),
    ("faults.job_ms_p50.erasure", "ms"),
    ("faults.job_ms_p50.jammer", "ms"),
    ("faults.job_ms_p50.mobility", "ms"),
    ("faults.job_ms_p50.erasure_fec", "ms"),
    // broadcast drivers
    ("core.phase.wave", "rounds"),
    ("core.phase.construct", "rounds"),
    ("core.phase.label", "rounds"),
    ("core.phase.disseminate", "rounds"),
    ("core.phase.handoff", "rounds"),
    ("core.phase.repair", "rounds"),
    ("core.phase.fallback", "rounds"),
    ("core.phase.status", "rounds"),
    ("core.status_frac", "fraction"),
    ("core.recovery.retries", "count"),
    ("core.recovery.ring_repairs", "count"),
    ("core.recovery.regional_repairs", "count"),
    ("core.recovery.fallback_rounds", "count"),
    ("core.peak_state_mb", "MB"),
    // broadcast::run facade, gst
    ("run.prepare_ms", "ms"),
    ("run.job_ms_p50.single", "ms"),
    ("run.job_ms_p90.single", "ms"),
    ("run.job_ms_p50.multi_unknown", "ms"),
    ("run.job_ms_p90.multi_unknown", "ms"),
    ("run.job_ms_p50.multi_known", "ms"),
    ("run.job_ms_p90.multi_known", "ms"),
    ("run.job_ms_p50.decay", "ms"),
    ("run.job_ms_p90.decay", "ms"),
    ("gst.build_ms", "ms"),
    // sweep::executor
    ("executor.jobs", "count"),
    ("executor.busy_frac.w0", "fraction"),
    ("executor.busy_frac.w1", "fraction"),
    ("executor.imbalance_ms", "ms"),
    ("executor.merge_ms", "ms"),
    // sweep::service, sweep::protocol, mini_json
    ("service.admit_ms", "ms"),
    ("service.inflight_peak", "count"),
    ("service.threads_peak", "count"),
    ("service.lines_out", "count"),
    ("service.error_lines", "count"),
    ("protocol.parse_us", "us"),
    ("json.encode_us", "us"),
    // the load generator and the tracer itself
    ("load.late_ms_max", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Node count of a topology spec, without building it.
pub fn node_count(spec: &TopologySpec) -> usize {
    match spec {
        TopologySpec::Path { n }
        | TopologySpec::Star { n }
        | TopologySpec::BinaryTree { n }
        | TopologySpec::UnitDisk { n, .. }
        | TopologySpec::Gnp { n, .. }
        | TopologySpec::StreamedUnitDisk { n, .. }
        | TopologySpec::StreamedGnp { n, .. } => *n,
        TopologySpec::Grid { w, h } | TopologySpec::StreamedGrid { w, h } => w * h,
        TopologySpec::ClusterChain { clusters, size } => clusters * size,
        TopologySpec::Custom(g) => g.node_count(),
    }
}

/// Folds job outcomes into the engine, fault, driver and facade metrics.
#[derive(Debug, Default)]
pub struct Tally {
    rounds: u64,
    transmissions: u64,
    deliveries: u64,
    collisions: u64,
    act_skips: u64,
    idle_fastforward: u64,
    node_rounds: u64,
    erased: u64,
    jammed: u64,
    churn_events: u64,
    phases: [u64; 8],
    retries: u64,
    ring_repairs: u64,
    regional_repairs: u64,
    fallback_rounds: u64,
    peak_state_bytes: usize,
    timed_ns: f64,
    timed_rounds: u64,
    timed_deliveries: u64,
    job_ms_by_kind: BTreeMap<&'static str, Vec<f64>>,
    job_ms_by_fault: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    /// Adds one job: its outcome, the node count of its topology, its
    /// workload kind and fault class, and its wall time when it was timed.
    pub fn add(
        &mut self,
        out: &Outcome,
        nodes: usize,
        kind: &'static str,
        fault_class: &'static str,
        wall_ms: Option<f64>,
    ) {
        let s = &out.stats;
        self.rounds += s.rounds;
        self.transmissions += s.transmissions;
        self.deliveries += s.deliveries;
        self.collisions += s.collisions;
        self.act_skips += s.act_skips;
        self.idle_fastforward += s.idle_fastforward;
        self.node_rounds += nodes as u64 * s.rounds;
        self.erased += s.erased;
        self.jammed += s.jammed;
        self.churn_events += s.churn_events;
        let p = &out.phases;
        let phases = [
            p.wave,
            p.construct,
            p.label,
            p.disseminate,
            p.handoff,
            p.repair,
            p.fallback,
            p.status,
        ];
        for (acc, v) in self.phases.iter_mut().zip(phases) {
            *acc += v;
        }
        self.retries += s.retries;
        self.ring_repairs += s.ring_repairs;
        self.regional_repairs += s.regional_repairs;
        self.fallback_rounds += s.fallback_rounds;
        self.peak_state_bytes = self.peak_state_bytes.max(out.peak_state_bytes);
        if let Some(ms) = wall_ms {
            self.timed_ns += ms * 1e6;
            self.timed_rounds += s.rounds;
            self.timed_deliveries += s.deliveries;
            self.job_ms_by_kind.entry(kind).or_default().push(ms);
            self.job_ms_by_fault.entry(fault_class).or_default().push(ms);
        }
    }

    /// Writes the tallied metrics.
    pub fn metrics(&self, m: &mut Metrics) {
        m.put("engine.ns_per_round", ratio(self.timed_ns, self.timed_rounds as f64), "ns");
        m.put("engine.ns_per_delivery", ratio(self.timed_ns, self.timed_deliveries as f64), "ns");
        m.put(
            "engine.awake_frac",
            1.0 - ratio(self.act_skips as f64, self.node_rounds as f64),
            "fraction",
        );
        m.put("engine.rounds", self.rounds as f64, "count");
        m.put("engine.transmissions", self.transmissions as f64, "count");
        m.put("engine.deliveries", self.deliveries as f64, "count");
        m.put("engine.collisions", self.collisions as f64, "count");
        m.put("engine.act_skips", self.act_skips as f64, "count");
        m.put("engine.idle_fastforward", self.idle_fastforward as f64, "count");
        m.put("faults.erased", self.erased as f64, "count");
        m.put("faults.jammed", self.jammed as f64, "count");
        m.put("faults.churn_events", self.churn_events as f64, "count");
        m.put(
            "faults.erased_frac",
            ratio(self.erased as f64, (self.erased + self.deliveries) as f64),
            "fraction",
        );
        for (class, times) in &self.job_ms_by_fault {
            m.put(format!("faults.job_ms_p50.{class}"), median(times), "ms");
        }
        let names = [
            "wave",
            "construct",
            "label",
            "disseminate",
            "handoff",
            "repair",
            "fallback",
            "status",
        ];
        for (name, v) in names.iter().zip(self.phases) {
            m.put(format!("core.phase.{name}"), v as f64, "rounds");
        }
        m.put("core.status_frac", ratio(self.phases[7] as f64, self.rounds as f64), "fraction");
        m.put("core.recovery.retries", self.retries as f64, "count");
        m.put("core.recovery.ring_repairs", self.ring_repairs as f64, "count");
        m.put("core.recovery.regional_repairs", self.regional_repairs as f64, "count");
        m.put("core.recovery.fallback_rounds", self.fallback_rounds as f64, "count");
        m.put("core.peak_state_mb", self.peak_state_bytes as f64 / 1e6, "MB");
        for (kind, times) in &self.job_ms_by_kind {
            m.put(format!("run.job_ms_p50.{kind}"), median(times), "ms");
            m.put(format!("run.job_ms_p90.{kind}"), quantile(times, 0.9), "ms");
        }
    }
}

/// Times building the workload's topologies with `build` (median of
/// `reps`), probes their neighbourhood queries and resident size, and times
/// a GST build: the `graph.*` and `gst.build_ms` metrics.
pub fn topology_probes<T: Topology>(
    reps: usize,
    build: impl FnMut() -> Vec<T>,
    seed: u64,
    l: &mut Metrics,
) {
    let (build_s, topologies) = median_timed(reps, build);
    l.put("graph.build_ms", build_s * 1e3, "ms");
    let (cold, warm) = neighbor_probe(&topologies);
    l.put("graph.neighbors_cold_ns", cold, "ns");
    l.put("graph.neighbors_warm_ns", warm, "ns");
    let resident: usize = topologies.iter().map(Topology::resident_bytes).sum();
    l.put("graph.resident_mb", resident as f64 / 1e6, "MB");
    l.put("gst.build_ms", gst_probe(seed), "ms");
}

/// Average cost of one `with_neighbors` call over `topologies`, cold (the
/// first query of a node) and warm (an immediate repeat), in nanoseconds.
/// Nodes are queried in blocks of consecutive ids small enough that a
/// block's neighbourhoods all stay in a streamed topology's cache.
fn neighbor_probe<T: Topology>(topologies: &[T]) -> (f64, f64) {
    const BLOCK: usize = 512;
    let (mut cold, mut warm, mut calls, mut sink) = (0.0, 0.0, 0usize, 0usize);
    for topo in topologies {
        let n = topo.node_count();
        for start in (0..n).step_by(BLOCK) {
            let end = (start + BLOCK).min(n);
            for acc in [&mut cold, &mut warm] {
                let t = Instant::now();
                for v in start..end {
                    sink += topo.with_neighbors(NodeId::new(v), <[NodeId]>::len);
                }
                *acc += t.elapsed().as_nanos() as f64;
            }
            calls += end - start;
        }
    }
    black_box(sink);
    (ratio(cold, calls as f64), ratio(warm, calls as f64))
}

/// Median time of `gst::build_gst` on `grid(8x8)`, in milliseconds.
fn gst_probe(seed: u64) -> f64 {
    let graph = generators::grid(8, 8);
    let config = BuildConfig::for_nodes(graph.node_count());
    let mut times = Vec::new();
    for rep in 0..20 {
        let mut rng = stream_rng(seed, rep);
        let t = Instant::now();
        black_box(build_gst(&graph, &[NodeId::new(0)], &mut rng, &config));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Median per-line cost of encoding `requests` to wire lines
/// (`json.encode_us`) and of parsing the lines back with
/// `sweep::protocol::parse_request` (`protocol.parse_us`), in microseconds.
/// Every line must parse.
pub fn wire_probe(requests: &[Json], l: &mut Metrics) -> Result<(), String> {
    let (mut encode, mut parse) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        for request in requests {
            let t = Instant::now();
            let line = black_box(request.to_string());
            encode.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let parsed = black_box(sweep::protocol::parse_request(&line));
            parse.push(t.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = parsed {
                return Err(format!("request line did not parse: {} ({line})", e.text));
            }
        }
    }
    l.put("json.encode_us", median(&encode), "us");
    l.put("protocol.parse_us", median(&parse), "us");
    Ok(())
}
