//! # One front door: declarative [`Scenario`]s over every pipeline and baseline
//!
//! [`Scenario`] is the only public way to run the three theorem pipelines
//! and the two baselines: describe *what* to run — a [`TopologySpec`], a
//! [`Workload`], the shared knobs — and [`Scenario::run`] wires up the
//! graph, parameters, seeds and driver for you, returning one unified
//! [`Outcome`] regardless of which algorithm ran. [`Scenario::seeds`] sweeps
//! a seed range and aggregates the results into a [`SeedMatrix`] for benches
//! and regression suites.
//!
//! Graphs are built **lazily** from the spec at run time, and `Streamed*`
//! specs never build one: the engine pulls neighborhoods on demand.
//!
//! ## Which entry point do I want?
//!
//! | I want to… | Use |
//! |---|---|
//! | run any algorithm on a declared topology, compare apples to apples | [`Scenario`] (this module) |
//! | run on a pre-built [`Graph`] | [`Scenario`] over [`TopologySpec::custom`] |
//! | sweep seeds and aggregate | [`Scenario::seeds`] → [`SeedMatrix`] |
//! | reject a scenario that cannot run, before building anything | [`Scenario::validate`] |
//! | drive a protocol round by round | [`radio_sim::Simulator`] directly |
//!
//! ```
//! use broadcast::{Scenario, TopologySpec, Workload};
//!
//! let out = Scenario::new(
//!     TopologySpec::Path { n: 8 },
//!     Workload::Single { payload: 7 },
//! )
//! .seed(1)
//! .run();
//! let done = out.completion_round.expect("Theorem 1.1 completes");
//! assert!(done <= out.cap, "the worst-case cap bounds every run");
//! assert_eq!(out.phases.total(), out.stats.rounds);
//! ```

use crate::adaptive::Pacing;
use crate::decay::{DecayBroadcast, DecayMsg, MmvDecayBroadcast};
use crate::multi_message::{self, BatchMode, GhkMultiPlan};
use crate::params::Params;
use crate::schedule::{
    EmptyBehavior, MmvScheduleNode, SchedAudit, SchedLabels, ScheduleConfig, SlowKey,
};
use crate::single_message::{self, Ghk1Plan};
use radio_sim::graph::{bfs_layering, generators};
use radio_sim::rng::stream_rng;
use radio_sim::trace::RunStats;
use radio_sim::{
    CollisionMode, FaultPlan, Graph, ImplicitGraph, NodeId, Protocol, Simulator, Topology,
};
use rlnc::gf2::BitVec;
use std::sync::Arc;

/// Default hard cap for baseline workloads (the cap the hand-rolled Decay
/// comparison loops always used).
const BASELINE_ROUND_CAP: u64 = 5_000_000;

/// Default hard cap for [`Workload::MultiKnown`] runs.
const KNOWN_ROUND_CAP: u64 = 1_000_000;

/// A declarative network topology, built lazily at run time.
///
/// Randomized families carry their own `graph_seed` (independent of the
/// scenario's protocol seed), so one scenario can sweep protocol seeds over
/// a fixed sampled graph.
#[derive(Clone, Debug)]
pub enum TopologySpec {
    /// A path of `n` nodes (diameter `n - 1`).
    Path {
        /// Node count.
        n: usize,
    },
    /// A `w × h` grid.
    Grid {
        /// Width in nodes.
        w: usize,
        /// Height in nodes.
        h: usize,
    },
    /// A star: node 0 is the hub, `n - 1` leaves.
    Star {
        /// Node count (hub included).
        n: usize,
    },
    /// A chain of `clusters` cliques of `size` nodes (the corridor-mesh
    /// family of the emergency-alert scenario).
    ClusterChain {
        /// Number of cliques.
        clusters: usize,
        /// Nodes per clique.
        size: usize,
    },
    /// A complete binary tree of `n` nodes.
    BinaryTree {
        /// Node count.
        n: usize,
    },
    /// A random unit-disk deployment (the classical physical radio model).
    UnitDisk {
        /// Node count.
        n: usize,
        /// Connection radius in the unit square.
        radius: f64,
        /// Seed of the placement stream.
        graph_seed: u64,
    },
    /// A connected Erdős–Rényi `G(n, p)` sample.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Seed of the sampling stream.
        graph_seed: u64,
    },
    /// Any pre-built graph (escape hatch for hand-crafted topologies).
    /// Shared behind an [`Arc`] so seed sweeps and repeated runs never
    /// re-clone the CSR arrays; build one with [`TopologySpec::custom`].
    Custom(Arc<Graph>),
    /// Streamed `w × h` grid: neighborhoods computed on demand
    /// ([`ImplicitGraph::grid`]), edge-identical to [`TopologySpec::Grid`].
    /// Supports erasure/jammer fault plans but not churn/mobility (those
    /// rewrite a materialized adjacency).
    StreamedGrid {
        /// Width in nodes.
        w: usize,
        /// Height in nodes.
        h: usize,
    },
    /// Streamed hashed unit-disk deployment ([`ImplicitGraph::unit_disk`]).
    /// Deterministic per `(n, radius, graph_seed)` and distributionally
    /// equivalent to [`TopologySpec::UnitDisk`], but **not** edge-identical
    /// to it: positions are SplitMix64-hashed per node id instead of drawn
    /// sequentially, and no connectivity stitching is applied.
    StreamedUnitDisk {
        /// Node count.
        n: usize,
        /// Connection radius in the unit square.
        radius: f64,
        /// Seed of the position hash.
        graph_seed: u64,
    },
    /// Streamed hashed `G(n, p)` ([`ImplicitGraph::gnp`]): one SplitMix64
    /// coin per node pair, no connectivity stitching. Nothing is cached, so
    /// every neighborhood query, repeats included, hashes all `n − 1`
    /// pairs: a run pays `O(n)` per transmission. Where the CSR fits,
    /// `TopologySpec::custom(spec.build())` runs the same graph, with the
    /// same trace, on `O(degree)` queries. For million-node streaming use
    /// [`TopologySpec::StreamedGrid`]/[`TopologySpec::StreamedUnitDisk`].
    StreamedGnp {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Seed of the pair-coin hash.
        graph_seed: u64,
    },
}

impl TopologySpec {
    /// Wraps a pre-built graph as a [`TopologySpec::Custom`] spec.
    pub fn custom(graph: Graph) -> Self {
        TopologySpec::Custom(Arc::new(graph))
    }

    /// The number of nodes the spec builds, read off the spec alone (nothing
    /// is built). Lets a front end reject a source outside the topology, or
    /// an empty topology, before any run starts.
    pub fn node_count(&self) -> usize {
        match self {
            TopologySpec::Path { n }
            | TopologySpec::Star { n }
            | TopologySpec::BinaryTree { n }
            | TopologySpec::UnitDisk { n, .. }
            | TopologySpec::Gnp { n, .. }
            | TopologySpec::StreamedUnitDisk { n, .. }
            | TopologySpec::StreamedGnp { n, .. } => *n,
            TopologySpec::Grid { w, h } | TopologySpec::StreamedGrid { w, h } => {
                w.saturating_mul(*h)
            }
            TopologySpec::ClusterChain { clusters, size } => clusters.saturating_mul(*size),
            TopologySpec::Custom(g) => g.node_count(),
        }
    }

    /// The streamed topology of a `Streamed*` spec, `None` for materialized
    /// families. [`Scenario::run`] dispatches on this: streamed specs run the
    /// pipelines without ever building the CSR.
    pub fn streamed(&self) -> Option<ImplicitGraph> {
        match self {
            TopologySpec::StreamedGrid { w, h } => Some(ImplicitGraph::grid(*w, *h)),
            TopologySpec::StreamedUnitDisk { n, radius, graph_seed } => {
                Some(ImplicitGraph::unit_disk(*n, *radius, *graph_seed))
            }
            TopologySpec::StreamedGnp { n, p, graph_seed } => {
                Some(ImplicitGraph::gnp(*n, *p, *graph_seed))
            }
            _ => None,
        }
    }

    /// Materializes the graph. Deterministic: the same spec always builds
    /// the same graph (randomized families derive their RNG from
    /// `graph_seed` alone). `Streamed*` specs materialize via
    /// [`ImplicitGraph::materialize`] — byte-identical neighborhoods to the
    /// streamed queries, but an `O(n²)` pair scan for the hashed disk/Gnp
    /// families, intended for verification sizes rather than streaming
    /// scale.
    pub fn build(&self) -> Graph {
        match self {
            TopologySpec::Path { n } => generators::path(*n),
            TopologySpec::Grid { w, h } => generators::grid(*w, *h),
            TopologySpec::Star { n } => generators::star(*n),
            TopologySpec::ClusterChain { clusters, size } => {
                generators::cluster_chain(*clusters, *size)
            }
            TopologySpec::BinaryTree { n } => generators::binary_tree(*n),
            TopologySpec::UnitDisk { n, radius, graph_seed } => {
                let mut rng = stream_rng(*graph_seed, 0);
                generators::unit_disk(*n, *radius, &mut rng)
            }
            TopologySpec::Gnp { n, p, graph_seed } => {
                let mut rng = stream_rng(*graph_seed, 0);
                generators::gnp_connected(*n, *p, &mut rng)
            }
            TopologySpec::Custom(g) => g.as_ref().clone(),
            TopologySpec::StreamedGrid { .. }
            | TopologySpec::StreamedUnitDisk { .. }
            | TopologySpec::StreamedGnp { .. } => {
                self.streamed().expect("streamed variant").materialize()
            }
        }
    }

    /// A stable machine-readable label (the topology half of
    /// [`Scenario::label`]). Streamed specs carry a `stream:` prefix.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Path { n } => format!("path({n})"),
            TopologySpec::Grid { w, h } => format!("grid({w}x{h})"),
            TopologySpec::Star { n } => format!("star({n})"),
            TopologySpec::ClusterChain { clusters, size } => {
                format!("cluster_chain({clusters}x{size})")
            }
            TopologySpec::BinaryTree { n } => format!("binary_tree({n})"),
            TopologySpec::UnitDisk { n, radius, graph_seed } => {
                format!("unit_disk({n},r={radius},g={graph_seed})")
            }
            TopologySpec::Gnp { n, p, graph_seed } => format!("gnp({n},p={p},g={graph_seed})"),
            TopologySpec::Custom(g) => format!("custom({})", g.node_count()),
            TopologySpec::StreamedGrid { w, h } => format!("stream:grid({w}x{h})"),
            TopologySpec::StreamedUnitDisk { n, radius, graph_seed } => {
                format!("stream:unit_disk({n},r={radius},g={graph_seed})")
            }
            TopologySpec::StreamedGnp { n, p, graph_seed } => {
                format!("stream:gnp({n},p={p},g={graph_seed})")
            }
        }
    }
}

/// A baseline comparator algorithm (see `crate::decay`). The published
/// protocols the paper measures against live here so baseline runs share
/// the exact topology/params/seed wiring of the theorem pipelines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// BGI Decay, `O(D log n + log^2 n)` — the classical no-CD baseline.
    Decay {
        /// The broadcast payload.
        payload: u64,
    },
    /// The MMV-framed layered Decay of Lemma 3.2 (nodes must know their BFS
    /// level; the facade injects it from the built graph, modelling the
    /// layering phase's outcome).
    MmvDecay {
        /// The broadcast payload.
        payload: u64,
        /// Whether prompted non-holders transmit noise (the Lemma 3.2
        /// worst-case stress) or stay silent (classical layered Decay).
        noise: bool,
    },
}

/// What to run on the topology.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Theorem 1.1: single-message broadcast with collision detection,
    /// run adaptively.
    Single {
        /// The broadcast payload.
        payload: u64,
    },
    /// Theorem 1.2: known-topology k-message broadcast over the MMV GST
    /// schedule with RLNC.
    MultiKnown {
        /// The messages, all of one bit length.
        messages: Vec<BitVec>,
        /// Slow-pattern keying (the E8 ablation).
        slow_key: SlowKey,
        /// Empty-decoder behavior (the MMV noise stress).
        empty: EmptyBehavior,
    },
    /// Theorem 1.3: unknown-topology k-message broadcast with collision
    /// detection, run adaptively.
    MultiUnknown {
        /// The messages, all of one bit length.
        messages: Vec<BitVec>,
        /// Message batching across ring handoffs.
        batch: BatchMode,
    },
    /// A published baseline, for apples-to-apples comparison runs.
    Baseline(Algo),
}

impl Workload {
    /// A stable machine-readable kind label (used in bench JSON entries).
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Single { .. } => "single",
            Workload::MultiKnown { .. } => "multi_known",
            Workload::MultiUnknown { .. } => "multi_unknown",
            Workload::Baseline(Algo::Decay { .. }) => "decay",
            Workload::Baseline(Algo::MmvDecay { .. }) => "mmv_decay",
        }
    }

    /// The collision mode each workload's theorem (or analysis) assumes:
    /// Theorems 1.1/1.3 need collision detection; the MMV schedule and the
    /// Decay baselines are analyzed without it.
    fn default_mode(&self) -> CollisionMode {
        match self {
            Workload::Single { .. } | Workload::MultiUnknown { .. } => CollisionMode::Detection,
            Workload::MultiKnown { .. } | Workload::Baseline(_) => CollisionMode::NoDetection,
        }
    }
}

/// Unified per-phase round accounting across all workloads.
///
/// The Theorem 1.1 pipeline reports its in-ring broadcast rounds as
/// `disseminate`; workloads without setup phases (Theorem 1.2, baselines)
/// report every executed round as `disseminate`. The invariant
/// `phases.total() == stats.rounds` holds for every workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Phases {
    /// Collision-wave layering work rounds.
    pub wave: u64,
    /// GST-construction work rounds.
    pub construct: u64,
    /// Virtual-labeling work rounds (Theorem 1.3 only).
    pub label: u64,
    /// Payload-dissemination work rounds.
    pub disseminate: u64,
    /// Inter-ring handoff work rounds.
    pub handoff: u64,
    /// Recovery-ladder work rounds of the adaptive pipelines (rung-1
    /// ring-local repair and rung-2 regional re-dissemination).
    pub repair: u64,
    /// No-knowledge Decay fallback rounds (rung 3 of the adaptive
    /// pipelines' ladder).
    pub fallback: u64,
    /// Status-beep rounds of the adaptive drivers.
    pub status: u64,
}

impl Phases {
    /// Total rounds executed.
    pub fn total(&self) -> u64 {
        self.wave
            + self.construct
            + self.label
            + self.disseminate
            + self.handoff
            + self.repair
            + self.fallback
            + self.status
    }
}

/// The algorithm-specific extension of an [`Outcome`].
#[derive(Clone, Debug)]
pub enum Detail {
    /// Theorem 1.1 extras.
    Single {
        /// The executed plan (per-phase worst-case budgets).
        plan: Ghk1Plan,
        /// Nodes that used the construction fallback.
        fallbacks: usize,
        /// Round the rung-3 recovery fallback armed, if the ladder got
        /// that far (`None` on runs that completed before it).
        fallback_entry: Option<u64>,
    },
    /// Theorem 1.2 extras.
    MultiKnown {
        /// The slow keying the schedule ran with.
        slow_key: SlowKey,
        /// The empty-decoder behavior the schedule ran with.
        empty: EmptyBehavior,
    },
    /// Theorem 1.3 extras.
    MultiUnknown {
        /// The executed plan (ring/batch pipeline geometry and caps).
        plan: GhkMultiPlan,
        /// Round the rung-3 recovery fallback armed, if the ladder got
        /// that far.
        fallback_entry: Option<u64>,
    },
    /// Baseline extras.
    Baseline {
        /// Which comparator ran.
        algo: Algo,
    },
}

/// The unified outcome of one [`Scenario`] run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Round at which the workload's completion predicate first held
    /// everywhere (`None`: the run hit its cap without completing).
    pub completion_round: Option<u64>,
    /// The worst-case round cap that bounded the run — the plan's
    /// `total_rounds()` for the adaptive pipelines, the configured
    /// `max_rounds`/round cap otherwise.
    pub cap: u64,
    /// Rounds actually executed, by phase.
    pub phases: Phases,
    /// Channel statistics of the run.
    pub stats: RunStats,
    /// Aggregated MMV-schedule audit counters (zero for workloads that
    /// never run the schedule).
    pub audit: SchedAudit,
    /// Peak resident state over the run, in bytes: the topology
    /// representation ([`Topology::resident_bytes`]) plus the struct-level
    /// per-node state, sampled at phase boundaries. See the README's
    /// "Streaming topologies and memory model" for the accounting contract.
    pub peak_state_bytes: usize,
    /// Algorithm-specific extension.
    pub detail: Detail,
}

impl Outcome {
    /// Whether the run completed within its worst-case cap.
    pub fn completed_within_cap(&self) -> bool {
        self.completion_round.is_some_and(|r| r <= self.cap)
    }
}

/// One run of a [`SeedMatrix`].
#[derive(Clone, Debug)]
pub struct SeedRun {
    /// Position of this run in the sweep's seed sequence (0-based).
    pub order: u64,
    /// The master seed of this run.
    pub seed: u64,
    /// Its outcome.
    pub outcome: Outcome,
}

/// Aggregated outcomes of one scenario swept over a seed range
/// ([`Scenario::seeds`]) — the shape benches and regression suites consume.
#[derive(Clone, Debug)]
pub struct SeedMatrix {
    /// The scenario's label (`topology/workload`).
    pub label: String,
    /// One entry per seed, in sweep order (ascending [`SeedRun::order`]).
    pub runs: Vec<SeedRun>,
}

impl SeedMatrix {
    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Whether every run completed.
    pub fn all_completed(&self) -> bool {
        self.runs.iter().all(|r| r.outcome.completion_round.is_some())
    }

    /// Whether every run completed within its worst-case cap.
    pub fn all_within_caps(&self) -> bool {
        self.runs.iter().all(|r| r.outcome.completed_within_cap())
    }

    /// Seeds whose run did not complete.
    pub fn failures(&self) -> Vec<u64> {
        self.runs.iter().filter(|r| r.outcome.completion_round.is_none()).map(|r| r.seed).collect()
    }

    /// Completion rounds of the completed runs.
    fn completions(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().filter_map(|r| r.outcome.completion_round)
    }

    /// Slowest completion round among completed runs.
    pub fn worst_rounds(&self) -> Option<u64> {
        self.completions().max()
    }

    /// Fastest completion round among completed runs.
    pub fn best_rounds(&self) -> Option<u64> {
        self.completions().min()
    }

    /// Mean completion round over completed runs.
    pub fn mean_rounds(&self) -> Option<f64> {
        let (mut sum, mut count) = (0u64, 0u64);
        for r in self.completions() {
            sum += r;
            count += 1;
        }
        (count > 0).then(|| sum as f64 / count as f64)
    }

    /// Completion round at the `q`-quantile (nearest-rank over the sorted
    /// completed runs; `q` clamped to `[0, 1]`).
    fn quantile_rounds(&self, q: f64) -> Option<u64> {
        let mut rounds: Vec<u64> = self.completions().collect();
        if rounds.is_empty() {
            return None;
        }
        rounds.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * (rounds.len() - 1) as f64).round() as usize;
        Some(rounds[rank])
    }

    /// Median completion round among completed runs (nearest rank).
    pub fn median_rounds(&self) -> Option<u64> {
        self.quantile_rounds(0.5)
    }

    /// 95th-percentile completion round among completed runs (nearest
    /// rank) — the tail the paper's with-high-probability bounds speak to,
    /// where `worst_rounds` alone is too noisy across small sweeps.
    pub fn p95_rounds(&self) -> Option<u64> {
        self.quantile_rounds(0.95)
    }

    /// One-line aggregate report (the bench table cell).
    pub fn report(&self) -> String {
        let completed = self.runs.len() - self.failures().len();
        match (self.best_rounds(), self.mean_rounds(), self.worst_rounds()) {
            (Some(best), Some(mean), Some(worst)) => {
                let cap = self.runs.iter().map(|r| r.outcome.cap).max().unwrap_or(0);
                let median = self.median_rounds().unwrap_or(worst);
                let p95 = self.p95_rounds().unwrap_or(worst);
                format!(
                    "{}: {completed}/{} seeds completed; rounds min/median/mean/p95/max = \
                     {best}/{median}/{mean:.0}/{p95}/{worst} (cap {cap})",
                    self.label,
                    self.runs.len(),
                )
            }
            _ => format!("{}: 0/{} seeds completed", self.label, self.runs.len()),
        }
    }
}

/// A declarative run description: topology + workload + the shared knobs
/// (params, collision mode, pacing, seed, round cap). Build one with
/// [`Scenario::new`], chain the setters, then [`Scenario::run`] it or sweep
/// [`Scenario::seeds`]. See the module docs for the entry-point table.
#[derive(Clone, Debug)]
pub struct Scenario {
    topology: TopologySpec,
    workload: Workload,
    source: NodeId,
    params: Option<Params>,
    mode: Option<CollisionMode>,
    pacing: Pacing,
    seed: u64,
    round_cap: Option<u64>,
    faults: FaultPlan,
    fec_repair: u32,
}

impl Scenario {
    /// A scenario with the default knobs: source node 0,
    /// [`Params::scaled`] for the built graph's size, the workload's
    /// canonical collision mode, [`Pacing::Segment`], seed 0, and the
    /// workload's default round cap.
    pub fn new(topology: TopologySpec, workload: Workload) -> Self {
        Scenario {
            topology,
            workload,
            source: NodeId::new(0),
            params: None,
            mode: None,
            pacing: Pacing::Segment,
            seed: 0,
            round_cap: None,
            faults: FaultPlan::none(),
            fec_repair: 0,
        }
    }

    /// Sets the source node (default: node 0).
    pub fn source(mut self, source: NodeId) -> Self {
        self.source = source;
        self
    }

    /// Overrides the derived [`Params::scaled`] constants.
    pub fn params(mut self, params: Params) -> Self {
        self.params = Some(params);
        self
    }

    /// Overrides the workload's canonical collision mode (Theorems 1.1/1.3
    /// default to [`CollisionMode::Detection`]; Theorem 1.2 and the
    /// baselines to [`CollisionMode::NoDetection`]).
    pub fn collision_mode(mut self, mode: CollisionMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Sets the driver pacing of the adaptive pipelines
    /// ([`Pacing::PerStep`] reproduces the batched run round for round with
    /// every node polled; used by the equivalence suites).
    pub fn pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Sets the master seed (default 0). [`Scenario::seeds`] ignores this
    /// and sweeps its own range.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the hard round cap of the non-adaptive workloads
    /// ([`Workload::MultiKnown`]: default 1M rounds; baselines: default 5M).
    /// The adaptive pipelines derive their cap from the paper's plan
    /// (`total_rounds()`) and ignore this knob.
    pub fn round_cap(mut self, cap: u64) -> Self {
        self.round_cap = Some(cap);
        self
    }

    /// Applies a seeded adversarial [`FaultPlan`] (packet erasure, jammers,
    /// churn, mobility — see [`radio_sim::engine::faults`]) to every
    /// workload of this scenario, including the baselines.
    ///
    /// Fault randomness comes from dedicated streams of the master seed, so
    /// [`FaultPlan::none`] (the default) keeps every run bit-identical to
    /// the fault-free facade, and [`Scenario::seeds`] sweeps stay
    /// deterministic per seed.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the ring-handoff FEC repair aggressiveness of
    /// [`Workload::MultiUnknown`] runs — optional erasure protection for
    /// lossy fault plans. Other workloads ignore the knob.
    ///
    /// `0` (the default) keeps the paper's handoff emission: boundary nodes
    /// gate fountain packets on the full decay cycle. A positive value `r`
    /// compresses that gate to its `r` highest-probability slots, so boundary
    /// nodes emit RLNC repair packets (the in-tree `rlnc` fountain) much more
    /// often — redundancy that buys erasure protection at the dissemination
    /// windows' hand-off seams. The number of RNG draws per slot is
    /// unchanged, so `0` is bit-identical to the pre-knob pipeline.
    pub fn fec_repair(mut self, fec_repair: u32) -> Self {
        self.fec_repair = fec_repair;
        self
    }

    /// The topology spec.
    pub fn topology(&self) -> &TopologySpec {
        &self.topology
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// `topology/workload`, the label under which sweeps report; scenarios
    /// with a fault plan append `+<plan label>` (e.g.
    /// `grid(6x6)/multi_unknown+erase(0.2)`), so fault-free labels are
    /// byte-identical to what they were before the fault layer existed.
    pub fn label(&self) -> String {
        if self.faults.is_none() {
            format!("{}/{}", self.topology.label(), self.workload.kind())
        } else {
            format!("{}/{}+{}", self.topology.label(), self.workload.kind(), self.faults.label())
        }
    }

    /// Checks that the scenario can run, reading the spec alone: nothing is
    /// built, so a front end can reject a request before any run starts.
    /// The error is the reason, the same text [`Scenario::run`] panics with.
    ///
    /// A valid scenario has a non-empty topology that contains its source;
    /// a positive radius and an edge probability in `[0, 1]`; jammers on
    /// nodes of the topology; churn, mobility and [`Workload::MultiKnown`]
    /// only over materialized specs (a streamed topology can neither rewrite
    /// its adjacency nor hand out the global structure a centralized GST
    /// build needs); and, for multi-message workloads, at least one message,
    /// all of one bit length.
    pub fn validate(&self) -> Result<(), String> {
        let nodes = self.topology.node_count();
        if self.source.index() >= nodes {
            return Err(format!(
                "source {} is not a node of a {nodes}-node topology",
                self.source.index()
            ));
        }
        match self.topology {
            TopologySpec::UnitDisk { radius, .. }
            | TopologySpec::StreamedUnitDisk { radius, .. }
                if radius.is_nan() || radius <= 0.0 =>
            {
                return Err(format!("unit-disk radius {radius} must be positive"));
            }
            TopologySpec::Gnp { p, .. } | TopologySpec::StreamedGnp { p, .. }
                if !(0.0..=1.0).contains(&p) =>
            {
                return Err(format!("edge probability {p} must be in [0, 1]"));
            }
            _ => {}
        }
        if let Some(jammer) = self.faults.jammers.iter().find(|j| j.node as usize >= nodes) {
            return Err(format!(
                "jammer node {} is not a node of a {nodes}-node topology",
                jammer.node
            ));
        }
        let streamed = matches!(
            self.topology,
            TopologySpec::StreamedGrid { .. }
                | TopologySpec::StreamedUnitDisk { .. }
                | TopologySpec::StreamedGnp { .. }
        );
        if streamed && (self.faults.churn.is_some() || self.faults.mobility.is_some()) {
            return Err("churn/mobility fault plans rewrite the topology and need a \
                        materialized graph; streamed topologies support erasure and \
                        jammer faults only"
                .into());
        }
        let messages = match &self.workload {
            Workload::MultiKnown { .. } if streamed => {
                return Err("Workload::MultiKnown builds its GST centrally from global \
                            topology knowledge and needs a materialized graph; streamed \
                            topologies support Single, MultiUnknown and Baseline workloads"
                    .into())
            }
            Workload::MultiKnown { messages, .. } | Workload::MultiUnknown { messages, .. } => {
                messages
            }
            Workload::Single { .. } | Workload::Baseline(_) => return Ok(()),
        };
        match messages.first() {
            None => Err("a multi-message workload needs at least one message".into()),
            Some(first) if messages.iter().any(|m| m.len() != first.len()) => {
                Err("the messages of a multi-message workload must all have one bit length".into())
            }
            Some(_) => Ok(()),
        }
    }

    /// Panics with the [`Scenario::validate`] reason of an invalid scenario.
    fn assert_valid(&self) {
        if let Err(reason) = self.validate() {
            panic!("{reason}");
        }
    }

    /// Builds the topology and runs the workload once under the configured
    /// seed. Materialized specs build a CSR graph (shared, not re-cloned,
    /// across the run); `Streamed*` specs run the engine directly over the
    /// implicit topology — `O(active frontier)` resident state instead of
    /// `O(m)`.
    ///
    /// # Panics
    ///
    /// Panics with the [`Scenario::validate`] reason if the scenario is
    /// invalid.
    pub fn run(&self) -> Outcome {
        self.run_seed(&self.prepare(), self.seed)
    }

    /// Builds the topology once and runs the workload for every seed in
    /// `seeds`, aggregating into a [`SeedMatrix`]. The built topology is
    /// kept across the sweep: materialized graphs are shared by `Arc` (no
    /// per-seed CSR clone); a streamed topology's spatial index is built
    /// once and each run gets its own clone of it.
    ///
    /// Takes any seed sequence — a range (`0..64`), an explicit list
    /// (`[3, 1, 4]`, what service requests carry), or any other
    /// `IntoIterator<Item = u64>`. Runs land in iteration order; duplicate
    /// seeds are allowed (each is an independent run at its own
    /// [`SeedRun::order`]).
    pub fn seeds<I: IntoIterator<Item = u64>>(&self, seeds: I) -> SeedMatrix {
        let prepared = self.prepare();
        let runs = seeds
            .into_iter()
            .enumerate()
            .map(|(order, seed)| SeedRun {
                order: order as u64,
                seed,
                outcome: self.run_seed(&prepared, seed),
            })
            .collect();
        SeedMatrix { label: self.label(), runs }
    }

    /// Builds this scenario's topology once, in its natural representation,
    /// for repeated [`Scenario::run_seed`] calls — the per-worker cache of a
    /// parallel sweep executor. Streamed specs stay implicit (the spatial
    /// index is built once, and each run clones it); everything else
    /// materializes once into a shared [`Arc<Graph>`], cloned per run in
    /// `O(1)`.
    ///
    /// The prepared topology is **not** `Sync`: a streamed topology's only
    /// mutable state is the single-threaded buffer it computes
    /// neighborhoods into. Each worker thread prepares its own. Builds are
    /// deterministic, so every worker's copy is identical and runs stay
    /// bit-identical to the serial sweep.
    ///
    /// # Panics
    ///
    /// Panics with the [`Scenario::validate`] reason if the scenario is
    /// invalid.
    pub fn prepare(&self) -> PreparedTopology {
        self.assert_valid();
        PreparedTopology(match (&self.topology, self.topology.streamed()) {
            (_, Some(streamed)) => BuiltTopology::Streamed(streamed),
            (TopologySpec::Custom(g), None) => BuiltTopology::Dense(Arc::clone(g)),
            (spec, None) => BuiltTopology::Dense(Arc::new(spec.build())),
        })
    }

    /// Runs the workload once under `seed` on a topology prepared by
    /// [`Scenario::prepare`] — the single-job entry point a sweep executor
    /// fans out. `scenario.run_seed(&scenario.prepare(), s)` is bit-identical
    /// to `scenario.seed(s).run()`.
    ///
    /// # Panics
    ///
    /// Panics with the [`Scenario::validate`] reason if the scenario is
    /// invalid.
    pub fn run_seed(&self, prepared: &PreparedTopology, seed: u64) -> Outcome {
        self.assert_valid();
        match &prepared.0 {
            BuiltTopology::Dense(g) => self.run_seed_on(g, seed),
            BuiltTopology::Streamed(t) => self.run_seed_on(t, seed),
        }
    }

    /// Runs the workload on a built topology. The topology only changes
    /// *where* neighborhoods come from, never what they contain, so a
    /// streamed run is bit-identical to the run over its materialization.
    fn run_seed_on<T: Topology + Clone>(&self, topo: &T, seed: u64) -> Outcome {
        let params = self.params.clone().unwrap_or_else(|| Params::scaled(topo.node_count()));
        let mode = self.mode.unwrap_or_else(|| self.workload.default_mode());
        let (source, pacing, faults) = (self.source, self.pacing, &self.faults);
        match &self.workload {
            Workload::Single { payload } => single_message::driver(
                topo.clone(),
                source,
                *payload,
                &params,
                seed,
                mode,
                pacing,
                faults,
            )
            .run(),
            Workload::MultiUnknown { messages, batch } => multi_message::driver(
                topo.clone(),
                source,
                messages,
                &params,
                seed,
                *batch,
                mode,
                pacing,
                self.fec_repair,
                faults,
            )
            .run(),
            Workload::MultiKnown { messages, slow_key, empty } => {
                let cfg =
                    ScheduleConfig { log_n: params.log_n, slow_key: *slow_key, empty: *empty };
                self.run_known(topo, cfg, mode, seed, messages)
            }
            Workload::Baseline(algo) => self.run_baseline(topo, &params, mode, seed, *algo),
        }
    }

    /// Theorem 1.2: builds the GST and virtual distances centrally from the
    /// *initial* topology (the shared-knowledge model fixes them before the
    /// adversary acts; churn and mobility then degrade the live channel
    /// against that fixed schedule), then runs the MMV schedule with RLNC
    /// until every node decodes every message or the cap elapses.
    fn run_known<T: Topology + Clone>(
        &self,
        topo: &T,
        cfg: ScheduleConfig,
        mode: CollisionMode,
        seed: u64,
        messages: &[BitVec],
    ) -> Outcome {
        let graph = topo.as_graph().expect("validated: Theorem 1.2 runs on a materialized graph");
        let mut rng = stream_rng(seed, 1000);
        let (tree, _) = gst::build_gst(
            graph,
            &[self.source],
            &mut rng,
            &gst::BuildConfig::for_nodes(graph.node_count()),
        );
        let vd = gst::VirtualDistances::compute(graph, &tree);
        let (k, bits) = (messages.len(), messages[0].len());
        let mut sim =
            Simulator::new_with_faults(topo.clone(), mode, seed, self.faults.clone(), |id| {
                let node =
                    MmvScheduleNode::new(cfg, SchedLabels::from_gst(&tree, &vd, id), k, bits);
                if id == self.source {
                    node.with_messages(messages)
                } else {
                    node
                }
            });
        let cap = self.round_cap.unwrap_or(KNOWN_ROUND_CAP);
        let detail = Detail::MultiKnown { slow_key: cfg.slow_key, empty: cfg.empty };
        let mut out = run_flat(&mut sim, cap, MmvScheduleNode::is_complete, detail);
        for n in sim.nodes() {
            out.audit.absorb(n.audit());
        }
        out
    }

    /// Runs a baseline comparator with the wiring the hand-rolled
    /// comparison loops used.
    fn run_baseline<T: Topology + Clone>(
        &self,
        topo: &T,
        params: &Params,
        mode: CollisionMode,
        seed: u64,
        algo: Algo,
    ) -> Outcome {
        let cap = self.round_cap.unwrap_or(BASELINE_ROUND_CAP);
        let (source, detail) = (self.source, Detail::Baseline { algo });
        match algo {
            Algo::Decay { payload } => {
                let mut sim = Simulator::new_with_faults(
                    topo.clone(),
                    mode,
                    seed,
                    self.faults.clone(),
                    |id| DecayBroadcast::new(params, (id == source).then_some(DecayMsg(payload))),
                );
                run_flat(&mut sim, cap, DecayBroadcast::is_informed, detail)
            }
            Algo::MmvDecay { payload, noise } => {
                let layering = bfs_layering(topo, &[source]);
                let levels: Vec<u32> =
                    (0..topo.node_count()).map(|i| layering.level(NodeId::new(i))).collect();
                let mut sim = Simulator::new_with_faults(
                    topo.clone(),
                    mode,
                    seed,
                    self.faults.clone(),
                    |id| {
                        MmvDecayBroadcast::new(
                            params,
                            levels[id.index()],
                            noise,
                            (id == source).then_some(payload),
                        )
                    },
                );
                run_flat(&mut sim, cap, MmvDecayBroadcast::is_informed, detail)
            }
        }
    }
}

/// Runs a non-adaptive simulation — Theorem 1.2 or a baseline — until every
/// node is `done` or `cap` rounds elapse. Completion only advances when a
/// node receives a packet, so [`Simulator::run_until`]'s reception-gated
/// check is exact and skips the `O(n)` predicate scan in silent rounds.
/// These runs have no setup phases, so every executed round counts as
/// dissemination (`phases.total() == stats.rounds` holds across all
/// workloads), and their nodes carry full state for the whole run, so the
/// peak is the steady state: the topology plus one node shell each. The
/// audit is left empty.
fn run_flat<P: Protocol, T: Topology>(
    sim: &mut Simulator<P, T>,
    cap: u64,
    done: impl Fn(&P) -> bool,
    detail: Detail,
) -> Outcome {
    let completion_round = sim.run_until(cap, |nodes| nodes.iter().all(&done));
    let stats = sim.stats().clone();
    Outcome {
        completion_round,
        cap,
        phases: Phases { disseminate: stats.rounds, ..Phases::default() },
        stats,
        audit: SchedAudit::default(),
        peak_state_bytes: sim.graph().resident_bytes() + std::mem::size_of_val(sim.nodes()),
        detail,
    }
}

/// A spec's topology in the representation [`Scenario::run`] executes on:
/// materialized specs share one CSR graph behind an [`Arc`] (cloned per run
/// in `O(1)`), streamed specs keep the implicit generator.
enum BuiltTopology {
    /// A materialized, shared CSR graph.
    Dense(Arc<Graph>),
    /// A streamed topology; neighborhoods are computed on demand.
    Streamed(ImplicitGraph),
}

/// An opaque pre-built topology for repeated single-seed runs — what
/// [`Scenario::seeds`] caches internally and what a parallel sweep worker
/// holds per scenario. Build with [`Scenario::prepare`], consume with
/// [`Scenario::run_seed`].
pub struct PreparedTopology(BuiltTopology);

impl std::fmt::Debug for PreparedTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            BuiltTopology::Dense(g) => {
                write!(f, "PreparedTopology::Dense({} nodes)", g.node_count())
            }
            BuiltTopology::Streamed(t) => {
                write!(f, "PreparedTopology::Streamed({} nodes)", t.node_count())
            }
        }
    }
}

/// One unit of sweep work: run scenario number `scenario` (an index into
/// the executor's scenario list) under `seed`, and file the outcome at
/// serial position `order` of that scenario's [`SeedMatrix`]. The job
/// descriptor a parallel executor hands to a worker and reports with the
/// job's outcome — plain data, copied freely between threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepJob {
    /// Index of the scenario in the sweep's scenario list.
    pub scenario: usize,
    /// Serial position in that scenario's seed sequence ([`SeedRun::order`]).
    pub order: u64,
    /// The master seed to run.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_build_expected_sizes() {
        assert_eq!(TopologySpec::Path { n: 9 }.build().node_count(), 9);
        assert_eq!(TopologySpec::Grid { w: 3, h: 4 }.build().node_count(), 12);
        assert_eq!(TopologySpec::Star { n: 7 }.build().node_count(), 7);
        assert_eq!(TopologySpec::ClusterChain { clusters: 3, size: 4 }.build().node_count(), 12);
        assert_eq!(TopologySpec::BinaryTree { n: 15 }.build().node_count(), 15);
        let u = TopologySpec::UnitDisk { n: 20, radius: 0.5, graph_seed: 3 };
        assert_eq!(u.build().node_count(), 20);
        let g = TopologySpec::Gnp { n: 16, p: 0.3, graph_seed: 4 };
        assert_eq!(g.build().node_count(), 16);
    }

    #[test]
    fn node_count_matches_the_built_graph() {
        let specs = [
            TopologySpec::Path { n: 9 },
            TopologySpec::Grid { w: 3, h: 4 },
            TopologySpec::Star { n: 7 },
            TopologySpec::ClusterChain { clusters: 3, size: 4 },
            TopologySpec::BinaryTree { n: 15 },
            TopologySpec::UnitDisk { n: 20, radius: 0.5, graph_seed: 3 },
            TopologySpec::Gnp { n: 16, p: 0.3, graph_seed: 4 },
            TopologySpec::custom(generators::path(5)),
            TopologySpec::StreamedGrid { w: 5, h: 2 },
            TopologySpec::StreamedUnitDisk { n: 30, radius: 0.4, graph_seed: 1 },
            TopologySpec::StreamedGnp { n: 12, p: 0.5, graph_seed: 2 },
        ];
        for spec in specs {
            assert_eq!(spec.node_count(), spec.build().node_count(), "{}", spec.label());
        }
        assert_eq!(TopologySpec::Path { n: 0 }.node_count(), 0);
    }

    #[test]
    fn randomized_specs_build_deterministically() {
        let spec = TopologySpec::UnitDisk { n: 30, radius: 0.3, graph_seed: 11 };
        let (a, b) = (spec.build(), spec.build());
        assert_eq!(a.edge_count(), b.edge_count(), "same spec must build the same graph");
    }

    #[test]
    fn baseline_decay_runs_and_reports_phases() {
        let s = Scenario::new(
            TopologySpec::ClusterChain { clusters: 3, size: 4 },
            Workload::Baseline(Algo::Decay { payload: 5 }),
        )
        .seed(1);
        let out = s.run();
        assert!(out.completion_round.is_some());
        assert!(out.completed_within_cap());
        assert_eq!(out.phases.total(), out.stats.rounds);
        assert!(matches!(out.detail, Detail::Baseline { algo: Algo::Decay { payload: 5 } }));
    }

    #[test]
    fn baseline_mmv_decay_runs_with_and_without_noise() {
        for noise in [false, true] {
            let s = Scenario::new(
                TopologySpec::Grid { w: 4, h: 4 },
                Workload::Baseline(Algo::MmvDecay { payload: 9, noise }),
            )
            .seed(2);
            let out = s.run();
            assert!(out.completion_round.is_some(), "noise={noise} failed");
        }
    }

    #[test]
    fn seed_matrix_aggregates() {
        let m = Scenario::new(
            TopologySpec::Path { n: 10 },
            Workload::Baseline(Algo::Decay { payload: 1 }),
        )
        .seeds(0..3);
        assert_eq!(m.len(), 3);
        assert!(m.all_completed(), "failures: {:?}", m.failures());
        assert!(m.all_within_caps());
        let (best, worst) = (m.best_rounds().unwrap(), m.worst_rounds().unwrap());
        assert!(best <= worst);
        let mean = m.mean_rounds().unwrap();
        assert!(best as f64 <= mean && mean <= worst as f64);
        assert!(m.report().contains("3/3 seeds completed"), "report: {}", m.report());
    }

    #[test]
    fn round_cap_override_applies_to_capped_workloads() {
        // A cap too small to finish: the run must stop at the cap and
        // report no completion rather than running to the default.
        let s = Scenario::new(
            TopologySpec::Path { n: 16 },
            Workload::Baseline(Algo::Decay { payload: 1 }),
        )
        .round_cap(2)
        .seed(0);
        let out = s.run();
        assert_eq!(out.cap, 2);
        assert!(out.completion_round.is_none());
        assert!(out.stats.rounds <= 2);
    }

    #[test]
    fn labels_are_stable() {
        let s = Scenario::new(
            TopologySpec::UnitDisk { n: 80, radius: 0.18, graph_seed: 2024 },
            Workload::Single { payload: 1 },
        );
        assert_eq!(s.label(), "unit_disk(80,r=0.18,g=2024)/single");
        let s = Scenario::new(
            TopologySpec::ClusterChain { clusters: 20, size: 6 },
            Workload::MultiUnknown {
                messages: vec![BitVec::from_u64(1, 8)],
                batch: BatchMode::FullK,
            },
        );
        assert_eq!(s.label(), "cluster_chain(20x6)/multi_unknown");
    }

    #[test]
    fn faulted_labels_are_stable() {
        let s = Scenario::new(TopologySpec::Grid { w: 6, h: 6 }, Workload::Single { payload: 1 })
            .faults(FaultPlan::none().with_erasure(0.2).with_jammer(3, 2, 0));
        assert_eq!(s.label(), "grid(6x6)/single+erase(0.2)+jam(n3,p2+0)");
        // A plan that is set but empty must not perturb the label.
        let s = Scenario::new(TopologySpec::Path { n: 4 }, Workload::Single { payload: 1 })
            .faults(FaultPlan::none());
        assert_eq!(s.label(), "path(4)/single");
    }

    #[test]
    fn none_faults_are_bit_identical_through_the_facade() {
        let clean = Scenario::new(
            TopologySpec::ClusterChain { clusters: 3, size: 4 },
            Workload::Single { payload: 0xF00D },
        )
        .seed(5)
        .run();
        let faulted = Scenario::new(
            TopologySpec::ClusterChain { clusters: 3, size: 4 },
            Workload::Single { payload: 0xF00D },
        )
        .seed(5)
        .faults(FaultPlan::none())
        .run();
        assert_eq!(clean.completion_round, faulted.completion_round);
        assert_eq!(clean.stats, faulted.stats);
    }

    #[test]
    fn faulted_baseline_degrades_but_stays_deterministic() {
        let run = || {
            Scenario::new(
                TopologySpec::ClusterChain { clusters: 3, size: 4 },
                Workload::Baseline(Algo::Decay { payload: 5 }),
            )
            .seed(1)
            .round_cap(200_000)
            .faults(FaultPlan::none().with_erasure(0.3))
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completion_round, b.completion_round);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.erased > 0, "erasure never fired: {:?}", a.stats);
    }
}
