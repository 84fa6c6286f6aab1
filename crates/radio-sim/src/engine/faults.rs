//! Seeded adversarial channel faults.
//!
//! A [`FaultPlan`] is a declarative, per-round adversary applied inside the
//! [`Simulator`](super::Simulator) act/observe path. Four fault classes are
//! modelled, all deterministic in the run's master seed:
//!
//! * **erasure** — every transmitted packet copy is erased independently per
//!   receiving edge with probability `p` (a per-edge Bernoulli channel; an
//!   erased copy contributes neither a delivery nor a collision at that
//!   receiver). One stream draws the coins in transmit-list order, and within
//!   a transmission in ascending receiver id: the engine sorts a copy of any
//!   neighborhood its topology lists in another order, so a coin falls on the
//!   same edge over a streamed topology and over its materialization;
//! * **jamming** — designated [`Jammer`] nodes host a co-located interferer
//!   that injects energy on a fixed schedule: every neighbor of an active
//!   jammer sees two extra virtual transmitters that round, so its channel
//!   resolves to a collision (observed as `⊤` with collision detection,
//!   silence without);
//! * **churn** — on a fixed period, every node and every base edge
//!   independently *toggles* between up and down (a down node's radio is
//!   disconnected: it keeps executing its protocol but no packets cross its
//!   edges in either direction);
//! * **mobility** — the deployment is mobile: every `epoch` rounds all node
//!   positions are re-sampled uniformly in the unit square and the topology
//!   is rebuilt as a unit-disk graph of the given radius.
//!
//! Fault randomness is drawn from dedicated RNG streams derived with a salt
//! distinct from the protocol streams (see [`crate::rng::fault_stream_rng`]),
//! so a run with [`FaultPlan::none`] — or any all-no-op plan — executes a
//! protocol trace bit-identical to a run without the fault layer.

use crate::graph::{generators, Graph};
use crate::rng;
use rand::rngs::SmallRng;
use rand::Rng;

/// `u64::MAX` sentinel: the plan schedules no (further) topology/jam event.
pub(crate) const NO_EVENT: u64 = u64::MAX;

/// A jammer: a co-located interferer at `node` that is active in every round
/// `r` with `r % period == offset`.
///
/// The host node's own protocol keeps running unaffected (the jammer is
/// modelled as a separate device at the same position); the interference
/// hits the host's *neighbors*, whose channel collides for that round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Jammer {
    /// The node the jammer is co-located with.
    pub node: u32,
    /// Activation period in rounds (`>= 1`).
    pub period: u64,
    /// Activation phase within the period (`< period`).
    pub offset: u64,
}

impl Jammer {
    /// Whether the jammer injects interference in `round`.
    #[inline]
    pub fn active(&self, round: u64) -> bool {
        round % self.period == self.offset
    }

    /// The first active round `>= round`.
    fn next_active(&self, round: u64) -> u64 {
        let rem = round % self.period;
        if rem <= self.offset {
            round + (self.offset - rem)
        } else {
            round + (self.period - rem) + self.offset
        }
    }
}

/// Periodic node/edge churn: every `period` rounds (at rounds `period`,
/// `2·period`, …) each node toggles its up/down state with probability
/// `node_p` and each base edge with probability `edge_p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Churn {
    /// Rounds between churn events (`>= 1`; `1` = per-round churn).
    pub period: u64,
    /// Per-event toggle probability of each node.
    pub node_p: f64,
    /// Per-event toggle probability of each base edge.
    pub edge_p: f64,
}

/// Mobile unit-disk deployment: every `epoch` rounds (at rounds `epoch`,
/// `2·epoch`, …) all positions are re-sampled uniformly in the unit square
/// and the topology becomes the unit-disk graph of the given radius
/// (isolated components stitched, exactly like
/// [`generators::unit_disk`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mobility {
    /// Unit-disk connection radius.
    pub radius: f64,
    /// Rounds between re-samplings (`>= 1`).
    pub epoch: u64,
}

/// A declarative, seeded per-round adversary. Build with [`FaultPlan::none`]
/// plus the `with_*` setters; hand to
/// [`Simulator::new_with_faults`](super::Simulator::new_with_faults).
///
/// All fault randomness comes from dedicated streams of the run's master
/// seed ([`crate::rng::fault_stream_rng`]), independent of every protocol
/// stream: enabling one fault class never shifts another's draws, and a
/// no-op plan leaves the protocol trace bit-identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-edge packet erasure probability, if enabled.
    pub erasure: Option<f64>,
    /// Scheduled jammer nodes.
    pub jammers: Vec<Jammer>,
    /// Periodic node/edge churn, if enabled.
    pub churn: Option<Churn>,
    /// Mobile unit-disk re-sampling, if enabled.
    pub mobility: Option<Mobility>,
}

impl FaultPlan {
    /// The empty plan: no faults. Guaranteed bit-identical traces to a
    /// simulator constructed without the fault layer.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Enables per-edge packet erasure with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_erasure(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "erasure probability {p} out of [0, 1]");
        self.erasure = Some(p);
        self
    }

    /// Adds a jammer at `node`, active whenever `round % period == offset`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `offset >= period`.
    pub fn with_jammer(mut self, node: u32, period: u64, offset: u64) -> Self {
        assert!(period >= 1, "jammer period must be >= 1");
        assert!(offset < period, "jammer offset {offset} must be < period {period}");
        self.jammers.push(Jammer { node, period, offset });
        self
    }

    /// Enables periodic node/edge churn.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or a probability is not in `[0, 1]`.
    pub fn with_churn(mut self, period: u64, node_p: f64, edge_p: f64) -> Self {
        assert!(period >= 1, "churn period must be >= 1");
        assert!((0.0..=1.0).contains(&node_p), "node churn probability {node_p} out of [0, 1]");
        assert!((0.0..=1.0).contains(&edge_p), "edge churn probability {edge_p} out of [0, 1]");
        self.churn = Some(Churn { period, node_p, edge_p });
        self
    }

    /// Enables mobile unit-disk re-sampling every `epoch` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `epoch == 0` or `radius <= 0`.
    pub fn with_mobility(mut self, radius: f64, epoch: u64) -> Self {
        assert!(epoch >= 1, "mobility epoch must be >= 1");
        assert!(radius > 0.0, "mobility radius must be positive");
        self.mobility = Some(Mobility { radius, epoch });
        self
    }

    /// Whether this is the empty plan (no fault class enabled).
    ///
    /// Note: a plan with e.g. erasure at `p = 0` is *not* `is_none()` — it
    /// draws (and discards) fault randomness, but still executes the same
    /// protocol trace.
    pub fn is_none(&self) -> bool {
        self.erasure.is_none()
            && self.jammers.is_empty()
            && self.churn.is_none()
            && self.mobility.is_none()
    }

    /// A stable machine-readable label (joined into scenario labels): `none`,
    /// or `+`-joined fault terms like
    /// `erase(0.05)+jam(n3,p2+0)+churn(1,n0.005,e0.01)+mobile(r0.2,e64)`.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if let Some(p) = self.erasure {
            parts.push(format!("erase({p})"));
        }
        for j in &self.jammers {
            parts.push(format!("jam(n{},p{}+{})", j.node, j.period, j.offset));
        }
        if let Some(c) = self.churn {
            parts.push(format!("churn({},n{},e{})", c.period, c.node_p, c.edge_p));
        }
        if let Some(m) = self.mobility {
            parts.push(format!("mobile(r{},e{})", m.radius, m.epoch));
        }
        parts.join("+")
    }
}

/// Fault RNG sub-stream indices (of [`crate::rng::fault_stream_rng`]). Each
/// fault class owns a stream, so enabling one class never shifts another's
/// draw sequence.
const STREAM_ERASURE: u64 = 0;
const STREAM_CHURN: u64 = 1;
const STREAM_MOBILITY: u64 = 2;

/// Live fault state of one simulator: the plan plus its RNG streams and the
/// up/down masks over the current base topology.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) erasure_rng: SmallRng,
    churn_rng: SmallRng,
    mobility_rng: SmallRng,
    /// The fault-free topology churn masks apply to (re-sampled by
    /// mobility).
    base_edges: Vec<(u32, u32)>,
    node_down: Vec<bool>,
    edge_down: Vec<bool>,
}

impl FaultState {
    /// Builds the fault state for a simulator over an `n`-node topology
    /// seeded with the master `seed`. `base_edges` is the fault-free edge list
    /// that churn masks and mobility re-samples apply to; plans without
    /// either class never read it, so the engine passes an empty list (and
    /// streamed topologies, which cannot harvest one, stay supported for
    /// erasure/jammer plans).
    ///
    /// # Panics
    ///
    /// Panics if a jammer's node is out of bounds for the topology.
    pub(crate) fn new(plan: FaultPlan, seed: u64, n: usize, base_edges: Vec<(u32, u32)>) -> Self {
        for j in &plan.jammers {
            assert!(
                (j.node as usize) < n,
                "jammer node {} out of bounds for {n}-node graph",
                j.node
            );
        }
        let edge_down = vec![false; base_edges.len()];
        FaultState {
            plan,
            erasure_rng: rng::fault_stream_rng(seed, STREAM_ERASURE),
            churn_rng: rng::fault_stream_rng(seed, STREAM_CHURN),
            mobility_rng: rng::fault_stream_rng(seed, STREAM_MOBILITY),
            base_edges,
            node_down: vec![false; n],
            edge_down,
        }
    }

    /// The earliest round `>= round` with a scheduled (non-erasure) fault
    /// event — a jam, churn or mobility round — or [`NO_EVENT`]. Such rounds
    /// must be stepped, never fast-forwarded: jams can wake sleepers and
    /// churn/mobility must draw their randomness in round order. Erasure
    /// needs no clamp (it only draws when somebody transmits, and
    /// fast-forwarded rounds are transmission-free on every path).
    pub(crate) fn next_event_round(&self, round: u64) -> u64 {
        let mut next = NO_EVENT;
        for j in &self.plan.jammers {
            next = next.min(j.next_active(round));
        }
        if let Some(c) = self.plan.churn {
            next = next.min(next_multiple(round, c.period));
        }
        if let Some(m) = self.plan.mobility {
            next = next.min(next_multiple(round, m.epoch));
        }
        next
    }

    /// Applies the topology faults scheduled for `round` (mobility first,
    /// then churn), returning the rebuilt current graph (if any flip or
    /// re-sample happened) and the number of churn events (mask toggles +
    /// re-samples).
    pub(crate) fn apply_topology(&mut self, round: u64, n: usize) -> (Option<Graph>, usize) {
        let mut events = 0usize;
        let mut rebuild = false;
        if let Some(m) = self.plan.mobility {
            if round > 0 && round % m.epoch == 0 {
                let g = generators::unit_disk(n, m.radius, &mut self.mobility_rng);
                self.base_edges = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
                // New edges, fresh masks; node outages persist across moves.
                self.edge_down = vec![false; self.base_edges.len()];
                events += 1;
                rebuild = true;
            }
        }
        if let Some(c) = self.plan.churn {
            if round > 0 && round % c.period == 0 {
                // Fixed draw order — nodes 0..n, then base edges in order —
                // so the churn stream is identical on every engine path.
                for i in 0..n {
                    if self.churn_rng.gen_bool(c.node_p) {
                        self.node_down[i] = !self.node_down[i];
                        events += 1;
                        rebuild = true;
                    }
                }
                for e in 0..self.base_edges.len() {
                    if self.churn_rng.gen_bool(c.edge_p) {
                        self.edge_down[e] = !self.edge_down[e];
                        events += 1;
                        rebuild = true;
                    }
                }
            }
        }
        let graph = rebuild.then(|| self.current_graph(n));
        (graph, events)
    }

    /// The current topology: the base edges minus down edges and edges with
    /// a down endpoint. Node count never changes, so every engine buffer
    /// stays valid.
    pub(crate) fn current_graph(&self, n: usize) -> Graph {
        Graph::from_edges(
            n,
            self.base_edges.iter().enumerate().filter_map(|(e, &(u, v))| {
                (!self.edge_down[e] && !self.node_down[u as usize] && !self.node_down[v as usize])
                    .then_some((u, v))
            }),
        )
        .expect("base edges are valid for n nodes")
    }
}

/// The smallest positive multiple of `period` that is `>= round`.
fn next_multiple(round: u64, period: u64) -> u64 {
    round.max(1).div_ceil(period) * period
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Traversal;

    /// Builds a [`FaultState`] over a materialized graph, the way the engine
    /// does for churn/mobility-capable plans.
    fn state(plan: FaultPlan, seed: u64, g: &Graph) -> FaultState {
        let base = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
        FaultState::new(plan, seed, g.node_count(), base)
    }

    #[test]
    fn none_plan_is_none_and_labelled() {
        assert!(FaultPlan::none().is_none());
        assert_eq!(FaultPlan::none().label(), "none");
    }

    #[test]
    fn labels_are_stable() {
        let plan = FaultPlan::none()
            .with_erasure(0.05)
            .with_jammer(3, 2, 0)
            .with_churn(1, 0.005, 0.01)
            .with_mobility(0.2, 64);
        assert_eq!(plan.label(), "erase(0.05)+jam(n3,p2+0)+churn(1,n0.005,e0.01)+mobile(r0.2,e64)");
        assert!(!plan.is_none());
    }

    #[test]
    fn zero_probability_erasure_is_not_none() {
        // It still draws fault randomness (a no-op on the trace, pinned by
        // the engine tests), so the plan is not the empty plan.
        assert!(!FaultPlan::none().with_erasure(0.0).is_none());
    }

    #[test]
    fn jammer_next_active_is_exact() {
        let j = Jammer { node: 0, period: 5, offset: 2 };
        assert_eq!(j.next_active(0), 2);
        assert_eq!(j.next_active(2), 2);
        assert_eq!(j.next_active(3), 7);
        assert_eq!(j.next_active(7), 7);
        assert_eq!(j.next_active(8), 12);
        for r in 0..40 {
            let next = j.next_active(r);
            assert!(next >= r && j.active(next));
            for t in r..next {
                assert!(!j.active(t), "missed activation at {t}");
            }
        }
    }

    #[test]
    fn next_multiple_skips_round_zero() {
        assert_eq!(next_multiple(0, 4), 4);
        assert_eq!(next_multiple(1, 4), 4);
        assert_eq!(next_multiple(4, 4), 4);
        assert_eq!(next_multiple(5, 4), 8);
        assert_eq!(next_multiple(0, 1), 1);
    }

    #[test]
    fn next_event_round_covers_all_classes() {
        let g = generators::path(6);
        let plan = FaultPlan::none().with_jammer(1, 7, 3).with_churn(10, 0.1, 0.1);
        let f = state(plan, 0, &g);
        assert_eq!(f.next_event_round(0), 3);
        assert_eq!(f.next_event_round(4), 10);
        assert_eq!(f.next_event_round(11), 17);
        let none = state(FaultPlan::none().with_erasure(0.5), 0, &g);
        assert_eq!(none.next_event_round(0), NO_EVENT);
    }

    #[test]
    fn churn_masks_rebuild_valid_graphs() {
        let g = generators::cluster_chain(4, 4);
        let n = g.node_count();
        let mut f = state(FaultPlan::none().with_churn(1, 0.2, 0.2), 42, &g);
        for round in 1..50 {
            let (rebuilt, _) = f.apply_topology(round, n);
            if let Some(cur) = rebuilt {
                assert_eq!(cur.node_count(), n);
                // CSR symmetry: every directed arc has its reverse.
                for u in cur.node_ids() {
                    for &v in cur.neighbors(u) {
                        assert!(cur.has_edge(v, u), "asymmetric edge {u:?}-{v:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn down_node_is_isolated() {
        let g = generators::complete(5);
        let n = g.node_count();
        let mut f = state(FaultPlan::none().with_churn(1, 0.0, 0.0), 0, &g);
        f.node_down[2] = true;
        let cur = f.current_graph(n);
        assert_eq!(cur.degree(crate::NodeId::new(2)), 0);
        assert_eq!(cur.degree(crate::NodeId::new(0)), 3);
    }

    #[test]
    fn mobility_resamples_the_base_graph() {
        let g = generators::path(30);
        let n = g.node_count();
        let mut f = state(FaultPlan::none().with_mobility(0.4, 10), 7, &g);
        let (none, _) = f.apply_topology(5, n);
        assert!(none.is_none(), "no epoch boundary at round 5");
        let (some, events) = f.apply_topology(10, n);
        let moved = some.expect("epoch boundary rebuilds");
        assert_eq!(events, 1);
        assert_eq!(moved.node_count(), n);
        assert!(moved.is_connected(), "unit-disk resample is stitched connected");
    }

    #[test]
    fn fault_state_is_deterministic() {
        let g = generators::grid(5, 5);
        let n = g.node_count();
        let plan = FaultPlan::none().with_churn(2, 0.1, 0.1).with_mobility(0.3, 6);
        let run = |seed: u64| {
            let mut f = state(plan.clone(), seed, &g);
            (1..30).map(|r| f.apply_topology(r, n).1).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn jammer_out_of_bounds_is_rejected() {
        let g = generators::path(3);
        state(FaultPlan::none().with_jammer(3, 1, 0), 0, &g);
    }
}
