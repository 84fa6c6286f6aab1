//! The synchronous round engine.

pub mod faults;

use crate::graph::{Graph, Topology};
use crate::ids::NodeId;
use crate::model::{Action, CollisionMode, Observation, Packet};
use crate::rng;
use crate::trace::{RoundStats, RunStats};
use faults::{FaultPlan, FaultState};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// A wake hint returned by [`Protocol::next_wake`]: the earliest future round
/// in which this node might do something in `act`.
///
/// See [`Protocol::next_wake`] for the exact contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// The node must be polled in the very next round.
    Now,
    /// The node is guaranteed inert (listen, no RNG draw, no state change)
    /// in every round before the given round.
    At(u64),
    /// The node is inert until an observation changes its state.
    Idle,
}

/// A per-node protocol state machine.
///
/// Each round the engine calls [`Protocol::act`] on every node whose wake
/// hint ([`Protocol::next_wake`]) is due, resolves the radio channel, then
/// calls [`Protocol::observe`] on every listener that a transmission (or a
/// jam) reached. Both calls receive the node's private RNG stream, so runs
/// are deterministic in the master seed.
///
/// A node knows only what a real radio node would: its own state, its id (if
/// the implementation stores it at construction), and the observations it has
/// made. The engine never leaks topology through this trait.
pub trait Protocol {
    /// Packet type carried on the channel.
    type Msg: Clone;

    /// The wake hint: the earliest round `>= round` in which this node's
    /// [`Protocol::act`] might transmit, draw from its RNG, or change state.
    ///
    /// # Contract
    ///
    /// The engine calls this after any event that may have changed the
    /// node's state — construction, an `act` call, or an `observe` call —
    /// with `round` being the next round to be simulated. Returning
    /// [`Wake::At(r)`](Wake::At) with `r > round` (or [`Wake::Idle`])
    /// promises that for every round `t` in `round..r` (resp. every future
    /// round), `act(t)` would return [`Action::Listen`] **without** drawing
    /// from the RNG and **without** mutating any state. The engine then skips
    /// those `act` calls entirely (counted in [`RoundStats::act_skips`]), and
    /// [`Simulator::run_until`] fast-forwards runs of rounds in which every
    /// node sleeps in `O(1)` ([`RunStats::idle_fastforward`]).
    ///
    /// The promise only covers the node's current state: as soon as the node
    /// observes something, the engine re-queries the hint, so hints never
    /// need to anticipate future receptions. The default, [`Wake::Now`], is
    /// always safe: the node is polled every round.
    fn next_wake(&self, round: u64) -> Wake {
        let _ = round;
        Wake::Now
    }

    /// Chooses this node's action for `round` (0-based).
    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<Self::Msg>;

    /// Delivers the channel observation for `round` to a listener that at
    /// least one transmission (or jam) reached: an [`Observation::Message`]
    /// from exactly one, an [`Observation::Collision`] from two or more under
    /// [`CollisionMode::Detection`], and [`Observation::Silence`] for that
    /// collision without detection.
    ///
    /// Listeners that nothing reached and transmitters are not called
    /// (counted in [`RoundStats::observe_skips`]). An implementation must
    /// therefore treat `Silence` as nothing heard — no state change, no RNG
    /// draw — or it could tell a collision from silence without detection.
    fn observe(&mut self, round: u64, obs: Observation<Self::Msg>, rng: &mut SmallRng);
}

/// Wraps a protocol with its wake hints hidden: behavior, RNG usage and
/// channel statistics are unchanged, but the engine polls every node every
/// round.
///
/// The reference for the wake suites: they run every hinted protocol both
/// ways and assert bit-identical traces.
#[derive(Clone, Debug)]
pub struct DenseWrap<P>(pub P);

impl<P: Protocol> Protocol for DenseWrap<P> {
    type Msg = P::Msg;

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<Self::Msg> {
        self.0.act(round, rng)
    }

    fn observe(&mut self, round: u64, obs: Observation<Self::Msg>, rng: &mut SmallRng) {
        self.0.observe(round, obs, rng);
    }
}

/// Deterministic synchronous simulator of the radio network model.
///
/// Generic over its [`Topology`]: the default `T = Graph` simulates a
/// materialized CSR graph exactly as before, while `T = ImplicitGraph`
/// streams neighborhoods on demand so million-node runs never hold `O(m)`
/// adjacency in memory. The executed round sequence, statistics and RNG
/// streams depend only on the neighborhoods a topology reports, so a
/// streamed run is bit-identical to the same run over its materialization.
///
/// See the [crate docs](crate) for the model and a complete example.
pub struct Simulator<P: Protocol, T: Topology = Graph> {
    graph: T,
    mode: CollisionMode,
    nodes: Vec<P>,
    rngs: Vec<SmallRng>,
    round: u64,
    stats: RunStats,
    // Scratch buffers, kept across rounds to avoid per-round allocation.
    tx_count: Vec<u32>,
    tx_from: Vec<u32>,
    transmitted: Vec<bool>,
    /// This round's packet store: each transmission is wrapped in a shared
    /// [`Packet`] once, and every delivery hands out an `O(1)` handle clone.
    txs: Vec<(NodeId, Packet<P::Msg>)>,
    /// Nodes whose channel counter was touched this round.
    touched: Vec<u32>,
    /// Per-node scheduled wake round; `WAKE_IDLE` while unscheduled.
    wake_at: Vec<u64>,
    /// Near wake-queue: a timer wheel of [`WHEEL`] slots whose buckets are
    /// recycled across rounds (no steady-state allocation). A wake at round
    /// `t` scheduled while simulating round `r` goes into slot `t % WHEEL`
    /// when `t - r < WHEEL`; since every slot is drained before its round
    /// index repeats, entries can never alias to an earlier round. Entries
    /// whose `wake_at` no longer matches the drained round are stale and
    /// skipped (they only make the idle scan pessimistic, never wrong).
    wheel: Vec<Vec<u32>>,
    /// Far wake-queue: wake round -> nodes, for wakes at least [`WHEEL`]
    /// rounds ahead; drained directly when their round arrives.
    far_wakes: BTreeMap<u64, Vec<u32>>,
    /// Round at which every node is force-woken (see
    /// [`Simulator::wake_all`]); `WAKE_IDLE` when unarmed.
    forced_wake: u64,
    /// Nodes woken this round (scratch).
    awake: Vec<u32>,
    /// Nodes whose hint must be recomputed after this round (scratch).
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    /// Adversarial fault state; `None` when constructed without a plan (or
    /// with [`FaultPlan::none`]), in which case every fault hook is skipped
    /// and the engine behaves exactly as it did without the fault layer.
    faults: Option<FaultState>,
}

/// `wake_at` sentinel: no scheduled wake.
const WAKE_IDLE: u64 = u64::MAX;

/// Number of slots in the near wake wheel. Sized to cover the common hint
/// horizons (the pipelines publish work segments of at most a few dozen
/// rounds; parity and schedule-slot hints look 1–12 rounds ahead), so the
/// allocating far queue only sees long sleeps.
const WHEEL: u64 = 64;

impl<P: Protocol, T: Topology> Simulator<P, T> {
    /// Creates a simulator over `graph` with the given collision mode and
    /// master seed; `init` constructs each node's protocol state.
    pub fn new(graph: T, mode: CollisionMode, seed: u64, init: impl FnMut(NodeId) -> P) -> Self {
        Self::new_with_faults(graph, mode, seed, FaultPlan::none(), init)
    }

    /// Like [`Simulator::new`], but with a seeded adversarial [`FaultPlan`]
    /// applied inside every round (see [`faults`]).
    ///
    /// Fault randomness comes from dedicated streams of the master `seed`
    /// ([`rng::fault_stream_rng`]), disjoint from the per-node protocol
    /// streams: with [`FaultPlan::none`] (or any all-no-op plan) the
    /// protocol trace is bit-identical to [`Simulator::new`].
    ///
    /// # Panics
    ///
    /// Panics if the plan enables churn or mobility and `graph` is not a
    /// materialized [`Graph`]: those fault classes rewrite the topology,
    /// which a streamed topology cannot express. Erasure and jammer faults
    /// work on every topology.
    pub fn new_with_faults(
        graph: T,
        mode: CollisionMode,
        seed: u64,
        faults: FaultPlan,
        mut init: impl FnMut(NodeId) -> P,
    ) -> Self {
        let n = graph.node_count();
        let faults = (!faults.is_none()).then(|| {
            // Churn masks and mobility re-samples rebuild the graph from its
            // base edge list, so those plans are clamped to materialized
            // topologies; erasure/jammer plans never read base edges.
            let base_edges = if faults.churn.is_some() || faults.mobility.is_some() {
                let g = graph.as_graph().expect(
                    "churn/mobility fault plans rewrite the topology and need a \
                     materialized `Graph`; streamed topologies support erasure \
                     and jammer faults only",
                );
                g.edges().map(|(u, v)| (u.raw(), v.raw())).collect()
            } else {
                Vec::new()
            };
            FaultState::new(faults, seed, n, base_edges)
        });
        let nodes: Vec<P> = (0..n).map(|i| init(NodeId::new(i))).collect();
        let rngs: Vec<SmallRng> = (0..n).map(|i| rng::stream_rng(seed, i as u64)).collect();
        let mut sim = Simulator {
            graph,
            mode,
            nodes,
            rngs,
            round: 0,
            stats: RunStats::default(),
            tx_count: vec![0; n],
            tx_from: vec![0; n],
            transmitted: vec![false; n],
            txs: Vec::new(),
            touched: Vec::new(),
            wake_at: vec![WAKE_IDLE; n],
            wheel: (0..WHEEL).map(|_| Vec::new()).collect(),
            far_wakes: BTreeMap::new(),
            forced_wake: WAKE_IDLE,
            awake: Vec::new(),
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            faults,
        };
        for i in 0..n {
            sim.schedule(i, 0);
        }
        sim
    }

    /// Recomputes node `i`'s wake hint for `next_round` and queues it.
    fn schedule(&mut self, i: usize, next_round: u64) {
        let at = match self.nodes[i].next_wake(next_round) {
            Wake::Now => next_round,
            Wake::At(r) => r.max(next_round),
            Wake::Idle => WAKE_IDLE,
        };
        if self.wake_at[i] == at {
            return;
        }
        self.wake_at[i] = at;
        if at == WAKE_IDLE {
            return;
        }
        if at - next_round < WHEEL {
            self.wheel[(at % WHEEL) as usize].push(i as u32);
        } else {
            self.far_wakes.entry(at).or_default().push(i as u32);
        }
    }

    /// Re-wakes every node for the next simulated round, regardless of its
    /// current hint. `O(1)` to arm; the next [`Simulator::step`] polls all
    /// nodes and recomputes their hints.
    ///
    /// For external drivers that pace nodes through *shared* schedule state
    /// (e.g. the adaptive pipelines' published cursor segments): a node's
    /// wake hint is computed against that shared state, so it is only valid
    /// while the state stands. Calling `wake_all` before every change of the
    /// shared state restores the [`Protocol::next_wake`] contract — hints
    /// never have to anticipate the driver's next move, and sleepers can
    /// answer [`Wake::Idle`] instead of conservatively re-waking at every
    /// boundary.
    pub fn wake_all(&mut self) {
        self.forced_wake = self.round;
    }

    /// Pops every node scheduled to wake at `round` (wheel slot plus due far
    /// buckets) into `awake`, marking them dirty (their hint is consumed).
    /// A pending [`Simulator::wake_all`] wakes everyone instead.
    fn drain_wakeable(&mut self, round: u64) {
        self.awake.clear();
        if self.forced_wake == round {
            self.forced_wake = WAKE_IDLE;
            for i in 0..self.nodes.len() {
                // Supersede any scheduled wake; its queue entries go stale.
                self.wake_at[i] = WAKE_IDLE;
                self.awake.push(i as u32);
                self.mark_dirty(i);
            }
            // Drop this round's queue entries (now stale) so they are not
            // re-examined.
            self.wheel[(round % WHEEL) as usize].clear();
            while self.far_wakes.first_key_value().is_some_and(|(&k, _)| k <= round) {
                self.far_wakes.pop_first();
            }
            return;
        }
        // Near wheel: the slot's bucket is recycled, so steady-state rounds
        // allocate nothing.
        let mut bucket = std::mem::take(&mut self.wheel[(round % WHEEL) as usize]);
        for &i in &bucket {
            let i = i as usize;
            // Skip stale entries (the node was rescheduled since).
            if self.wake_at[i] != round {
                continue;
            }
            self.wake_at[i] = WAKE_IDLE;
            self.awake.push(i as u32);
            self.mark_dirty(i);
        }
        bucket.clear();
        self.wheel[(round % WHEEL) as usize] = bucket;
        while let Some((&key, _)) = self.far_wakes.first_key_value() {
            if key > round {
                break;
            }
            let far = self.far_wakes.remove(&key).expect("key just seen");
            for &i in &far {
                let i = i as usize;
                if self.wake_at[i] != key {
                    continue;
                }
                self.wake_at[i] = WAKE_IDLE;
                self.awake.push(i as u32);
                self.mark_dirty(i);
            }
        }
    }

    fn mark_dirty(&mut self, i: usize) {
        if !self.is_dirty[i] {
            self.is_dirty[i] = true;
            self.dirty.push(i as u32);
        }
    }

    /// Requeues every node whose state may have changed since its hint was
    /// computed. Deferred from the end of the previous round to the start of
    /// `round` (the round about to be simulated or fast-forwarded over) so
    /// that an intervening [`Simulator::wake_all`] makes the recomputation
    /// unnecessary: on forced-wake rounds every node is polled regardless,
    /// and its hint is recomputed afterwards anyway. External drivers that
    /// publish a new shared schedule between every pair of status rounds
    /// thus skip an entire `O(n)` hint sweep per transition.
    fn flush_dirty(&mut self, round: u64) {
        if self.dirty.is_empty() {
            return;
        }
        if self.forced_wake == round {
            for k in 0..self.dirty.len() {
                let i = self.dirty[k] as usize;
                self.is_dirty[i] = false;
            }
        } else {
            for k in 0..self.dirty.len() {
                let i = self.dirty[k] as usize;
                self.is_dirty[i] = false;
                self.schedule(i, round);
            }
        }
        self.dirty.clear();
    }

    /// A lower bound on the next round in which any node is scheduled to
    /// wake (`WAKE_IDLE` if none). Stale wheel entries can make this
    /// pessimistic (an extra empty round is stepped instead of
    /// fast-forwarded), never late: valid entries always lie within the
    /// scanned horizon.
    fn next_wake_round(&self) -> u64 {
        if self.forced_wake != WAKE_IDLE {
            return self.forced_wake;
        }
        let far = self.far_wakes.first_key_value().map_or(WAKE_IDLE, |(&k, _)| k);
        for d in 0..WHEEL {
            let r = self.round + d;
            if r >= far {
                break;
            }
            if !self.wheel[(r % WHEEL) as usize].is_empty() {
                return r;
            }
        }
        far
    }

    /// Number of fully-idle rounds (at most `max`, which is positive) that
    /// can be skipped without simulating them; `None` when the next round
    /// must be stepped.
    fn idle_gap(&self, max: u64) -> Option<u64> {
        let mut next = self.next_wake_round();
        if let Some(f) = &self.faults {
            // Scheduled fault events (jams, churn, mobility) must be stepped,
            // never fast-forwarded over; erasure needs no clamp because
            // fully-idle rounds carry no packets to erase (and hence draw no
            // fault randomness).
            next = next.min(f.next_event_round(self.round));
        }
        if next <= self.round {
            return None;
        }
        Some((next - self.round).min(max))
    }

    /// Fast-forwards `gap` fully-idle rounds in `O(1)`.
    fn fast_forward(&mut self, gap: u64) {
        self.round += gap;
        self.stats.absorb_idle(gap, self.nodes.len());
    }

    /// Simulates one round; returns its statistics.
    pub fn step(&mut self) -> RoundStats {
        let round = self.round;
        let n = self.nodes.len();

        // Scheduled topology faults (mobility re-sample, node/edge churn)
        // rewrite the graph before anyone acts this round. Node count never
        // changes, so every engine buffer and wake structure stays valid.
        let mut churn_events = 0usize;
        if let Some(f) = self.faults.as_mut() {
            let (rebuilt, events) = f.apply_topology(round, n);
            churn_events = events;
            if let Some(g) = rebuilt {
                // Only churn/mobility plans rebuild, and those are clamped to
                // materialized topologies at construction, so `replace` never
                // hits a streamed topology's panic.
                self.graph.replace(g);
            }
        }

        // Deferred wake-hint recomputation for last round's dirty nodes.
        self.flush_dirty(round);

        // Reset the previous round's transmit flags (O(active), not O(n)).
        for k in 0..self.txs.len() {
            self.transmitted[self.txs[k].0.index()] = false;
        }
        self.txs.clear();
        // Poll only nodes whose wake round arrived; every other node is
        // guaranteed (by the `next_wake` contract) to listen without
        // touching its RNG or state.
        self.drain_wakeable(round);
        // Index order keeps the transmit list, and with it the erasure draw
        // order, independent of how the wake queue was filled.
        self.awake.sort_unstable();
        for idx in 0..self.awake.len() {
            let i = self.awake[idx] as usize;
            match self.nodes[i].act(round, &mut self.rngs[i]) {
                Action::Transmit(m) => {
                    self.transmitted[i] = true;
                    self.txs.push((NodeId::new(i), Packet::new(m)));
                }
                Action::Listen => {}
            }
        }

        // Resolve the channel: count transmitting neighbors per node,
        // remembering which counters were touched for the sparse reset.
        // With erasure enabled, each packet copy is dropped independently per
        // receiving edge before it can contribute a delivery or a collision;
        // the Bernoulli draws come from the dedicated erasure stream in a
        // fixed order (transmit list x adjacency).
        self.touched.clear();
        let mut erased = 0usize;
        let mut jammed = 0usize;
        {
            // Disjoint field borrows: the topology lends neighborhoods out
            // through `with_neighbors` closures that mutate the channel
            // counters, so both sides are pinned to locals up front.
            let graph = &self.graph;
            let txs = &self.txs;
            let tx_count = &mut self.tx_count;
            let tx_from = &mut self.tx_from;
            let touched = &mut self.touched;
            let mut erasure: Option<(f64, &mut SmallRng)> = match self.faults.as_mut() {
                Some(f) => f.plan.erasure.map(|p| (p, &mut f.erasure_rng)),
                None => None,
            };
            for (t_idx, (sender, _)) in txs.iter().enumerate() {
                graph.with_neighbors(*sender, |nbrs| {
                    for &v in nbrs {
                        if let Some((p, rng)) = erasure.as_mut() {
                            if rng.gen_bool(*p) {
                                erased += 1;
                                continue;
                            }
                        }
                        if tx_count[v.index()] == 0 {
                            touched.push(v.index() as u32);
                        }
                        tx_count[v.index()] += 1;
                        tx_from[v.index()] = t_idx as u32;
                    }
                });
            }

            // Active jammers flood their neighborhood with interference:
            // every neighbor sees two extra virtual transmitters, so its
            // channel resolves to a collision regardless of what (if
            // anything) survived erasure. `tx_from` is never read at counts
            // != 1, so the virtual transmitters need no packet.
            if let Some(f) = self.faults.as_ref() {
                for j in &f.plan.jammers {
                    if !j.active(round) {
                        continue;
                    }
                    graph.with_neighbors(NodeId::new(j.node as usize), |nbrs| {
                        for &v in nbrs {
                            if tx_count[v.index()] == 0 {
                                touched.push(v.index() as u32);
                            }
                            tx_count[v.index()] += 2;
                            jammed += 1;
                        }
                    });
                }
            }
        }

        let mut rstats = RoundStats {
            transmitters: self.txs.len(),
            act_skips: n - self.awake.len(),
            erased,
            jammed,
            churn_events,
            ..RoundStats::default()
        };

        // Only listeners that a transmission or a jam reached observe
        // anything; silent listeners and transmitters are not called.
        let mut heard = 0usize;
        for idx in 0..self.touched.len() {
            let i = self.touched[idx] as usize;
            if self.transmitted[i] {
                continue;
            }
            heard += 1;
            let obs = match self.tx_count[i] {
                1 => {
                    rstats.deliveries += 1;
                    Observation::Message(self.txs[self.tx_from[i] as usize].1.clone())
                }
                _ => {
                    rstats.collisions += 1;
                    if self.mode.has_detection() {
                        Observation::Collision
                    } else {
                        Observation::Silence
                    }
                }
            };
            self.nodes[i].observe(round, obs, &mut self.rngs[i]);
            // The observation may have changed this node's state, so its
            // wake hint must be recomputed.
            self.mark_dirty(i);
        }
        rstats.silent = n - self.txs.len() - heard;
        rstats.observe_skips = n - heard;

        // Sparse reset of the counters touched this round.
        for &v in &self.touched {
            self.tx_count[v as usize] = 0;
        }

        // The wake hints of nodes whose state may have changed this round
        // (woken nodes and touched listeners) are recomputed lazily at the
        // start of the next round — see `flush_dirty`.

        self.round += 1;
        self.stats.absorb(rstats);
        rstats
    }

    /// Simulates `rounds` rounds: [`Simulator::run_until`] with a predicate
    /// that never holds.
    pub fn run(&mut self, rounds: u64) {
        self.run_until(rounds, |_| false);
    }

    /// Runs until `done` holds or `max_rounds` rounds have elapsed *in this
    /// call*. Returns the total round count (i.e. [`Simulator::round`]) at
    /// which the predicate first held, or `None` on timeout.
    ///
    /// Runs of rounds in which every node is asleep (see
    /// [`Protocol::next_wake`]) are skipped in `O(1)` instead of being
    /// stepped; `round`, the statistics and every per-node RNG stream advance
    /// exactly as if each round had been simulated.
    ///
    /// `done` receives every node state, so the usual
    /// `nodes.iter().all(...)` predicate costs `O(n)` per evaluation. It is
    /// therefore evaluated on entry, after every stepped round that
    /// delivered a packet or a collision to some listener (the only rounds
    /// in which listener state can change), and once more when the budget
    /// runs out on a stepped round — never across fast-forwarded idle
    /// rounds. That is exact for any predicate that flips only when a node
    /// receives something (the "all informed/decoded" shape); a predicate
    /// that can flip when a node merely transmits is seen late.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut done: impl FnMut(&[P]) -> bool,
    ) -> Option<u64> {
        if done(&self.nodes) {
            return Some(self.round);
        }
        let mut left = max_rounds;
        while left > 0 {
            self.flush_dirty(self.round);
            if let Some(gap) = self.idle_gap(left) {
                // Idle rounds change no state, hence never the predicate.
                self.fast_forward(gap);
                left -= gap;
                continue;
            }
            let rstats = self.step();
            left -= 1;
            let heard = rstats.deliveries > 0 || rstats.collisions > 0;
            if (heard || left == 0) && done(&self.nodes) {
                return Some(self.round);
            }
        }
        None
    }

    /// The simulated topology (a materialized [`Graph`] under the default
    /// type parameter).
    pub fn graph(&self) -> &T {
        &self.graph
    }

    /// Number of rounds simulated so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Mutable access to the aggregate statistics, for driver-level recovery
    /// accounting ([`RunStats::retries`], [`RunStats::votes_overturned`],
    /// [`RunStats::fallback_rounds`]) that has no per-round channel event to
    /// be absorbed from.
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// All node states, indexed by node id.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The state of node `v`.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Mutable access to node `v` — for injecting work mid-run (e.g. handing
    /// a new message batch to the source).
    ///
    /// The node is conservatively re-woken for the next round, since
    /// external mutation invalidates its wake hint.
    pub fn node_mut(&mut self, v: NodeId) -> &mut P {
        let i = v.index();
        let at = self.round;
        if self.wake_at[i] != at {
            self.wake_at[i] = at;
            self.wheel[(at % WHEEL) as usize].push(i as u32);
        }
        &mut self.nodes[i]
    }

    /// Consumes the simulator, returning the node states.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }
}

impl<P: Protocol + fmt::Debug, T: Topology + fmt::Debug> fmt::Debug for Simulator<P, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("graph", &self.graph)
            .field("mode", &self.mode)
            .field("round", &self.round)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generators;

    /// Transmits `payload` every round if `active`; records observations.
    #[derive(Debug)]
    struct Beacon {
        active: bool,
        payload: u32,
        seen: Vec<Observation<u32>>,
    }

    impl Beacon {
        fn new(active: bool, payload: u32) -> Self {
            Beacon { active, payload, seen: Vec::new() }
        }
    }

    impl Protocol for Beacon {
        type Msg = u32;
        fn act(&mut self, _round: u64, _rng: &mut SmallRng) -> Action<u32> {
            if self.active {
                Action::Transmit(self.payload)
            } else {
                Action::Listen
            }
        }
        fn observe(&mut self, _round: u64, obs: Observation<u32>, _rng: &mut SmallRng) {
            self.seen.push(obs);
        }
    }

    #[test]
    fn single_transmitter_delivers() {
        let g = generators::path(3);
        let mut sim =
            Simulator::new(g, CollisionMode::Detection, 0, |id| Beacon::new(id.index() == 0, 7));
        let stats = sim.step();
        assert_eq!(stats.transmitters, 1);
        assert_eq!(stats.deliveries, 1);
        assert_eq!(stats.silent, 1);
        // Neither the silent listener nor the transmitter is called.
        assert_eq!(stats.observe_skips, 2);
        assert_eq!(sim.node(NodeId::new(1)).seen, vec![Observation::packet(7)]);
        assert!(sim.node(NodeId::new(2)).seen.is_empty());
        assert!(sim.node(NodeId::new(0)).seen.is_empty());
    }

    #[test]
    fn two_transmitters_collide_with_detection() {
        // path 0-1-2: 0 and 2 transmit, 1 hears a collision.
        let g = generators::path(3);
        let mut sim =
            Simulator::new(g, CollisionMode::Detection, 0, |id| Beacon::new(id.index() != 1, 9));
        let stats = sim.step();
        assert_eq!(stats.collisions, 1);
        assert_eq!(sim.node(NodeId::new(1)).seen, vec![Observation::Collision]);
    }

    #[test]
    fn collision_without_detection_is_silence() {
        let g = generators::path(3);
        let mut sim =
            Simulator::new(g, CollisionMode::NoDetection, 0, |id| Beacon::new(id.index() != 1, 9));
        let stats = sim.step();
        // The channel still collided (stats see it) but the node observes silence.
        assert_eq!(stats.collisions, 1);
        assert_eq!(sim.node(NodeId::new(1)).seen, vec![Observation::Silence]);
    }

    #[test]
    fn transmission_is_not_received_by_non_neighbors() {
        let g = generators::path(4);
        let mut sim =
            Simulator::new(g, CollisionMode::Detection, 0, |id| Beacon::new(id.index() == 0, 1));
        sim.step();
        assert!(sim.node(NodeId::new(2)).seen.is_empty());
        assert!(sim.node(NodeId::new(3)).seen.is_empty());
    }

    #[test]
    fn transmitter_does_not_hear_neighbor() {
        // Both endpoints of an edge transmit: half duplex, so neither is
        // called.
        let g = generators::path(2);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| Beacon::new(true, 3));
        sim.step();
        for v in 0..2 {
            assert!(sim.node(NodeId::new(v)).seen.is_empty());
        }
    }

    #[test]
    fn run_until_detects_completion() {
        let g = generators::path(2);
        let mut sim =
            Simulator::new(g, CollisionMode::Detection, 0, |id| Beacon::new(id.index() == 0, 5));
        let done =
            sim.run_until(10, |nodes| nodes.iter().any(|n| n.seen.iter().any(|o| o.is_message())));
        assert_eq!(done, Some(1));
    }

    #[test]
    fn run_until_immediate_if_already_done() {
        let g = generators::path(2);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| Beacon::new(false, 0));
        assert_eq!(sim.run_until(10, |_| true), Some(0));
    }

    #[test]
    fn run_until_times_out() {
        let g = generators::path(2);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| Beacon::new(false, 0));
        assert_eq!(sim.run_until(5, |_| false), None);
        assert_eq!(sim.round(), 5);
    }

    #[test]
    fn stats_accumulate_across_rounds() {
        let g = generators::star(5);
        let mut sim =
            Simulator::new(g, CollisionMode::Detection, 0, |id| Beacon::new(id.index() == 0, 2));
        sim.run(3);
        assert_eq!(sim.stats().rounds, 3);
        assert_eq!(sim.stats().transmissions, 3);
        assert_eq!(sim.stats().deliveries, 3 * 4);
    }

    /// A protocol whose behaviour depends on its RNG, to check determinism.
    #[derive(Debug)]
    struct Rando {
        history: Vec<bool>,
    }
    impl Protocol for Rando {
        type Msg = u8;
        fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action<u8> {
            use rand::Rng;
            let t = rng.gen_bool(0.5);
            self.history.push(t);
            if t {
                Action::Transmit(0)
            } else {
                Action::Listen
            }
        }
        fn observe(&mut self, _r: u64, _o: Observation<u8>, _rng: &mut SmallRng) {}
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| {
            let g = generators::cycle(8);
            let mut sim =
                Simulator::new(g, CollisionMode::Detection, seed, |_| Rando { history: vec![] });
            sim.run(50);
            sim.into_nodes().into_iter().map(|n| n.history).collect::<Vec<_>>()
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(124));
    }

    /// Beacons every `period` rounds when active; sleeps otherwise. Records
    /// every RNG draw and every reception so a hinted run can be compared
    /// draw-for-draw with [`DenseWrap`] of itself.
    #[derive(Debug)]
    struct Periodic {
        period: u64,
        active: bool,
        draws: Vec<u64>,
        heard: Vec<(u64, Option<u8>)>,
    }

    impl Periodic {
        fn new(period: u64, active: bool) -> Self {
            Periodic { period, active, draws: vec![], heard: vec![] }
        }
    }

    impl Protocol for Periodic {
        type Msg = u8;

        fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<u8> {
            if self.active && round % self.period == 0 {
                use rand::Rng;
                self.draws.push(rng.gen());
                Action::Transmit((round % 251) as u8)
            } else {
                Action::Listen
            }
        }

        fn observe(&mut self, round: u64, obs: Observation<u8>, _rng: &mut SmallRng) {
            match obs {
                Observation::Message(m) => self.heard.push((round, Some(*m))),
                Observation::Collision => self.heard.push((round, None)),
                Observation::Silence => {}
            }
        }

        fn next_wake(&self, round: u64) -> Wake {
            if !self.active {
                return Wake::Idle;
            }
            match round % self.period {
                0 => Wake::Now,
                r => Wake::At(round + self.period - r),
            }
        }
    }

    /// Runs `make`'s nodes for `rounds` over `plan` twice: on their own
    /// hints and under [`DenseWrap`], which polls every node every round.
    /// Returns each run's per-node extracts and statistics.
    fn both_paths<P: Protocol, S>(
        g: &Graph,
        mode: CollisionMode,
        seed: u64,
        plan: &FaultPlan,
        rounds: u64,
        make: impl Fn(NodeId) -> P,
        extract: impl Fn(&P) -> S,
    ) -> ((Vec<S>, RunStats), (Vec<S>, RunStats)) {
        let mut wake = Simulator::new_with_faults(g.clone(), mode, seed, plan.clone(), &make);
        wake.run(rounds);
        let mut dense = Simulator::new_with_faults(g.clone(), mode, seed, plan.clone(), |id| {
            DenseWrap(make(id))
        });
        dense.run(rounds);
        (
            (wake.nodes().iter().map(&extract).collect(), wake.stats().clone()),
            (dense.nodes().iter().map(|n| extract(&n.0)).collect(), dense.stats().clone()),
        )
    }

    type Trace = Vec<(Vec<u64>, Vec<(u64, Option<u8>)>)>;

    /// [`both_paths`] for a mix of `Periodic` beacons and sleepers on a
    /// cluster chain, extracting every draw and reception.
    fn periodic_both_paths(
        mode: CollisionMode,
        seed: u64,
        plan: &FaultPlan,
    ) -> ((Trace, RunStats), (Trace, RunStats)) {
        both_paths(
            &generators::cluster_chain(4, 4),
            mode,
            seed,
            plan,
            300,
            |id| Periodic::new(1 + u64::from(id.raw() % 5) * 3, id.index() % 3 != 1),
            |n| (n.draws.clone(), n.heard.clone()),
        )
    }

    #[test]
    fn wake_path_matches_dense_path() {
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            for seed in [3u64, 17] {
                let ((wake, ws), (dense, ds)) = periodic_both_paths(mode, seed, &FaultPlan::none());
                assert_eq!(dense, wake, "trace diverged ({mode:?}, seed {seed})");
                assert_eq!(
                    (ds.rounds, ds.transmissions, ds.deliveries, ds.collisions),
                    (ws.rounds, ws.transmissions, ws.deliveries, ws.collisions),
                    "stats diverged ({mode:?}, seed {seed})"
                );
                assert_eq!(ds.act_skips, 0, "DenseWrap must not skip acts");
                assert!(ws.act_skips > 0, "hints never skipped an act");
            }
        }
    }

    #[test]
    fn fully_idle_run_is_fast_forwarded() {
        let g = generators::path(64);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| Periodic::new(1, false));
        sim.run(1_000_000);
        assert_eq!(sim.round(), 1_000_000);
        assert_eq!(sim.stats().rounds, 1_000_000);
        assert_eq!(sim.stats().idle_fastforward, 1_000_000);
        assert_eq!(sim.stats().act_skips, 1_000_000 * 64);
        assert_eq!(sim.stats().observe_skips, 1_000_000 * 64);
    }

    #[test]
    fn fast_forward_lands_on_the_next_wake() {
        // One beacon with a long period: every gap is skipped, every beacon
        // round is simulated, and every beacon is delivered.
        let g = generators::path(3);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 1, |id| {
            Periodic::new(1000, id.index() == 0)
        });
        sim.run(10_000);
        assert_eq!(sim.stats().transmissions, 10);
        assert_eq!(sim.stats().deliveries, 10);
        assert!(sim.stats().idle_fastforward >= 9_900);
        assert_eq!(
            sim.node(NodeId::new(1)).heard.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
            (0..10u64).map(|k| k * 1000).collect::<Vec<_>>()
        );
    }

    /// Sleeps until it hears anything, then beacons every round — checks
    /// that observations re-wake sleeping nodes.
    #[derive(Debug)]
    struct Relay {
        active: bool,
        informed_at: Option<u64>,
    }

    impl Relay {
        fn new(active: bool) -> Self {
            Relay { active, informed_at: None }
        }
    }

    impl Protocol for Relay {
        type Msg = u8;
        fn act(&mut self, _round: u64, _rng: &mut SmallRng) -> Action<u8> {
            if self.active {
                Action::Transmit(1)
            } else {
                Action::Listen
            }
        }
        fn observe(&mut self, round: u64, obs: Observation<u8>, _rng: &mut SmallRng) {
            if obs.is_signal() && !self.active {
                self.active = true;
                self.informed_at = Some(round);
            }
        }
        fn next_wake(&self, _round: u64) -> Wake {
            if self.active {
                Wake::Now
            } else {
                Wake::Idle
            }
        }
    }

    #[test]
    fn observation_rewakes_sleeping_nodes() {
        let ((wake, _), (dense, _)) = both_paths(
            &generators::path(12),
            CollisionMode::Detection,
            0,
            &FaultPlan::none(),
            40,
            |id| Relay::new(id.index() == 0),
            |n| n.informed_at,
        );
        assert_eq!(dense, wake);
        // The wave must actually have propagated.
        assert_eq!(wake[11], Some(10));
    }

    #[test]
    fn node_mut_rewakes_a_sleeper() {
        let g = generators::path(2);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| Relay::new(false));
        sim.run(100);
        assert_eq!(sim.stats().transmissions, 0);
        sim.node_mut(NodeId::new(0)).active = true;
        sim.run(5);
        // Node 0 beacons all 5 rounds; node 1 hears it at round 100 and
        // relays for the remaining 4.
        assert_eq!(sim.stats().transmissions, 9, "mutated node was not re-woken");
        assert_eq!(sim.node(NodeId::new(1)).informed_at, Some(100));
    }

    #[test]
    fn run_until_is_exact_when_a_collision_completes_the_run() {
        // Cycle 0..8 from node 0: the two relay waves meet at node 4 in a
        // collision-only round, which activates it under detection.
        let relay = || {
            Simulator::new(generators::cycle(8), CollisionMode::Detection, 0, |id| {
                Relay::new(id.index() == 0)
            })
        };
        let all_active = |ns: &[Relay]| ns.iter().all(|n| n.active);
        let mut gated = relay();
        let done = gated.run_until(100, all_active);
        // The reference checks the predicate after every round.
        let mut stepped = relay();
        let mut last = RoundStats::default();
        while !all_active(stepped.nodes()) {
            last = stepped.step();
        }
        assert_eq!(done, Some(stepped.round()));
        assert_eq!(gated.stats(), stepped.stats());
        assert!(last.collisions > 0 && last.deliveries == 0, "completing round: {last:?}");
    }

    #[test]
    fn run_until_fast_forwards_idle_tails() {
        // All nodes informed after 3 rounds; predicate never true -> the
        // remaining budget must be fast-forwarded, not stepped.
        let g = generators::path(4);
        let mut sim =
            Simulator::new(g, CollisionMode::Detection, 0, |id| Periodic::new(1, id.index() == 0));
        sim.node_mut(NodeId::new(0)).active = false;
        let res = sim.run_until(50_000, |_| false);
        assert_eq!(res, None);
        assert_eq!(sim.round(), 50_000);
        // Round 0 is stepped (the node_mut wake); everything after is idle.
        assert_eq!(sim.stats().idle_fastforward, 49_999);
    }

    #[test]
    fn sparse_reset_leaves_no_residue() {
        // Node 0 beacons on even rounds only: each even round must count
        // five fresh deliveries (no stale counter), and on the odd rounds
        // nobody is called and all six nodes read silent.
        #[derive(Debug)]
        struct EvenTx(bool);
        impl Protocol for EvenTx {
            type Msg = u8;
            fn act(&mut self, round: u64, _rng: &mut SmallRng) -> Action<u8> {
                if self.0 && round % 2 == 0 {
                    Action::Transmit(1)
                } else {
                    Action::Listen
                }
            }
            fn observe(&mut self, round: u64, _obs: Observation<u8>, _rng: &mut SmallRng) {
                assert_eq!(round % 2, 0, "called on silent round {round}");
            }
        }
        let g = generators::complete(6);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |id| EvenTx(id.index() == 0));
        for round in 0..10 {
            let s = sim.step();
            let expect = if round % 2 == 0 { (5, 0, 0) } else { (0, 0, 6) };
            assert_eq!((s.deliveries, s.collisions, s.silent), expect, "round {round}");
        }
    }

    // ---- adversarial fault layer ----

    /// The full trace of a `Rando` run (every RNG draw of every node), with
    /// the given fault plan.
    fn rando_trace(plan: FaultPlan, seed: u64) -> (Vec<Vec<bool>>, RunStats) {
        let g = generators::cluster_chain(4, 4);
        let mut sim = Simulator::new_with_faults(g, CollisionMode::Detection, seed, plan, |_| {
            Rando { history: vec![] }
        });
        sim.run(80);
        let stats = sim.stats().clone();
        (sim.into_nodes().into_iter().map(|n| n.history).collect(), stats)
    }

    #[test]
    fn noop_fault_plans_are_trace_identical() {
        // Fault randomness lives on its own salted streams: a plan that draws
        // fault randomness but never fires (erasure at p = 0, churn at p = 0)
        // must leave every protocol draw — and the whole trace — untouched.
        let baseline = rando_trace(FaultPlan::none(), 7);
        for noop in [
            FaultPlan::none().with_erasure(0.0),
            FaultPlan::none().with_churn(1, 0.0, 0.0),
            FaultPlan::none().with_erasure(0.0).with_churn(3, 0.0, 0.0),
        ] {
            assert_eq!(rando_trace(noop.clone(), 7), baseline, "plan {} perturbed", noop.label());
        }
    }

    #[test]
    fn erasure_at_p1_blocks_every_delivery() {
        let g = generators::path(3);
        let plan = FaultPlan::none().with_erasure(1.0);
        let mut sim = Simulator::new_with_faults(g, CollisionMode::Detection, 0, plan, |id| {
            Beacon::new(id.index() == 0, 7)
        });
        let stats = sim.step();
        assert_eq!(stats.transmitters, 1);
        assert_eq!(stats.deliveries, 0);
        assert_eq!(stats.erased, 1, "one copy to one neighbor, erased");
        assert!(sim.node(NodeId::new(1)).seen.is_empty());
    }

    #[test]
    fn jammer_collides_its_neighborhood() {
        // path 0-1-2 with a jammer at node 1 and nobody transmitting: both
        // neighbors observe a collision (with detection) or silence (without);
        // the host node itself is not called.
        for (mode, expect) in [
            (CollisionMode::Detection, Observation::Collision),
            (CollisionMode::NoDetection, Observation::Silence),
        ] {
            let g = generators::path(3);
            let plan = FaultPlan::none().with_jammer(1, 1, 0);
            let mut sim = Simulator::new_with_faults(g, mode, 0, plan, |_| Beacon::new(false, 0));
            let stats = sim.step();
            assert_eq!(stats.transmitters, 0);
            assert_eq!(stats.jammed, 2);
            assert_eq!(stats.collisions, 2);
            assert_eq!(sim.node(NodeId::new(0)).seen, vec![expect.clone()]);
            assert_eq!(sim.node(NodeId::new(2)).seen, vec![expect.clone()]);
            assert!(sim.node(NodeId::new(1)).seen.is_empty());
        }
    }

    #[test]
    fn jam_beats_a_clean_delivery() {
        // Node 0 transmits to 1; a jammer co-located with 2 turns 1's clean
        // reception into a collision.
        let g = generators::path(3);
        let plan = FaultPlan::none().with_jammer(2, 1, 0);
        let mut sim = Simulator::new_with_faults(g, CollisionMode::Detection, 0, plan, |id| {
            Beacon::new(id.index() == 0, 9)
        });
        let stats = sim.step();
        assert_eq!(stats.deliveries, 0);
        assert_eq!(sim.node(NodeId::new(1)).seen, vec![Observation::Collision]);
    }

    #[test]
    fn fault_counters_accumulate_in_run_stats() {
        let plan =
            FaultPlan::none().with_erasure(0.5).with_jammer(0, 4, 1).with_churn(5, 0.05, 0.05);
        let (_, stats) = rando_trace(plan, 3);
        assert!(stats.erased > 0, "no erasures over 80 half-rate rounds");
        assert!(stats.jammed > 0, "jammer never fired");
        assert!(stats.churn_events > 0, "churn never toggled");
    }

    #[test]
    fn wake_path_matches_dense_path_under_faults() {
        // The wake-vs-`DenseWrap` identity must survive every fault class: the
        // idle-gap clamp steps all scheduled fault rounds, and erasure draws
        // happen only in rounds both runs step.
        let plans = [
            FaultPlan::none().with_erasure(0.2),
            FaultPlan::none().with_jammer(5, 13, 4),
            FaultPlan::none().with_churn(9, 0.02, 0.05),
            FaultPlan::none().with_erasure(0.1).with_jammer(2, 7, 0).with_churn(11, 0.01, 0.03),
        ];
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            for plan in &plans {
                let ((wake, ws), (dense, ds)) = periodic_both_paths(mode, 17, plan);
                assert_eq!(dense, wake, "trace diverged ({mode:?}, {})", plan.label());
                // `act_skips`/`idle_fastforward` legitimately differ between
                // the runs; every semantic field must not.
                assert_eq!(
                    (ds.rounds, ds.transmissions, ds.deliveries, ds.collisions),
                    (ws.rounds, ws.transmissions, ws.deliveries, ws.collisions),
                    "stats diverged ({mode:?}, {})",
                    plan.label()
                );
                assert_eq!(
                    (ds.erased, ds.jammed, ds.churn_events),
                    (ws.erased, ws.jammed, ws.churn_events),
                    "fault counters diverged ({mode:?}, {})",
                    plan.label()
                );
                assert!(ws.act_skips > 0, "hints never skipped ({})", plan.label());
            }
        }
    }

    #[test]
    fn jam_rounds_are_stepped_and_rewake_sleepers() {
        // All nodes idle except the jam schedule: the hinted run must step
        // every jam round (not fast-forward over it), and the induced
        // collision must re-wake a sleeping Relay exactly as under
        // `DenseWrap`.
        let ((wake, ws), (dense, ds)) = both_paths(
            &generators::path(4),
            CollisionMode::Detection,
            0,
            &FaultPlan::none().with_jammer(0, 100, 50),
            500,
            |_| Relay::new(false),
            |n| n.informed_at,
        );
        assert_eq!(dense, wake);
        assert_eq!(ds.jammed, ws.jammed);
        // The jam at round 50 wakes node 1 (node 0's only neighbor), which
        // then beacons and floods the path.
        assert_eq!(wake[1], Some(50));
        assert!(wake[3].is_some());
        assert!(ws.idle_fastforward > 0, "idle stretches between jams not fast-forwarded");
    }

    #[test]
    fn churned_out_edge_stops_delivery() {
        // Deterministic churn (p = 1 every round): both nodes of a 2-path
        // toggle down at round 1, so the beacon's packets stop arriving.
        let g = generators::path(2);
        let plan = FaultPlan::none().with_churn(1, 0.0, 1.0);
        let mut sim = Simulator::new_with_faults(g, CollisionMode::Detection, 0, plan, |id| {
            Beacon::new(id.index() == 0, 5)
        });
        let first = sim.step(); // round 0: no churn yet, clean delivery
        assert_eq!(first.deliveries, 1);
        let second = sim.step(); // round 1: the only edge toggles down
        assert_eq!(second.churn_events, 1);
        assert_eq!(second.deliveries, 0);
        let third = sim.step(); // round 2: it toggles back up
        assert_eq!(third.deliveries, 1);
    }

    #[test]
    fn mobility_resamples_on_epoch_boundaries() {
        let g = generators::path(24);
        let plan = FaultPlan::none().with_mobility(0.5, 8);
        let mut sim = Simulator::new_with_faults(g, CollisionMode::Detection, 4, plan, |_| Rando {
            history: vec![],
        });
        let before: Vec<_> = sim.graph().edges().collect();
        sim.run(9); // rounds 0..=8: the round-8 step applies the first epoch
        let after: Vec<_> = sim.graph().edges().collect();
        assert_ne!(before, after, "epoch boundary did not re-sample the topology");
        assert_eq!(sim.graph().node_count(), 24);
        assert!(sim.stats().churn_events >= 1);
    }
}
