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

/// How often [`Simulator::run_until_with`] evaluates its `done` predicate.
///
/// The predicate receives all node states, so a typical "is everyone
/// finished?" closure is an `O(n)` scan — calling it every round makes the
/// *driver* cost `O(n)` per round even when the round itself was cheap
/// (sparse/wake fast paths). The policy bounds that overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoneCheck {
    /// Evaluate after every simulated round (the historical behavior of
    /// [`Simulator::run_until`]). Exact completion rounds, `O(n)` per round.
    EveryRound,
    /// Evaluate every `k`-th simulated round (and on the final round of the
    /// budget). The reported completion round may overshoot the true one by
    /// up to `k - 1` rounds.
    Every(u64),
    /// Evaluate only after rounds that delivered a packet or a collision to
    /// some listener — the only rounds in which *listener* state can change.
    /// Exact for predicates that depend on what nodes have received (the
    /// common "all informed/decoded" shape); a predicate that can flip when a
    /// node merely *transmits* needs [`DoneCheck::EveryRound`] instead.
    OnDelivery,
}

/// A per-node protocol state machine.
///
/// The engine calls [`Protocol::act`] on every node at the start of each
/// round, resolves the radio channel, then calls [`Protocol::observe`] on
/// every node with the outcome. Both calls receive the node's private RNG
/// stream, so runs are deterministic in the master seed.
///
/// A node knows only what a real radio node would: its own state, its id (if
/// the implementation stores it at construction), and the observations it has
/// made. The engine never leaks topology through this trait.
pub trait Protocol {
    /// Packet type carried on the channel.
    type Msg: Clone;

    /// Declares that [`Protocol::observe`] is a no-op for
    /// [`Observation::Silence`] and [`Observation::SelfTransmit`]: it neither
    /// changes state nor draws from the RNG for those observations.
    ///
    /// When `true`, the engine takes a *sparse* fast path that resolves the
    /// channel by iterating only the active transmitters' out-edges and skips
    /// the `O(n)` per-round observe sweep — nodes that would have observed
    /// silence (and transmitters, which would observe `SelfTransmit`) are not
    /// called at all. Rounds where almost everyone is silent then cost
    /// `O(active)` instead of `O(n)` on the observe side, which dominates the
    /// near-silent tail rounds of adaptive broadcast runs.
    ///
    /// [`RoundStats`]/[`RunStats`] are identical on both paths; the skipped
    /// calls are reported in [`RoundStats::observe_skips`].
    const SILENCE_IS_NOOP: bool = false;

    /// Declares that [`Protocol::next_wake`] returns meaningful hints.
    ///
    /// When `true` **and** [`Protocol::SILENCE_IS_NOOP`] is `true`, the
    /// engine keeps a bucketed wake-queue and calls [`Protocol::act`] only on
    /// nodes whose wake round has arrived; runs of rounds in which *every*
    /// node is asleep are fast-forwarded in `O(1)` by
    /// [`Simulator::run`]/[`Simulator::run_until`]. Skipped `act` calls are
    /// reported in [`RoundStats::act_skips`], fast-forwarded rounds in
    /// [`RunStats::idle_fastforward`]; `round`, the semantic
    /// [`RoundStats`]/[`RunStats`] fields and every per-node RNG stream stay
    /// bit-identical to the dense path.
    ///
    /// `SILENCE_IS_NOOP` is required because a sleeping node still receives
    /// its (skippable) silence observations conceptually; only a protocol
    /// that ignores them can be left untouched for a whole sleep interval.
    const WAKE_HINTS: bool = false;

    /// The wake hint: the earliest round `>= round` in which this node's
    /// [`Protocol::act`] might transmit, draw from its RNG, or change state.
    ///
    /// # Contract (with [`Protocol::WAKE_HINTS`] enabled)
    ///
    /// The engine calls this after any event that may have changed the
    /// node's state — construction, an `act` call, or a delivered
    /// message/collision observation — with `round` being the next round to
    /// be simulated. Returning [`Wake::At(r)`](Wake::At) with `r > round`
    /// (or [`Wake::Idle`]) promises that for every round `t` in
    /// `round..r` (resp. every future round), `act(t)` would return
    /// [`Action::Listen`] **without** drawing from the RNG and **without**
    /// mutating any state. The engine then skips those `act` calls entirely.
    ///
    /// The promise only covers the node's current state: as soon as the node
    /// observes a message or collision, the engine re-queries the hint, so
    /// hints never need to anticipate future receptions. Returning
    /// [`Wake::Now`] is always safe (it degenerates to the dense path).
    fn next_wake(&self, round: u64) -> Wake {
        let _ = round;
        Wake::Now
    }

    /// Chooses this node's action for `round` (0-based).
    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<Self::Msg>;

    /// Delivers the channel observation for `round`.
    ///
    /// If [`Protocol::SILENCE_IS_NOOP`] is `true`, this may not be called for
    /// `Silence`/`SelfTransmit` observations — implementations opting in must
    /// not rely on seeing them.
    fn observe(&mut self, round: u64, obs: Observation<Self::Msg>, rng: &mut SmallRng);
}

/// Wraps a protocol with its wake hints disabled: behavior, RNG usage and
/// statistics-relevant output are unchanged, but the engine runs the dense
/// `O(n)`-acts-per-round sweep.
///
/// Exists to A/B the wake-list fast path against the dense path — the
/// equivalence suites run every protocol both ways and assert bit-identical
/// traces.
#[derive(Clone, Debug)]
pub struct DenseWrap<P>(pub P);

impl<P: Protocol> Protocol for DenseWrap<P> {
    type Msg = P::Msg;
    const SILENCE_IS_NOOP: bool = P::SILENCE_IS_NOOP;
    // WAKE_HINTS deliberately left at the default `false`.

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<Self::Msg> {
        self.0.act(round, rng)
    }

    fn observe(&mut self, round: u64, obs: Observation<Self::Msg>, rng: &mut SmallRng) {
        self.0.observe(round, obs, rng);
    }
}

/// A per-round audit callback: receives the round number and the list of
/// `(transmitter, packet)` pairs, before channel resolution.
///
/// Used by experiments that must attribute collisions to schedule phases
/// (e.g. the Lemma 3.5 fast-transmission collision audit). Packets arrive as
/// shared [`Packet`] handles into the round's packet store.
pub type Probe<M> = Box<dyn FnMut(u64, &[(NodeId, Packet<M>)])>;

/// Outcome of one [`Simulator::run_segment`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentRun {
    /// Rounds simulated by this call, including fast-forwarded idle rounds.
    pub rounds: u64,
    /// Packets delivered across those rounds.
    pub deliveries: u64,
    /// `true` iff the call returned early because its last simulated round
    /// delivered a packet (see [`Simulator::run_segment`]'s `stop_on_delivery`).
    pub stopped_on_delivery: bool,
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
    probe: Option<Probe<P::Msg>>,
    // Scratch buffers, kept across rounds to avoid per-round allocation.
    tx_count: Vec<u32>,
    tx_from: Vec<u32>,
    transmitted: Vec<bool>,
    /// This round's packet store: each transmission is wrapped in a shared
    /// [`Packet`] once, and every delivery hands out an `O(1)` handle clone.
    txs: Vec<(NodeId, Packet<P::Msg>)>,
    /// Nodes whose channel counter was touched this round (sparse path).
    touched: Vec<u32>,
    // Wake-list state (used only when `P::WAKE_HINTS && P::SILENCE_IS_NOOP`).
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
            probe: None,
            tx_count: vec![0; n],
            tx_from: vec![0; n],
            transmitted: vec![false; n],
            txs: Vec::new(),
            touched: Vec::new(),
            wake_at: Vec::new(),
            wheel: Vec::new(),
            far_wakes: BTreeMap::new(),
            forced_wake: WAKE_IDLE,
            awake: Vec::new(),
            dirty: Vec::new(),
            is_dirty: Vec::new(),
            faults,
        };
        if Self::WAKE_PATH {
            sim.wake_at = vec![WAKE_IDLE; n];
            sim.wheel = (0..WHEEL).map(|_| Vec::new()).collect();
            sim.is_dirty = vec![false; n];
            for i in 0..n {
                sim.schedule(i, 0);
            }
        }
        sim
    }

    /// Whether this protocol engages the wake-list fast path.
    const WAKE_PATH: bool = P::WAKE_HINTS && P::SILENCE_IS_NOOP;

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
    /// boundary. No-op on the dense path.
    pub fn wake_all(&mut self) {
        if Self::WAKE_PATH {
            self.forced_wake = self.round;
        }
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

    /// Number of fully-idle rounds (at most `max`) that can be skipped
    /// without simulating them; `None` when the next round must be stepped.
    /// Fast-forwarding is disabled while an audit probe is installed (the
    /// probe must see every round).
    fn idle_gap(&self, max: u64) -> Option<u64> {
        if !Self::WAKE_PATH || self.probe.is_some() || max == 0 {
            return None;
        }
        let mut next = self.next_wake_round();
        if let Some(f) = &self.faults {
            // Scheduled fault events (jams, churn, mobility) must be stepped,
            // never fast-forwarded over; erasure needs no clamp because
            // fully-idle rounds carry no packets to erase (and hence draw no
            // fault randomness) on any path.
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

    /// Installs a per-round audit probe (replacing any previous one).
    ///
    /// While a probe is installed, the wake-list fast-forward is disabled
    /// (the probe must see every round); `act` calls are still skipped per
    /// the wake hints.
    pub fn set_probe(&mut self, probe: Probe<P::Msg>) {
        self.probe = Some(probe);
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

        if Self::WAKE_PATH {
            // Deferred wake-hint recomputation for last round's dirty nodes.
            self.flush_dirty(round);
        }

        // Reset the previous round's transmit flags (O(active), not O(n)).
        for k in 0..self.txs.len() {
            self.transmitted[self.txs[k].0.index()] = false;
        }
        self.txs.clear();
        let mut act_skips = 0usize;
        if Self::WAKE_PATH {
            // Wake-list fast path: poll only nodes whose wake round arrived;
            // every other node is guaranteed (by the `next_wake` contract) to
            // listen without touching its RNG or state.
            self.drain_wakeable(round);
            // Index order keeps the transmit list (and thus probe output and
            // observe order) identical to the dense sweep.
            self.awake.sort_unstable();
            act_skips = n - self.awake.len();
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
        } else {
            for i in 0..n {
                match self.nodes[i].act(round, &mut self.rngs[i]) {
                    Action::Transmit(m) => {
                        self.transmitted[i] = true;
                        self.txs.push((NodeId::new(i), Packet::new(m)));
                    }
                    Action::Listen => {}
                }
            }
        }

        if let Some(probe) = &mut self.probe {
            probe(round, &self.txs);
        }

        // Resolve the channel: count transmitting neighbors per node,
        // remembering which counters were touched for the sparse reset.
        // With erasure enabled, each packet copy is dropped independently per
        // receiving edge before it can contribute a delivery or a collision;
        // the Bernoulli draws come from the dedicated erasure stream in a
        // fixed order (transmit list x adjacency), identical on every engine
        // path.
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
            act_skips,
            erased,
            jammed,
            churn_events,
            ..RoundStats::default()
        };

        if P::SILENCE_IS_NOOP {
            // Sparse fast path: only nodes with a transmitting neighbor can
            // observe anything that matters; everyone else (silent listeners,
            // and transmitters with their `SelfTransmit`) is skipped. The
            // protocol has declared those observations no-ops.
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
                if Self::WAKE_PATH {
                    // The observation may have changed this node's state, so
                    // its wake hint must be recomputed.
                    self.mark_dirty(i);
                }
            }
            rstats.silent = n - self.txs.len() - heard;
            rstats.observe_skips = n - heard;
        } else {
            for i in 0..n {
                let obs = if self.transmitted[i] {
                    Observation::SelfTransmit
                } else {
                    match self.tx_count[i] {
                        0 => {
                            rstats.silent += 1;
                            Observation::Silence
                        }
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
                    }
                };
                self.nodes[i].observe(round, obs, &mut self.rngs[i]);
            }
        }

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

    /// Simulates `rounds` rounds.
    ///
    /// On the wake-list fast path (see [`Protocol::WAKE_HINTS`]), runs of
    /// rounds in which every node is asleep are skipped in `O(1)` instead of
    /// being stepped; `round` and the semantic statistics advance exactly as
    /// if each round had been simulated.
    pub fn run(&mut self, rounds: u64) {
        self.run_segment(rounds, false);
    }

    /// Simulates up to `rounds` rounds as one *work segment*, on the same
    /// fast paths as [`Simulator::run`] (acts cost `O(awake)`, fully-idle
    /// stretches fast-forward in `O(1)`).
    ///
    /// With `stop_on_delivery`, the call returns right after the first round
    /// that delivered a packet — the only kind of round in which *listener*
    /// state can change — so an external driver can batch long stretches of
    /// rounds through the wake fast path and still re-evaluate a
    /// reception-driven completion predicate exactly as if it had stepped
    /// every round (collisions and transmissions never flip such a
    /// predicate; see [`DoneCheck::OnDelivery`] for the analogous policy).
    /// The caller resumes the remainder of the segment with another call.
    ///
    /// The executed round sequence, statistics and per-node RNG streams are
    /// bit-identical to calling [`Simulator::step`] `rounds` times.
    pub fn run_segment(&mut self, rounds: u64, stop_on_delivery: bool) -> SegmentRun {
        let mut out = SegmentRun::default();
        let mut left = rounds;
        while left > 0 {
            if Self::WAKE_PATH {
                self.flush_dirty(self.round);
            }
            if let Some(gap) = self.idle_gap(left) {
                // Idle rounds deliver nothing, so they never trigger a stop.
                self.fast_forward(gap);
                out.rounds += gap;
                left -= gap;
                continue;
            }
            let rstats = self.step();
            out.rounds += 1;
            out.deliveries += rstats.deliveries as u64;
            left -= 1;
            if stop_on_delivery && rstats.deliveries > 0 {
                out.stopped_on_delivery = true;
                break;
            }
        }
        out
    }

    /// Runs until `done` holds (checked after every round) or `max_rounds`
    /// rounds have elapsed *in this call*.
    ///
    /// Equivalent to [`Simulator::run_until_with`] under
    /// [`DoneCheck::EveryRound`]; see there for the predicate-cost
    /// discussion.
    ///
    /// Returns the total round count (i.e. [`Simulator::round`]) at which the
    /// predicate first held, or `None` on timeout.
    pub fn run_until(&mut self, max_rounds: u64, done: impl FnMut(&[P]) -> bool) -> Option<u64> {
        self.run_until_with(max_rounds, DoneCheck::EveryRound, done)
    }

    /// Runs until `done` holds or `max_rounds` rounds have elapsed *in this
    /// call*, evaluating the predicate per the [`DoneCheck`] policy.
    ///
    /// # Predicate cost
    ///
    /// `done` receives every node state, so the usual
    /// `nodes.iter().all(...)` completion predicate costs `O(n)` per
    /// evaluation — under [`DoneCheck::EveryRound`] that makes the driver
    /// `O(n)` per round even when the engine's fast paths made the round
    /// itself `O(active)`. Use [`DoneCheck::OnDelivery`] (exact for
    /// reception-driven predicates) or [`DoneCheck::Every`] to amortize.
    ///
    /// The predicate must be pure in the node states: fully-idle rounds
    /// cannot change any node's state, so the wake-list fast path skips
    /// re-evaluating `done` across them (and fast-forwards the rounds
    /// themselves).
    ///
    /// Returns the total round count at which the predicate first held
    /// (subject to the policy's check granularity), or `None` on timeout.
    pub fn run_until_with(
        &mut self,
        max_rounds: u64,
        check: DoneCheck,
        mut done: impl FnMut(&[P]) -> bool,
    ) -> Option<u64> {
        if done(&self.nodes) {
            return Some(self.round);
        }
        let mut left = max_rounds;
        let mut since_check = 0u64;
        while left > 0 {
            if Self::WAKE_PATH {
                self.flush_dirty(self.round);
            }
            if let Some(gap) = self.idle_gap(left) {
                // Idle rounds change no state, hence never the predicate.
                self.fast_forward(gap);
                left -= gap;
                continue;
            }
            let rstats = self.step();
            left -= 1;
            let check_now = match check {
                DoneCheck::EveryRound => true,
                DoneCheck::Every(k) => {
                    since_check += 1;
                    since_check >= k.max(1) || left == 0
                }
                DoneCheck::OnDelivery => {
                    rstats.deliveries > 0 || rstats.collisions > 0 || left == 0
                }
            };
            if check_now {
                since_check = 0;
                if done(&self.nodes) {
                    return Some(self.round);
                }
            }
        }
        None
    }

    /// The simulated topology (a materialized [`Graph`] under the default
    /// type parameter).
    pub fn graph(&self) -> &T {
        &self.graph
    }

    /// The collision-detection mode.
    pub fn mode(&self) -> CollisionMode {
        self.mode
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

    /// Whether a non-empty [`FaultPlan`] is installed on this simulator.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
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
    /// On the wake-list fast path the node is conservatively re-woken for
    /// the next round, since external mutation invalidates its wake hint.
    pub fn node_mut(&mut self, v: NodeId) -> &mut P {
        if Self::WAKE_PATH {
            let i = v.index();
            let at = self.round;
            if self.wake_at[i] != at {
                self.wake_at[i] = at;
                self.wheel[(at % WHEEL) as usize].push(i as u32);
            }
        }
        &mut self.nodes[v.index()]
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
        assert_eq!(sim.node(NodeId::new(1)).seen, vec![Observation::packet(7)]);
        assert_eq!(sim.node(NodeId::new(2)).seen, vec![Observation::Silence]);
        assert_eq!(sim.node(NodeId::new(0)).seen, vec![Observation::SelfTransmit]);
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
        assert_eq!(sim.node(NodeId::new(2)).seen, vec![Observation::Silence]);
        assert_eq!(sim.node(NodeId::new(3)).seen, vec![Observation::Silence]);
    }

    #[test]
    fn transmitter_does_not_hear_neighbor() {
        // Both endpoints of an edge transmit: each observes only SelfTransmit.
        let g = generators::path(2);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| Beacon::new(true, 3));
        sim.step();
        for v in 0..2 {
            assert_eq!(sim.node(NodeId::new(v)).seen, vec![Observation::SelfTransmit]);
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

    #[test]
    fn probe_sees_transmitters() {
        let g = generators::path(3);
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let mut sim =
            Simulator::new(g, CollisionMode::Detection, 0, |id| Beacon::new(id.index() == 0, 7));
        sim.set_probe(Box::new(move |_round, txs| {
            c2.fetch_add(txs.len(), Ordering::SeqCst);
        }));
        sim.run(4);
        assert_eq!(count.load(Ordering::SeqCst), 4);
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

    /// A decay-ish transmitter that records every packet/collision it hears;
    /// generic over the sparse-path opt-in so both engine paths can run the
    /// same logic and be compared.
    #[derive(Debug)]
    struct NoisyListener<const SPARSE: bool> {
        rate_num: u32,
        heard: Vec<(u64, Option<u8>)>, // (round, Some(packet) | None = collision)
    }

    impl<const SPARSE: bool> Protocol for NoisyListener<SPARSE> {
        type Msg = u8;
        const SILENCE_IS_NOOP: bool = SPARSE;
        fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action<u8> {
            use rand::Rng;
            if rng.gen_bool(f64::from(self.rate_num) / 10.0) {
                Action::Transmit(self.rate_num as u8)
            } else {
                Action::Listen
            }
        }
        fn observe(&mut self, round: u64, obs: Observation<u8>, _rng: &mut SmallRng) {
            match obs {
                Observation::Message(m) => self.heard.push((round, Some(*m))),
                Observation::Collision => self.heard.push((round, None)),
                Observation::Silence | Observation::SelfTransmit => {}
            }
        }
    }

    #[test]
    fn sparse_path_matches_dense_path() {
        type Heard = Vec<Vec<(u64, Option<u8>)>>;
        fn run<const SPARSE: bool>(mode: CollisionMode) -> (Heard, RunStats) {
            let g = generators::cluster_chain(5, 4);
            let mut sim = Simulator::new(g, mode, 99, |id| NoisyListener::<SPARSE> {
                rate_num: id.raw() % 4,
                heard: vec![],
            });
            sim.run(200);
            let stats = sim.stats().clone();
            (sim.into_nodes().into_iter().map(|n| n.heard).collect(), stats)
        }
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            let (dense_heard, dense_stats) = run::<false>(mode);
            let (sparse_heard, sparse_stats) = run::<true>(mode);
            assert_eq!(dense_heard, sparse_heard, "observations diverge under {mode:?}");
            assert_eq!(
                (dense_stats.rounds, dense_stats.transmissions, dense_stats.deliveries),
                (sparse_stats.rounds, sparse_stats.transmissions, sparse_stats.deliveries),
            );
            assert_eq!(dense_stats.collisions, sparse_stats.collisions);
            assert_eq!(dense_stats.observe_skips, 0, "dense path must not skip");
            assert!(sparse_stats.observe_skips > 0, "sparse path never engaged");
        }
    }

    #[test]
    fn sparse_round_stats_match_dense() {
        // Per-round stats (incl. `silent`) must be identical on both paths.
        let g = generators::star(8);
        let mut dense = Simulator::new(g.clone(), CollisionMode::Detection, 7, |id| {
            NoisyListener::<false> { rate_num: id.raw() % 3, heard: vec![] }
        });
        let mut sparse =
            Simulator::new(g, CollisionMode::Detection, 7, |id| NoisyListener::<true> {
                rate_num: id.raw() % 3,
                heard: vec![],
            });
        for _ in 0..100 {
            let d = dense.step();
            let s = sparse.step();
            assert_eq!(
                (d.transmitters, d.deliveries, d.collisions, d.silent),
                (s.transmitters, s.deliveries, s.collisions, s.silent)
            );
            assert_eq!(s.observe_skips, 8 - d.deliveries - d.collisions);
        }
    }

    /// Beacons every `period` rounds when active; sleeps otherwise. Records
    /// every RNG draw and every reception so the wake and dense paths can be
    /// compared draw-for-draw. Generic over the wake-hint opt-in.
    #[derive(Debug)]
    struct Periodic<const WAKE: bool> {
        period: u64,
        active: bool,
        draws: Vec<u64>,
        heard: Vec<(u64, Option<u8>)>,
    }

    impl<const WAKE: bool> Protocol for Periodic<WAKE> {
        type Msg = u8;
        const SILENCE_IS_NOOP: bool = true;
        const WAKE_HINTS: bool = WAKE;

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
                Observation::Silence | Observation::SelfTransmit => {}
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

    #[test]
    fn wake_path_matches_dense_path() {
        type Trace = Vec<(Vec<u64>, Vec<(u64, Option<u8>)>)>;
        fn run<const WAKE: bool>(mode: CollisionMode, seed: u64) -> (Trace, RunStats) {
            let g = generators::cluster_chain(4, 4);
            let mut sim = Simulator::new(g, mode, seed, |id| Periodic::<WAKE> {
                period: 1 + u64::from(id.raw() % 5) * 3,
                active: id.index() % 3 != 1,
                draws: vec![],
                heard: vec![],
            });
            sim.run(300);
            let stats = sim.stats().clone();
            (sim.into_nodes().into_iter().map(|n| (n.draws, n.heard)).collect(), stats)
        }
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            for seed in [3u64, 17] {
                let (dense, ds) = run::<false>(mode, seed);
                let (wake, ws) = run::<true>(mode, seed);
                assert_eq!(dense, wake, "trace diverged ({mode:?}, seed {seed})");
                assert_eq!(
                    (ds.rounds, ds.transmissions, ds.deliveries, ds.collisions),
                    (ws.rounds, ws.transmissions, ws.deliveries, ws.collisions),
                    "stats diverged ({mode:?}, seed {seed})"
                );
                assert_eq!(ds.act_skips, 0, "dense path must not skip acts");
                assert!(ws.act_skips > 0, "wake path never skipped an act");
            }
        }
    }

    #[test]
    fn fully_idle_run_is_fast_forwarded() {
        let g = generators::path(64);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| Periodic::<true> {
            period: 1,
            active: false,
            draws: vec![],
            heard: vec![],
        });
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
        // round is simulated, and deliveries match the dense path.
        let g = generators::path(3);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 1, |id| Periodic::<true> {
            period: 1000,
            active: id.index() == 0,
            draws: vec![],
            heard: vec![],
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
    struct Relay<const WAKE: bool> {
        active: bool,
        informed_at: Option<u64>,
    }

    impl<const WAKE: bool> Protocol for Relay<WAKE> {
        type Msg = u8;
        const SILENCE_IS_NOOP: bool = true;
        const WAKE_HINTS: bool = WAKE;
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
        fn informed<const WAKE: bool>() -> Vec<Option<u64>> {
            let g = generators::path(12);
            let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |id| Relay::<WAKE> {
                active: id.index() == 0,
                informed_at: None,
            });
            sim.run(40);
            sim.into_nodes().into_iter().map(|n| n.informed_at).collect()
        }
        let dense = informed::<false>();
        let wake = informed::<true>();
        assert_eq!(dense, wake);
        // The wave must actually have propagated.
        assert_eq!(wake[11], Some(10));
    }

    #[test]
    fn node_mut_rewakes_a_sleeper() {
        let g = generators::path(2);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| Relay::<true> {
            active: false,
            informed_at: None,
        });
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
    fn run_until_with_on_delivery_is_exact_for_reception() {
        fn completion(check: DoneCheck) -> Option<u64> {
            let g = generators::path(8);
            let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |id| Relay::<true> {
                active: id.index() == 0,
                informed_at: None,
            });
            sim.run_until_with(100, check, |ns| ns.iter().all(|n| n.active))
        }
        let exact = completion(DoneCheck::EveryRound);
        assert_eq!(completion(DoneCheck::OnDelivery), exact);
        // Interval checking may overshoot by < k.
        let coarse = completion(DoneCheck::Every(16)).unwrap();
        assert!(coarse >= exact.unwrap() && coarse < exact.unwrap() + 16);
    }

    #[test]
    fn run_until_fast_forwards_idle_tails() {
        // All nodes informed after 3 rounds; predicate never true -> the
        // remaining budget must be fast-forwarded, not stepped.
        let g = generators::path(4);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |id| Periodic::<true> {
            period: 1,
            active: id.index() == 0,
            draws: vec![],
            heard: vec![],
        });
        sim.node_mut(NodeId::new(0)).active = false;
        let res = sim.run_until(50_000, |_| false);
        assert_eq!(res, None);
        assert_eq!(sim.round(), 50_000);
        // Round 0 is stepped (the node_mut wake); everything after is idle.
        assert_eq!(sim.stats().idle_fastforward, 49_999);
    }

    #[test]
    fn sparse_reset_leaves_no_residue() {
        // Alternate transmitting/silent rounds; silent rounds must see clean
        // counters (all Silence, no stale deliveries).
        #[derive(Debug)]
        struct EvenTx;
        impl Protocol for EvenTx {
            type Msg = u8;
            fn act(&mut self, round: u64, _rng: &mut SmallRng) -> Action<u8> {
                if round % 2 == 0 {
                    Action::Transmit(1)
                } else {
                    Action::Listen
                }
            }
            fn observe(&mut self, round: u64, obs: Observation<u8>, _rng: &mut SmallRng) {
                if round % 2 == 1 {
                    assert_eq!(obs, Observation::Silence, "stale counter at round {round}");
                }
            }
        }
        let g = generators::complete(6);
        let mut sim = Simulator::new(g, CollisionMode::Detection, 0, |_| EvenTx);
        sim.run(10);
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
        assert_eq!(sim.node(NodeId::new(1)).seen, vec![Observation::Silence]);
    }

    #[test]
    fn jammer_collides_its_neighborhood() {
        // path 0-1-2 with a jammer at node 1 and nobody transmitting: both
        // neighbors observe a collision (with detection) or silence (without);
        // the host node itself is unaffected.
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
            assert_eq!(sim.node(NodeId::new(1)).seen, vec![Observation::Silence]);
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
        // The wake-vs-dense bit-identity must survive every fault class: the
        // idle-gap clamp steps all scheduled fault rounds, and erasure draws
        // happen only in rounds both paths step.
        type Trace = Vec<(Vec<u64>, Vec<(u64, Option<u8>)>)>;
        fn run<const WAKE: bool>(
            mode: CollisionMode,
            seed: u64,
            plan: FaultPlan,
        ) -> (Trace, RunStats) {
            let g = generators::cluster_chain(4, 4);
            let mut sim = Simulator::new_with_faults(g, mode, seed, plan, |id| Periodic::<WAKE> {
                period: 1 + u64::from(id.raw() % 5) * 3,
                active: id.index() % 3 != 1,
                draws: vec![],
                heard: vec![],
            });
            sim.run(300);
            let stats = sim.stats().clone();
            (sim.into_nodes().into_iter().map(|n| (n.draws, n.heard)).collect(), stats)
        }
        let plans = [
            FaultPlan::none().with_erasure(0.2),
            FaultPlan::none().with_jammer(5, 13, 4),
            FaultPlan::none().with_churn(9, 0.02, 0.05),
            FaultPlan::none().with_erasure(0.1).with_jammer(2, 7, 0).with_churn(11, 0.01, 0.03),
        ];
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            for plan in &plans {
                let (dense, ds) = run::<false>(mode, 17, plan.clone());
                let (wake, ws) = run::<true>(mode, 17, plan.clone());
                assert_eq!(dense, wake, "trace diverged ({mode:?}, {})", plan.label());
                // `act_skips`/`idle_fastforward` legitimately differ between
                // the paths; every semantic field must not.
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
                assert!(ws.act_skips > 0, "wake path never skipped ({})", plan.label());
            }
        }
    }

    #[test]
    fn jam_rounds_are_stepped_and_rewake_sleepers() {
        // All nodes idle except the jam schedule: the wake path must step
        // every jam round (not fast-forward over it), and the induced
        // collision must re-wake a sleeping Relay exactly as on the dense
        // path.
        fn informed<const WAKE: bool>() -> (Vec<Option<u64>>, RunStats) {
            let g = generators::path(4);
            let plan = FaultPlan::none().with_jammer(0, 100, 50);
            let mut sim =
                Simulator::new_with_faults(
                    g,
                    CollisionMode::Detection,
                    0,
                    plan,
                    |_| Relay::<WAKE> { active: false, informed_at: None },
                );
            sim.run(500);
            let stats = sim.stats().clone();
            (sim.into_nodes().into_iter().map(|n| n.informed_at).collect(), stats)
        }
        let (dense, ds) = informed::<false>();
        let (wake, ws) = informed::<true>();
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
