//! Single-message broadcast in `O(D + log^6 n)` rounds with collision
//! detection (Theorem 1.1) — run **adaptively** with phase-completion
//! detection.
//!
//! The pipeline follows the paper's proof:
//!
//! 1. **Collision-wave layering** (needs CD) — every node learns its BFS
//!    distance from the source;
//! 2. **Ring decomposition** — layers are grouped into rings of
//!    [`Params::adaptive_ring_width`] consecutive layers; ring `j`'s roots
//!    are its innermost layer;
//! 3. **Parallel per-ring distributed GST construction** — every ring builds
//!    a GST forest of its induced layering via
//!    [`crate::construction::GstConstructionNode`]; adjacent rings are
//!    interleaved on even/odd rounds (the ring-parity slotting of
//!    [`crate::adaptive`]), which removes the boundary interference the
//!    paper leaves implicit;
//! 4. **Ring-by-ring broadcast** — inside ring `j` the message is broadcast
//!    atop the GST with the schedule of Section 3.2 specialized to one
//!    message and keyed on ring-local *levels* (the Gasieniec–Peleg–Xin
//!    black-box role), then Decay hands the message from ring `j`'s outer
//!    boundary to ring `j+1`'s roots.
//!
//! ## Adaptive phase termination
//!
//! The paper sizes every phase by its worst-case `Θ(·)` formula and runs the
//! windows verbatim; a simulation can instead *detect* phase completion and
//! stop early without weakening the guarantee (the same observation the
//! optimal-broadcast follow-up, Andriambolamalala–Ravelomanana 2017, uses to
//! shave its additive term). Completion is signalled **in-model**, on the
//! radio channel itself: open-ended phases dedicate every
//! [`Params::beep_interval`]-th round as a *status round* in which exactly
//! the nodes with pending work transmit a content-free status beep —
//!
//! * **wave** — a node beeps iff the frontier reached it since the previous
//!   status round; the phase ends [`Params::quiescence_slack`] silent status
//!   rounds after the frontier stops advancing;
//! * **construction** — blues beep while unassigned, reds while active, so
//!   quiescent rank blocks, epochs and recruiting tails are skipped; the
//!   phase ends when every ring's forest is quiescent;
//! * **broadcast / handoff** — a ring node beeps while uninformed; ring
//!   `j`'s window closes once the ring (in particular its outer boundary) is
//!   informed, and a handoff ends once ring `j+1`'s roots are informed.
//!
//! The driver that advances the shared phase cursor reads *only* the
//! channel-level outcome of status rounds ("did anybody transmit?"), never
//! node state or topology — it plays the part of the `O(D)`-round echo /
//! termination-detection subprotocol such adaptive algorithms run in-band,
//! with the echo cost folded into the status-round accounting. Nodes learn
//! the cursor through a shared step cell, modelling the outcome of that
//! same echo; the [`radio_sim::Protocol`] trait stays pure and leaks no
//! topology. The driver, and the wave and construction half of every node,
//! are the ones both adaptive pipelines share (see [`crate::adaptive`]);
//! this module supplies the rest of the phase sequence, its probes and the
//! node's back half.
//!
//! The worst case is still enforced: every phase is hard-capped by its
//! paper-sized window, and [`Ghk1Plan::total_rounds`] (the sum of all caps,
//! including the status-round overhead, still `O(D + log^6 n)`) bounds any
//! run — `tests/regression_rounds.rs` asserts it.

use crate::adaptive::{
    self, narrow, wake_at, Budget, Driver, FrontPlan, Msg, Pacing, Pipeline, RingCore, RingNode,
    Step, WindowEnd,
};
use crate::construction::NodeStats;
use crate::params::Params;
use crate::run::Detail;
use crate::schedule::{
    EmptyBehavior, MmvScheduleNode, SchedAudit, SchedLabels, SchedMsg, ScheduleConfig, SlowKey,
};
use radio_sim::graph::bfs_layering;
use radio_sim::{
    Action, CollisionMode, FaultPlan, NodeId, Observation, Protocol, Simulator, Topology, Wake,
};
use rand::rngs::SmallRng;
use rlnc::gf2::BitVec;
use std::cell::Cell;
use std::rc::Rc;

/// The Theorem 1.1 pipeline's own messages (beside the wave, construction
/// and status traffic of [`Msg`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Ghk1Msg {
    /// In-ring broadcast traffic.
    Sched(SchedMsg),
    /// Inter-ring handoff carrying the message payload.
    Handoff(u64),
}

/// The Theorem 1.1 pipeline's own phases, after the shared wave and
/// construction (see `adaptive::Phase`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ghk1Phase {
    /// In-ring broadcast window of `ring`.
    Broadcast {
        /// The active ring.
        ring: u32,
    },
    /// Handoff from `ring` to `ring + 1`.
    Handoff {
        /// The transmitting ring.
        ring: u32,
    },
    /// Rung-2 recovery: regional Decay re-dissemination across the failed
    /// ring ± 1. Holders in the region flood the payload; region nodes *and*
    /// ring-less strays (the churn/mobility victims rung 2 exists for) adopt
    /// it.
    Regional {
        /// The center ring of the region.
        ring: u32,
    },
    /// No-knowledge Decay fallback (Czumaj–Davies regime): every holder
    /// floods the payload on the Decay schedule, every node adopts it
    /// ring-agnostically. Rung 3 of the recovery ladder — armed by the
    /// driver only after rungs 1–2 failed.
    Fallback,
}

/// The Theorem 1.1 pipeline's own status probes (beside the shared wave and
/// construction probes of `adaptive::Probe`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ghk1Probe {
    /// Broadcast window: "a node of `ring` still missing the message?"
    RingUninformed {
        /// The ring whose window is open.
        ring: u32,
    },
    /// Handoff window: "a root of `ring` still missing the message?"
    RootsUninformed {
        /// The *receiving* ring.
        ring: u32,
    },
}

/// The worst-case phase budgets of the pipeline — the adaptive run's hard
/// caps. [`Ghk1Plan::total_rounds`] is the guaranteed-completion bound of
/// Theorem 1.1 (with the paper's `Θ(·)` constants instantiated by
/// [`Params`], plus the `1/beep_interval` status-round overhead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ghk1Plan {
    /// Rings, construction schedule, and the wave and construction caps.
    pub front: FrontPlan,
    /// Cap on one in-ring broadcast window (work + status rounds).
    pub bcast_window: u64,
    /// Cap on one inter-ring handoff window (work + status rounds).
    pub handoff_window: u64,
}

impl Ghk1Plan {
    /// Builds the plan for diameter bound `d_bound` under `params`.
    pub fn new(params: &Params, d_bound: u32) -> Self {
        let front = FrontPlan::new(params, d_bound);
        let slack = u64::from(params.window_slack);
        let beep = u64::from(params.beep_interval.max(1));
        let l2 = u64::from(params.log_n) * u64::from(params.log_n);
        let bcast_work = slack * (2 * u64::from(front.ring_width) + 2 * l2);
        let handoff_work = slack * l2;
        Ghk1Plan {
            front,
            bcast_window: bcast_work + bcast_work / beep + 2,
            handoff_window: handoff_work + handoff_work / beep + 2,
        }
    }

    /// Total worst-case pipeline rounds — the hard cap every adaptive run
    /// respects.
    pub fn total_rounds(&self) -> u64 {
        let rings = self.front.ring_count;
        self.front.total_rounds()
            + u64::from(rings) * self.bcast_window
            + u64::from(rings.saturating_sub(1)) * self.handoff_window
    }
}

impl AsRef<FrontPlan> for Ghk1Plan {
    fn as_ref(&self) -> &FrontPlan {
        &self.front
    }
}

/// One node of the Theorem 1.1 pipeline: the shared front half plus the
/// payload, its MMV schedule and the broadcast labels.
///
/// Memory model: beside the front half (see [`RingCore`]), the boxed
/// MMV-schedule state lives only while the node's ring is broadcasting
/// (retired by the driver once the ring's handoff closes), and the
/// construction state is dropped at finalization (its labels and accounting
/// survive inline). At any round, resident state tracks the active frontier
/// instead of accumulating `O(n)` copies of every sub-protocol.
#[derive(Clone, Debug)]
pub(crate) struct Ghk1Node {
    core: RingCore<Ghk1Node>,
    sched: Option<Box<MmvScheduleNode>>,
    /// Broadcast-schedule labels, extracted when construction state retires.
    labels: Option<SchedLabels>,
    /// Construction accounting kept after the construction state is dropped.
    cons_stats: Option<NodeStats>,
    /// Audit counters absorbed from retired schedule state.
    audit_acc: SchedAudit,
    message: Option<u64>,
}

impl Ghk1Node {
    /// Whether this node holds (or has decoded) the message.
    fn has_message(&self) -> bool {
        self.message.is_some() || self.unharvested()
    }

    /// Whether the schedule has decoded a message the node has not
    /// harvested yet (the recovery phases' `act` harvests it).
    fn unharvested(&self) -> bool {
        self.message.is_none() && self.sched.as_ref().is_some_and(|s| s.is_complete())
    }

    /// The message, once held. A payload the schedule decoded but the node
    /// has not harvested yet is decoded on the spot, matching
    /// [`Ghk1Node::has_message`].
    #[cfg(test)]
    fn message(&self) -> Option<u64> {
        self.message.or_else(|| self.decoded())
    }

    /// Construction fallback/orphan accounting (kept after the construction
    /// state itself is dropped).
    fn construction_stats(&self) -> Option<NodeStats> {
        self.core.cons.as_ref().map(|c| c.stats()).or(self.cons_stats)
    }

    /// The node's ring index, once derived.
    fn ring(&self) -> Option<u32> {
        self.core.ring.map(|(r, _)| r)
    }

    /// Whether this node is on `ring`'s outer boundary.
    fn outer_of(&self, ring: u32) -> bool {
        self.core.ring == Some((ring, self.core.front().ring_width - 1))
    }

    /// Whether this node's ring lies within `ring` ± 1.
    fn in_region(&self, ring: u32) -> bool {
        self.ring().is_some_and(|r| r + 1 >= ring && r <= ring.saturating_add(1))
    }

    /// The payload the live schedule node decodes, if it is complete.
    fn decoded(&self) -> Option<u64> {
        let decoded = self.sched.as_ref()?.decoder().decode()?;
        let mut value = 0u64;
        for (b, bit) in (0..64).zip(0..decoded[0].len().min(64)) {
            if decoded[0].get(bit) {
                value |= 1 << b;
            }
        }
        Some(value)
    }

    /// Harvests the decoded message out of the schedule node, if complete.
    fn harvest(&mut self) {
        if self.message.is_none() {
            self.message = self.decoded();
        }
    }

    /// Applies the construction epilogue once the phase is announced over
    /// (pending recruiting-part results + the unassigned-blue fallback),
    /// then retires the construction state: the broadcast-schedule labels
    /// and the fallback/orphan accounting move inline and the construction
    /// node itself is dropped. Only repair rungs rebuild it, from scratch.
    fn finalize_construction(&mut self) {
        self.core.finalize_cons();
        if let Some(c) = self.core.cons.take() {
            let l = c.labels();
            self.labels = Some(SchedLabels {
                level: l.level,
                rank: l.rank,
                vdist: 0,
                stretch_start: l.is_stretch_start(),
                fast_transmitter: l.has_stretch_child,
                in_stretch: l.in_stretch(),
            });
            self.cons_stats = Some(c.stats());
        }
    }

    /// Absorbs and drops the schedule state (the payload must already be
    /// harvested by the caller when it matters).
    fn retire_sched(&mut self) {
        if let Some(s) = self.sched.take() {
            self.audit_acc.absorb(s.audit());
        }
    }

    /// Driver echo retiring a ring whose broadcast and outgoing handoff
    /// windows have closed: the decoded payload is harvested into the shell
    /// and the ring's schedule state is dropped (audit counters absorbed),
    /// so resident state follows the active ring frontier. Safe because a
    /// retired ring's nodes only ever read `message`/`decay` afterwards, and
    /// every repair path rebuilds from scratch.
    fn retire_ring(&mut self, ring: u32) {
        if self.ring() == Some(ring) {
            self.harvest();
            self.retire_sched();
        }
    }

    /// Driver echo arming a rung-1 ring repair: nodes of `ring` shed their
    /// construction + schedule state (harvesting any decoded payload first,
    /// so an informed node stays informed) and rebuild from scratch on the
    /// repair rounds; every other ring's GST stays intact.
    fn repair_ring(&mut self, ring: u32) {
        if self.core.derived_ring().is_some_and(|(r, _)| r == ring) {
            self.harvest();
            self.retire_sched();
            self.core.cons = None;
            self.labels = None;
        }
    }

    /// Construction epilogue of a rung-1 repair, applied only to the
    /// repaired ring (the other rings were finalized after the main
    /// construction phase and must not be re-finalized).
    fn finalize_ring(&mut self, ring: u32) {
        if self.ring() == Some(ring) {
            self.finalize_construction();
        }
    }

    fn ensure_sched(&mut self) {
        if self.sched.is_none() {
            // Labels were extracted when the construction state retired
            // (`finalize_construction`), so the schedule springs into
            // existence without the construction node being resident.
            if let (Some(labels), Some(_)) = (self.labels, self.core.ring) {
                let cfg = ScheduleConfig {
                    log_n: self.core.params.log_n,
                    slow_key: SlowKey::Level,
                    empty: EmptyBehavior::Silent,
                };
                let mut node = MmvScheduleNode::new(cfg, labels, 1, 64);
                if let Some(m) = self.message {
                    node = node.with_messages(&[BitVec::from_u64(m, 64)]);
                }
                self.sched = Some(Box::new(node));
            }
        }
    }

    /// A holder allowed to (`gate`) floods the payload on the Decay schedule;
    /// the Decay coin is drawn only for gated holders.
    fn flood(&mut self, gate: bool, offset: u64, rng: &mut SmallRng) -> Action<Msg<Ghk1Msg>> {
        match self.message {
            Some(m) if gate && self.core.decay().fires(offset, rng) => {
                Action::Transmit(Msg::Own(Ghk1Msg::Handoff(m)))
            }
            _ => Action::Listen,
        }
    }

    /// Takes a heard handoff payload as the message, unless one is held.
    fn adopt(&mut self, obs: &Observation<Msg<Ghk1Msg>>) {
        if let (None, Observation::Message(p)) = (self.message, obs) {
            if let Msg::Own(Ghk1Msg::Handoff(m)) = &**p {
                self.message = Some(*m);
            }
        }
    }
}

impl RingNode for Ghk1Node {
    type Plan = Ghk1Plan;
    type Own = Ghk1Phase;
    type OwnProbe = Ghk1Probe;
    type OwnMsg = Ghk1Msg;

    fn core(&self) -> &RingCore<Self> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RingCore<Self> {
        &mut self.core
    }

    fn wake(&self, phase: Ghk1Phase, offset: u64, round: u64) -> Wake {
        match phase {
            Ghk1Phase::Broadcast { ring } => {
                let Some(my_ring) = self.ring() else { return self.core.unringed() };
                if my_ring != ring {
                    return Wake::Idle;
                }
                let Some(s) = &self.sched else { return Wake::Now };
                wake_at(round, round + (s.next_act_round(offset) - offset))
            }
            Ghk1Phase::Handoff { ring } => {
                if self.core.ring.is_none() {
                    return self.core.unringed();
                }
                // Outer-boundary holders sample Decay every round, and any
                // node harvests a payload its schedule decoded.
                if self.outer_of(ring) && self.has_message() || self.unharvested() {
                    Wake::Now
                } else {
                    Wake::Idle
                }
            }
            // Region holders (in the fallback, every holder) sample Decay
            // every round, and any node harvests a decoded payload;
            // everyone else sleeps until a payload delivery re-wakes them
            // (adoption happens in `observe`, which marks the node dirty, so
            // an adopting node starts flooding on its next round).
            Ghk1Phase::Regional { ring }
                if self.in_region(ring) && self.has_message() || self.unharvested() =>
            {
                Wake::Now
            }
            Ghk1Phase::Fallback if self.has_message() => Wake::Now,
            Ghk1Phase::Regional { .. } | Ghk1Phase::Fallback => Wake::Idle,
        }
    }

    fn act_own(
        &mut self,
        phase: Ghk1Phase,
        offset: u64,
        rng: &mut SmallRng,
    ) -> Action<Msg<Ghk1Msg>> {
        match phase {
            Ghk1Phase::Broadcast { ring } => {
                if self.ring() != Some(ring) {
                    return Action::Listen;
                }
                // Only the broadcasting ring holds schedule state (see the
                // memory model on `Ghk1Node`).
                self.ensure_sched();
                // A late holder (handoff) seeds the schedule decoder lazily.
                if offset == 0 {
                    if let (Some(m), Some(s)) = (self.message, self.sched.as_deref_mut()) {
                        if s.decoder().is_empty() {
                            *s = s.clone().with_messages(&[BitVec::from_u64(m, 64)]);
                        }
                    }
                }
                match self.sched.as_mut().expect("created above").act(offset, rng) {
                    Action::Transmit(m) => Action::Transmit(Msg::Own(Ghk1Msg::Sched(m))),
                    Action::Listen => Action::Listen,
                }
            }
            Ghk1Phase::Handoff { ring } => {
                self.harvest();
                let outer = self.outer_of(ring);
                self.flood(outer, offset, rng)
            }
            Ghk1Phase::Regional { ring } => {
                self.harvest();
                let in_region = self.in_region(ring);
                self.flood(in_region, offset, rng)
            }
            Ghk1Phase::Fallback => {
                self.harvest();
                self.flood(true, offset, rng)
            }
        }
    }

    fn observe_own(
        &mut self,
        phase: Ghk1Phase,
        offset: u64,
        obs: Observation<Msg<Ghk1Msg>>,
        rng: &mut SmallRng,
    ) {
        match phase {
            Ghk1Phase::Broadcast { ring } => {
                if self.ring() != Some(ring) {
                    return;
                }
                let mapped = narrow(&obs, |m| match m {
                    Msg::Own(Ghk1Msg::Sched(s)) => Some(s.clone()),
                    _ => None,
                });
                if let Some(s) = self.sched.as_mut() {
                    s.observe(offset, mapped, rng);
                }
            }
            Ghk1Phase::Handoff { ring } => {
                if self.core.ring == Some((ring + 1, 0)) {
                    self.adopt(&obs);
                }
            }
            Ghk1Phase::Regional { ring } => {
                // Region nodes adopt, and so do ring-less strays — the
                // churn/mobility victims the regional rung exists for.
                if self.core.derived_ring().is_none() || self.in_region(ring) {
                    self.adopt(&obs);
                }
            }
            // Ring-agnostic adoption: the whole point of the fallback is
            // reaching nodes the faulted setup phases left without a ring.
            Ghk1Phase::Fallback => self.adopt(&obs),
        }
    }

    fn answer(&mut self, probe: Ghk1Probe) -> bool {
        match probe {
            Ghk1Probe::RingUninformed { ring } => {
                self.core.derived_ring().is_some_and(|(r, _)| r == ring) && !self.has_message()
            }
            Ghk1Probe::RootsUninformed { ring } => {
                self.core.derived_ring() == Some((ring, 0)) && !self.has_message()
            }
        }
    }
}

impl Protocol for Ghk1Node {
    type Msg = Msg<Ghk1Msg>;

    fn next_wake(&self, round: u64) -> Wake {
        adaptive::next_wake(self, round)
    }

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<Self::Msg> {
        adaptive::hint_checked_act(self, round, rng)
    }

    fn observe(&mut self, round: u64, obs: Observation<Self::Msg>, rng: &mut SmallRng) {
        adaptive::observe(self, round, obs, rng);
    }
}

impl Pipeline for Ghk1Node {
    type Run = Ghk1Plan;
    const FALLBACK: Ghk1Phase = Ghk1Phase::Fallback;

    fn is_complete(&self) -> bool {
        self.has_message()
    }

    /// The shell plus each live boxed sub-state at its `size_of`. Internal
    /// heap of the sub-states (recruiting buffers, decoder rows) is excluded
    /// on both sides of the streamed-vs-materialized comparison, as are the
    /// engine's own `O(n)` buffers.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.core.resident_bytes()
            + self.sched.as_ref().map_or(0, |_| std::mem::size_of::<MmvScheduleNode>())
    }

    /// The counters absorbed from retired schedule state plus any still-live
    /// schedule.
    fn audit(&self) -> SchedAudit {
        let mut a = self.audit_acc;
        if let Some(s) = &self.sched {
            a.absorb(s.audit());
        }
        a
    }

    fn vote_budget(_: Ghk1Probe) -> Option<Budget> {
        None
    }

    /// The shared front half, then ring by ring: the ring's broadcast window
    /// and the handoff to the next ring's roots. Anchors recovery at the
    /// last ring.
    fn phases<T: Topology>(d: &mut Driver<Self, T>) -> u32 {
        let plan = d.plan;
        d.front();
        // End-of-construction echo: every node runs its local block epilogue
        // (pending recruiting results + unassigned-blue fallback), then
        // retires its construction state (labels move inline). The fixed
        // schedule reaches this state lazily through later blocks' rounds;
        // the adaptive driver may have skipped those blocks entirely.
        d.echo(Ghk1Node::finalize_construction);
        let rings = plan.front.ring_count;
        for ring in 0..rings {
            if d.done() {
                break;
            }
            let _ = d.window(
                plan.bcast_window,
                Ghk1Probe::RingUninformed { ring },
                false,
                Ghk1Phase::Broadcast { ring },
                |p| &mut p.disseminate,
            );
            // The ring's schedule state is live now; sample before anything
            // retires it.
            d.sample_state();
            let handed_off = ring + 1 == rings
                || d.done()
                || d.handoff(
                    plan.handoff_window,
                    Ghk1Probe::RootsUninformed { ring: ring + 1 },
                    false,
                    Ghk1Phase::Handoff { ring },
                    ring,
                );
            if !handed_off {
                break; // both rungs failed: on to the rung-3 fallback
            }
            // Ring `ring` is done transmitting its schedule (its broadcast
            // window closed and its outgoing handoff — if any — resolved):
            // retire its schedule state so resident memory tracks the active
            // frontier. Repair rungs rebuild from scratch if ever needed.
            d.echo(|n| n.retire_ring(ring));
        }
        rings - 1
    }

    /// Re-runs the *failed ring's* construction and dissemination with fresh
    /// budget, keeping every other ring's GST intact. The ring's nodes drop
    /// their construction and schedule state (harvesting any decoded payload
    /// first), rebuild it through the construction skip loop restricted to
    /// that ring, then replay the ring's broadcast window and a fresh handoff
    /// window — all drawn from what remains of the worst-case pool.
    fn ring_repair<T: Topology>(d: &mut Driver<Self, T>, ring: u32) -> bool {
        let plan = d.plan;
        d.echo(|n| n.repair_ring(ring));
        d.construct(Some(ring));
        d.echo(|n| n.finalize_ring(ring));
        if d.done() {
            return true;
        }
        let bcast = plan.bcast_window.min(d.budget_left());
        let _ = d.window(
            bcast,
            Ghk1Probe::RingUninformed { ring },
            false,
            Ghk1Phase::Broadcast { ring },
            |p| &mut p.repair,
        );
        if d.done() {
            return true;
        }
        if ring + 1 >= plan.front.ring_count {
            return false;
        }
        let budget = plan.handoff_window.min(d.budget_left());
        d.window(
            budget,
            Ghk1Probe::RootsUninformed { ring: ring + 1 },
            false,
            Ghk1Phase::Handoff { ring },
            |p| &mut p.repair,
        ) == WindowEnd::Quiesced
    }

    /// Every holder in the failed ring ± 1 floods the payload on the Decay
    /// schedule, covering churn/mobility that moved the frontier across ring
    /// boundaries. Budgeted at two handoff windows from the remaining pool.
    fn regional_repair<T: Topology>(d: &mut Driver<Self, T>, ring: u32) -> bool {
        let plan = d.plan;
        let budget = (2 * plan.handoff_window).min(d.budget_left());
        let probe = if ring + 1 < plan.front.ring_count {
            Ghk1Probe::RootsUninformed { ring: ring + 1 }
        } else {
            Ghk1Probe::RingUninformed { ring }
        };
        d.window(budget, probe, false, Ghk1Phase::Regional { ring }, |p| &mut p.repair)
            == WindowEnd::Quiesced
    }

    fn detail(plan: &Ghk1Plan, nodes: &[Self], fallback_entry: Option<u64>) -> Detail {
        let fallbacks = nodes
            .iter()
            .filter(|n| n.construction_stats().is_some_and(|s| s.fallback_used))
            .count();
        Detail::Single { plan: *plan, fallbacks, fallback_entry }
    }
}

/// Builds the Theorem 1.1 driver that
/// [`Scenario`](crate::run::Scenario) runs for
/// [`Workload::Single`](crate::run::Workload::Single), over any
/// [`Topology`]: a shared `Arc<Graph>` or a streamed
/// [`ImplicitGraph`](radio_sim::ImplicitGraph). The run depends only on the
/// neighborhoods the topology reports, so a streamed run is bit-identical to
/// the same run over its materialization. The diameter-derived plan is
/// computed from the *initial* topology (churn and mobility do not get to
/// re-negotiate the round budget). The scenario has passed
/// [`Scenario::validate`](crate::run::Scenario::validate).
#[expect(clippy::too_many_arguments, reason = "every knob of a Theorem 1.1 run")]
pub(crate) fn driver<T: Topology>(
    topology: T,
    source: NodeId,
    payload: u64,
    params: &Params,
    seed: u64,
    mode: CollisionMode,
    pacing: Pacing,
    faults: &FaultPlan,
) -> Driver<Ghk1Node, T> {
    let d = bfs_layering(&topology, &[source]).max_level();
    let plan = Ghk1Plan::new(params, d.max(1));
    let (shared_params, shared_plan) = (Rc::new(params.clone()), Rc::new(plan));
    let step = Rc::new(Cell::new(Step::Idle));
    let sim = Simulator::new_with_faults(topology, mode, seed, faults.clone(), |id| Ghk1Node {
        core: RingCore::new(&shared_params, &shared_plan, &step, id.raw(), id == source, pacing),
        sched: None,
        labels: None,
        cons_stats: None,
        audit_acc: SchedAudit::default(),
        message: (id == source).then_some(payload),
    });
    Driver::new(sim, step, plan, plan.total_rounds(), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Outcome;
    use radio_sim::graph::generators;
    use radio_sim::rng::stream_rng;
    use radio_sim::Graph;

    /// Runs Theorem 1.1 from node 0 with segment pacing and no faults.
    fn run(g: Graph, payload: u64, params: &Params, seed: u64, mode: CollisionMode) -> Outcome {
        let none = FaultPlan::none();
        driver(g, NodeId::new(0), payload, params, seed, mode, Pacing::Segment, &none).run()
    }

    fn plan(out: &Outcome) -> Ghk1Plan {
        let Detail::Single { plan, .. } = out.detail else { panic!("not a Theorem 1.1 outcome") };
        plan
    }

    fn check_completes(g: Graph, seed: u64) -> Outcome {
        let params = Params::scaled(g.node_count());
        let out = run(g, 0xDADA, &params, seed, CollisionMode::Detection);
        let done = out.completion_round.unwrap_or_else(|| {
            panic!("broadcast did not complete within {} rounds (plan {:?})", out.cap, plan(&out))
        });
        assert!(done <= out.cap, "completion {done} exceeds the worst-case cap {}", out.cap);
        assert_eq!(out.cap, plan(&out).total_rounds());
        assert_eq!(out.phases.total(), out.stats.rounds, "phase accounting must match the run");
        out
    }

    #[test]
    fn completes_on_path() {
        check_completes(generators::path(20), 1);
    }

    #[test]
    fn completes_on_star() {
        check_completes(generators::star(16), 2);
    }

    #[test]
    fn completes_on_grid() {
        check_completes(generators::grid(5, 5), 3);
    }

    #[test]
    fn completes_on_cluster_chain() {
        check_completes(generators::cluster_chain(5, 5), 4);
    }

    #[test]
    fn completes_on_random_graph() {
        let mut rng = stream_rng(11, 0);
        let g = generators::gnp_connected(40, 0.1, &mut rng);
        check_completes(g, 5);
    }

    #[test]
    fn completes_with_forced_rings() {
        // Force small rings so the multi-ring path (parallel construction,
        // handoffs) is exercised.
        let g = generators::cluster_chain(8, 4);
        let mut params = Params::scaled(32);
        params.ring_width = Some(4);
        let out = run(g, 99, &params, 6, CollisionMode::Detection);
        assert!(plan(&out).front.ring_count > 1, "expected multiple rings");
        assert!(
            out.completion_round.is_some(),
            "multi-ring broadcast failed (plan {:?})",
            plan(&out)
        );
    }

    #[test]
    fn every_node_holds_the_exact_payload() {
        // Completion is `has_message` everywhere; this checks the payload
        // value itself survived every hop: schedule decode, handoffs, and
        // the lazy harvest of nodes the run stopped before harvesting.
        let g = generators::cluster_chain(4, 5);
        let params = Params::scaled(g.node_count());
        for seed in [2u64, 5, 11] {
            let mut d = driver(
                g.clone(),
                NodeId::new(0),
                0xC0FFEE,
                &params,
                seed,
                CollisionMode::Detection,
                Pacing::Segment,
                &FaultPlan::none(),
            );
            d.drive();
            assert!(d.done(), "seed {seed}: the run did not complete");
            for (i, n) in d.sim.nodes().iter().enumerate() {
                assert_eq!(n.message(), Some(0xC0FFEE), "seed {seed}: node {i} wrong payload");
            }
        }
    }

    #[test]
    fn ring_repair_rebuilds_construction_state_only_in_the_repaired_ring() {
        // The corridor under 20% erasure at seed 1 (the run
        // `corridor_recovers_under_heavy_erasure` pins) climbs to rung 1.
        // The repair's forced wakes poll every node, but only the repaired
        // ring may rebuild construction state, and its finalize echo retires
        // it again: no node ends the run holding any, and the one node that
        // took the construction fallback is still counted.
        let g = generators::cluster_chain(20, 6);
        let params = Params::scaled(g.node_count());
        let faults = FaultPlan::none().with_erasure(0.2);
        let (mode, pacing) = (CollisionMode::Detection, Pacing::Segment);
        let mut d = driver(g, NodeId::new(0), 0xA1E57, &params, 1, mode, pacing, &faults);
        d.drive();
        assert!(d.sim.stats().ring_repairs > 0, "the run no longer reaches rung 1");
        let holders = d.sim.nodes().iter().filter(|n| n.core.cons.is_some()).count();
        assert_eq!(holders, 0, "nodes still hold construction state at the end of the run");
        let Detail::Single { fallbacks, .. } = Ghk1Node::detail(&d.plan, d.sim.nodes(), None)
        else {
            unreachable!()
        };
        assert_eq!(fallbacks, 1, "the construction fallback count is masked");
    }

    #[test]
    fn adaptive_run_is_far_below_the_cap() {
        // The whole point of adaptivity: actual rounds ≪ worst-case budget.
        let out = check_completes(generators::cluster_chain(10, 5), 7);
        let done = out.completion_round.unwrap();
        assert!(
            done * 10 <= out.cap,
            "adaptive run ({done}) should be at least 10x below the cap ({})",
            out.cap
        );
        assert!(out.phases.status > 0, "no status rounds were spent");
    }

    #[test]
    fn phase_budgets_compose_into_the_cap() {
        let params = Params::scaled(64);
        let plan = Ghk1Plan::new(&params, 10);
        let front = plan.front;
        assert!(front.wave_budget >= 10, "wave budget must cover D rounds");
        assert_eq!(
            plan.total_rounds(),
            front.wave_budget
                + front.cons_rounds
                + front.cons_status
                + u64::from(front.ring_count) * plan.bcast_window
                + u64::from(front.ring_count - 1) * plan.handoff_window
        );

        let mut p2 = params.clone();
        p2.ring_width = Some(3);
        let plan2 = Ghk1Plan::new(&p2, 10);
        assert!(plan2.front.ring_count > 1);
        assert!(
            plan2.front.cons_rounds < front.cons_rounds || front.ring_count > 1,
            "narrow rings must shrink the (parallel) construction budget"
        );
    }

    #[test]
    fn single_node_graph_trivially_done() {
        let g = Graph::from_edges(1, []).unwrap();
        let params = Params::scaled(1);
        let out = run(g, 1, &params, 0, CollisionMode::Detection);
        assert_eq!(out.completion_round, Some(0));
    }

    #[test]
    fn no_detection_mode_completes_through_repair() {
        // Without CD the wave jams on this diamond and the pipeline ends its
        // rings incomplete; the recovery ladder's ring-local and regional
        // repairs finish the broadcast well within the cap.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let params = Params::scaled(4);
        let out = run(g, 1, &params, 0, CollisionMode::NoDetection);
        assert_eq!((out.completion_round, out.cap), (Some(64), 2_736));
        assert_eq!(out.phases.total(), out.stats.rounds);
        let s = &out.stats;
        assert_eq!((s.ring_repairs, s.regional_repairs, s.fallback_rounds), (1, 1, 0));
    }
}
