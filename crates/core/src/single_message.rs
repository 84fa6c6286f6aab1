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
//!    interleaved on even/odd rounds
//!    ([`Slotted`](crate::construction::Slotted)-style), which removes the
//!    boundary interference the paper leaves implicit;
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
//! the nodes with pending work transmit a content-free beep
//! ([`Ghk1Msg::Status`]) —
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
//! the cursor through a shared [`StepCell`], modelling the outcome of that
//! same echo; the [`radio_sim::Protocol`] trait stays pure and leaks no
//! topology. The driver itself is the one both adaptive pipelines share
//! (see [`crate::adaptive`]); this module supplies the phase sequence, the
//! probes and the node.
//!
//! The worst case is still enforced: every phase is hard-capped by its
//! paper-sized window, and [`Ghk1Plan::total_rounds`] (the sum of all caps,
//! including the status-round overhead, still `O(D + log^6 n)`) bounds any
//! run — `tests/regression_rounds.rs` asserts it.

use crate::adaptive::{
    answer_cons_probe, cons_status_budget, hint_checked_act, narrow, Advance, Budget, ConsProbe,
    Driver, Pacing, Pipeline, Segment, Step, StepCell, WindowEnd,
};
use crate::construction::{ConstructionSchedule, GstConstructionNode, GstMsg};
use crate::decay::DecaySchedule;
use crate::layering::{Beep, CollisionWaveLayering};
use crate::params::Params;
use crate::run::Detail;
use crate::schedule::{
    EmptyBehavior, MmvScheduleNode, SchedAudit, SchedLabels, SchedMsg, ScheduleConfig, SlowKey,
};
use radio_sim::graph::bfs_layering;
use radio_sim::model::PacketBits;
use radio_sim::{
    Action, CollisionMode, FaultPlan, NodeId, Observation, Protocol, Simulator, Topology, Wake,
};
use rand::rngs::SmallRng;
use rlnc::gf2::BitVec;
use std::cell::Cell;
use std::rc::Rc;

/// Messages of the Theorem 1.1 pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ghk1Msg {
    /// Collision-wave beep.
    Wave(Beep),
    /// GST-construction traffic.
    Gst(GstMsg),
    /// In-ring broadcast traffic.
    Sched(SchedMsg),
    /// Inter-ring handoff carrying the message payload.
    Handoff(u64),
    /// Content-free status beep of the adaptive termination protocol.
    Status,
}

impl PacketBits for Ghk1Msg {
    fn packet_bits(&self) -> usize {
        3 + match self {
            Ghk1Msg::Wave(b) => b.packet_bits(),
            Ghk1Msg::Gst(m) => m.packet_bits(),
            Ghk1Msg::Sched(m) => m.packet_bits(),
            Ghk1Msg::Handoff(_) => 64,
            Ghk1Msg::Status => 0,
        }
    }
}

/// A position inside one pipeline phase — the adaptive counterpart of the
/// old fixed round partition. Offsets are *virtual*: they count the phase's
/// own work rounds, excluding interleaved status rounds, so every in-phase
/// schedule (wave, slotted construction, MMV broadcast, handoff Decay) sees
/// exactly the round sequence it would under fixed windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhasePos {
    /// Collision-wave layering work round.
    Wave {
        /// Wave round.
        offset: u64,
    },
    /// Parity-slotted parallel GST construction work round: rings with
    /// `ring % 2 == offset % 2` run construction round `offset / 2`.
    Construct {
        /// Slotted construction round.
        offset: u64,
    },
    /// In-ring broadcast work round of `ring`.
    Broadcast {
        /// The active ring.
        ring: u32,
        /// Round within the window.
        offset: u64,
    },
    /// Handoff work round from `ring` to `ring + 1`.
    Handoff {
        /// The transmitting ring.
        ring: u32,
        /// Round within the window.
        offset: u64,
    },
    /// Rung-1 recovery work round: unslotted re-construction of one failed
    /// ring's GST (its nodes shed their construction + schedule state via
    /// the `Ghk1Node::repair_ring` echo first). Only `ring`'s nodes act —
    /// no parity slotting is needed with a single ring running — so `offset`
    /// maps 1:1 onto the construction schedule round.
    RepairConstruct {
        /// The ring under repair.
        ring: u32,
        /// Construction schedule round.
        offset: u64,
    },
    /// Rung-2 recovery work round: regional Decay re-dissemination across
    /// the failed ring ± 1. Holders in the region flood the payload; region
    /// nodes *and* ring-less strays (the churn/mobility victims rung 2
    /// exists for) adopt it.
    Regional {
        /// The center ring of the region.
        ring: u32,
        /// Round within the regional flood.
        offset: u64,
    },
    /// No-knowledge Decay fallback work round (Czumaj–Davies regime): every
    /// holder floods the payload on the Decay schedule, every node adopts it
    /// ring-agnostically. Rung 3 of the recovery ladder — armed by the
    /// driver only on faulted runs after rungs 1–2 failed.
    Fallback {
        /// Round within the fallback phase.
        offset: u64,
    },
}

impl Advance for PhasePos {
    fn advanced(self, delta: u64) -> Self {
        match self {
            PhasePos::Wave { offset } => PhasePos::Wave { offset: offset + delta },
            PhasePos::Construct { offset } => PhasePos::Construct { offset: offset + delta },
            PhasePos::Broadcast { ring, offset } => {
                PhasePos::Broadcast { ring, offset: offset + delta }
            }
            PhasePos::Handoff { ring, offset } => {
                PhasePos::Handoff { ring, offset: offset + delta }
            }
            PhasePos::RepairConstruct { ring, offset } => {
                PhasePos::RepairConstruct { ring, offset: offset + delta }
            }
            PhasePos::Regional { ring, offset } => {
                PhasePos::Regional { ring, offset: offset + delta }
            }
            PhasePos::Fallback { offset } => PhasePos::Fallback { offset: offset + delta },
        }
    }
}

/// What a status round asks: a node transmits a beep iff the predicate holds
/// for it. Construction probes (see [`ConsProbe`]) address ring-local
/// boundaries/ranks, so one probe covers every ring at once (the rings share
/// the cursor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Wave phase: "did the frontier reach you since the last status round?"
    WaveProgress,
    /// A construction status probe (shared with the Theorem 1.3 pipeline).
    Cons(ConsProbe),
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
    /// Rung-1 repair: a construction probe answered *only* by nodes of the
    /// ring under repair (normal [`Probe::Cons`] probes cover every ring at
    /// once; the repair re-runs a single ring's construction).
    RepairCons {
        /// The ring under repair.
        ring: u32,
        /// The construction probe.
        probe: ConsProbe,
    },
    /// Fallback phase: "any node still missing the message?" — ring state is
    /// deliberately ignored, so nodes the faulted wave stranded (no layer, no
    /// ring) still answer.
    Uninformed,
}

/// The worst-case phase budgets of the pipeline — the adaptive run's hard
/// caps. [`Ghk1Plan::total_rounds`] is the guaranteed-completion bound of
/// Theorem 1.1 (with the paper's `Θ(·)` constants instantiated by
/// [`Params`], plus the `1/beep_interval` status-round overhead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ghk1Plan {
    /// Diameter bound `D`.
    pub d_bound: u32,
    /// Ring width in layers.
    pub ring_width: u32,
    /// Number of rings.
    pub ring_count: u32,
    /// Per-ring construction schedule (ring-local levels `0..ring_width`).
    pub cons: ConstructionSchedule,
    /// Cap on the wave phase (work + status rounds).
    pub wave_budget: u64,
    /// Cap on construction *work* rounds (2-slotted; rings in parallel).
    pub cons_rounds: u64,
    /// Cap on construction *status* rounds.
    pub cons_status: u64,
    /// Cap on one in-ring broadcast window (work + status rounds).
    pub bcast_window: u64,
    /// Cap on one inter-ring handoff window (work + status rounds).
    pub handoff_window: u64,
}

impl Ghk1Plan {
    /// Builds the plan for diameter bound `d_bound` under `params`.
    pub fn new(params: &Params, d_bound: u32) -> Self {
        let d_bound = d_bound.max(1);
        let ring_width = params.adaptive_ring_width(d_bound).min(d_bound + 1);
        let ring_count = (d_bound + 1).div_ceil(ring_width);
        let cons = ConstructionSchedule::new(params, ring_width - 1);
        let slack = u64::from(params.window_slack);
        let beep = u64::from(params.beep_interval.max(1));
        let l2 = u64::from(params.log_n) * u64::from(params.log_n);
        let d = u64::from(d_bound);

        // Status rounds the construction driver can spend (see
        // `crate::adaptive::cons_status_budget` for the breakdown).
        let cons_status = cons_status_budget(params, &cons);

        let bcast_work = slack * (2 * u64::from(ring_width) + 2 * l2);
        let handoff_work = slack * l2;
        Ghk1Plan {
            d_bound,
            ring_width,
            ring_count,
            cons,
            wave_budget: d + d / beep + beep + u64::from(params.quiescence_slack) + 4,
            cons_rounds: 2 * cons.total_rounds(),
            cons_status,
            bcast_window: bcast_work + bcast_work / beep + 2,
            handoff_window: handoff_work + handoff_work / beep + 2,
        }
    }

    /// Total worst-case pipeline rounds — the hard cap every adaptive run
    /// respects.
    pub fn total_rounds(&self) -> u64 {
        self.wave_budget
            + self.cons_rounds
            + self.cons_status
            + u64::from(self.ring_count) * self.bcast_window
            + u64::from(self.ring_count.saturating_sub(1)) * self.handoff_window
    }
}

/// One node of the Theorem 1.1 pipeline.
///
/// Memory model: the node shell holds only the always-needed state (wave,
/// ring, payload, Decay counters) plus `Rc` handles to the run-wide
/// [`Params`]/[`Ghk1Plan`]; the heavyweight construction and MMV-schedule
/// sub-states are boxed and *phase-scoped* — construction state springs into
/// existence when the node's ring starts constructing and is dropped at
/// finalization (its labels and accounting
/// survive inline), and schedule state lives only while the node's ring is
/// broadcasting (retired by the driver once the ring's handoff closes). At
/// any round, resident state tracks the active frontier instead of
/// accumulating `O(n)` copies of every sub-protocol.
#[derive(Clone, Debug)]
pub struct Ghk1Node {
    id: u32,
    params: Rc<Params>,
    plan: Rc<Ghk1Plan>,
    step: StepCell<PhasePos, Probe>,
    wave: CollisionWaveLayering,
    /// Frontier reached this node since the last wave status round.
    wave_dirty: bool,
    /// Ring index and ring-local level, known after the wave.
    ring: Option<(u32, u32)>,
    cons: Option<Box<GstConstructionNode>>,
    sched: Option<Box<MmvScheduleNode>>,
    /// Broadcast-schedule labels, extracted when construction state retires.
    labels: Option<SchedLabels>,
    /// Construction accounting kept after the construction state is dropped.
    cons_stats: Option<crate::construction::NodeStats>,
    /// Audit counters absorbed from retired schedule state.
    audit_acc: SchedAudit,
    message: Option<u64>,
    decay: DecaySchedule,
    /// Whether this node emits real segment wake hints ([`Pacing::Segment`])
    /// or answers [`Wake::Now`] every round ([`Pacing::PerStep`]).
    seg_hints: bool,
}

impl Ghk1Node {
    /// A pipeline node; the source holds `message`. All nodes of one run
    /// share the `step` cell (the materialized phase cursor) and the
    /// `params`/`plan` handles (one allocation per run, not per node).
    pub fn new(
        params: Rc<Params>,
        plan: Rc<Ghk1Plan>,
        step: StepCell<PhasePos, Probe>,
        id: u32,
        message: Option<u64>,
    ) -> Self {
        let decay = DecaySchedule::new(params.decay_phase_len());
        Ghk1Node {
            id,
            params,
            plan,
            step,
            wave: CollisionWaveLayering::new(message.is_some()),
            wave_dirty: false,
            ring: None,
            cons: None,
            sched: None,
            labels: None,
            cons_stats: None,
            audit_acc: SchedAudit::default(),
            message,
            decay,
            seg_hints: true,
        }
    }

    /// Selects how the node answers [`Protocol::next_wake`] (segment hints
    /// vs. the per-step `Wake::Now` regime used by the equivalence suites).
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.seg_hints = pacing == Pacing::Segment;
        self
    }

    /// Whether this node holds (or has decoded) the message.
    pub fn has_message(&self) -> bool {
        self.message.is_some() || self.sched.as_ref().is_some_and(|s| s.is_complete())
    }

    /// The message, once held. A payload the schedule decoded but the node
    /// has not harvested yet is decoded on the spot, matching
    /// [`Ghk1Node::has_message`].
    pub fn message(&self) -> Option<u64> {
        self.message.or_else(|| self.decoded())
    }

    /// The node's BFS layer, once learned.
    pub fn layer(&self) -> Option<u32> {
        self.wave.level()
    }

    /// Construction fallback/orphan accounting (kept after the construction
    /// state itself is dropped).
    pub fn construction_stats(&self) -> Option<crate::construction::NodeStats> {
        self.cons.as_ref().map(|c| c.stats()).or(self.cons_stats)
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

    fn ensure_ring(&mut self) {
        if self.ring.is_none() {
            if let Some(layer) = self.wave.level() {
                let ring = layer / self.plan.ring_width;
                let ring_level = layer % self.plan.ring_width;
                self.ring = Some((ring, ring_level));
            }
        }
    }

    fn ensure_cons(&mut self) {
        self.ensure_ring();
        if self.cons.is_none() {
            if let Some((_, ring_level)) = self.ring {
                self.cons = Some(Box::new(GstConstructionNode::new(
                    &self.params,
                    self.plan.cons,
                    self.id,
                    ring_level,
                )));
            }
        }
    }

    /// Applies the construction epilogue once the phase is announced over
    /// (pending recruiting-part results + the unassigned-blue fallback),
    /// then retires the construction state: the broadcast-schedule labels
    /// and the fallback/orphan accounting move inline and the
    /// [`GstConstructionNode`] itself is dropped. Only repair rungs rebuild
    /// it, from scratch.
    fn finalize_construction(&mut self) {
        if let Some(mut c) = self.cons.take() {
            c.finalize();
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
    /// every repair path rebuilds through `ensure_*` from scratch.
    fn retire_ring(&mut self, ring: u32) {
        if self.ring.is_some_and(|(r, _)| r == ring) {
            self.harvest();
            self.retire_sched();
        }
    }

    /// Driver echo arming a rung-1 ring repair: nodes of `ring` shed their
    /// construction + schedule state (harvesting any decoded payload first,
    /// so an informed node stays informed) and rebuild from scratch on the
    /// repair rounds; every other ring's GST stays intact.
    fn repair_ring(&mut self, ring: u32) {
        self.ensure_ring();
        if self.ring.is_some_and(|(r, _)| r == ring) {
            self.harvest();
            self.retire_sched();
            self.cons = None;
            self.labels = None;
        }
    }

    /// Construction epilogue of a rung-1 repair, applied only to the
    /// repaired ring (the other rings were finalized after the main
    /// construction phase and must not be re-finalized).
    fn finalize_ring(&mut self, ring: u32) {
        if self.ring.is_some_and(|(r, _)| r == ring) {
            self.finalize_construction();
        }
    }

    fn ensure_sched(&mut self) {
        if self.sched.is_none() {
            // Labels were extracted when the construction state retired
            // (`finalize_construction`), so the schedule springs into
            // existence without the construction node being resident.
            if let (Some(labels), Some((_, _))) = (self.labels, self.ring) {
                let cfg = ScheduleConfig {
                    log_n: self.params.log_n,
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

    /// Answers a status-round probe: `true` = transmit a beep.
    fn probe(&mut self, probe: Probe) -> bool {
        match probe {
            Probe::WaveProgress => std::mem::take(&mut self.wave_dirty),
            Probe::RingUninformed { ring } => {
                self.ensure_ring();
                self.ring.is_some_and(|(r, _)| r == ring) && !self.has_message()
            }
            Probe::RootsUninformed { ring } => {
                self.ensure_ring();
                self.ring == Some((ring, 0)) && !self.has_message()
            }
            Probe::Uninformed => !self.has_message(),
            Probe::Cons(p) => {
                self.ensure_cons();
                let Some(c) = self.cons.as_mut() else { return false };
                answer_cons_probe(c, p)
            }
            Probe::RepairCons { ring, probe } => {
                self.ensure_ring();
                if self.ring.is_none_or(|(r, _)| r != ring) {
                    return false;
                }
                self.ensure_cons();
                let Some(c) = self.cons.as_mut() else { return false };
                answer_cons_probe(c, probe)
            }
        }
    }
}

impl Ghk1Node {
    /// The wake hint within a published work segment: the earliest round
    /// `>= round` at which this node's `act` might transmit, draw from its
    /// RNG, or make an observable state change. It may lie past the segment
    /// end; the node is re-polled anyway when the driver publishes its next
    /// step (status round or new segment).
    fn segment_wake(&self, seg: &Segment<PhasePos>, round: u64) -> Wake {
        let Some(pos) = seg.pos_at(round) else {
            // `round` is past the segment (hints are queried for the round
            // *after* the segment's last one): the driver is about to move
            // the cursor, so the node must be polled.
            return Wake::Now;
        };
        // Sleeps need no clamp to the segment end: the driver force-wakes
        // every node (`Simulator::wake_all`) before each cursor change, so
        // hints only have to be valid while this segment stands.
        let clamp = |r: u64| if r <= round { Wake::Now } else { Wake::At(r) };
        let sleep = Wake::Idle;
        let layered = self.wave.level().is_some();
        match pos {
            PhasePos::Wave { offset } => match self.wave.level() {
                // Re-woken by the frontier's first signal (observation).
                None => sleep,
                Some(l) if u64::from(l) <= offset => Wake::Now,
                Some(l) => clamp(round + (u64::from(l) - offset)),
            },
            PhasePos::Construct { offset } => {
                let Some((ring, _)) = self.ring else {
                    // Layered but ring not derived yet: next act derives it.
                    return if layered { Wake::Now } else { sleep };
                };
                let parity = u64::from(ring % 2);
                let first = if offset % 2 == parity { round } else { round + 1 };
                let Some(cons) = &self.cons else { return Wake::Now };
                // One engine segment never crosses a construction-schedule
                // segment (the driver publishes per sub-segment), so the
                // node's next act offset in that segment is its next act in
                // the engine segment; in-parity rounds are two apart.
                let next =
                    self.plan.cons.phase((offset + (first - round)) / 2).and_then(|ph| {
                        cons.next_act_offset(&ph).map(|o| first + 2 * (o - ph.offset))
                    });
                next.map_or(sleep, clamp)
            }
            PhasePos::Broadcast { ring, offset } => {
                let Some((my_ring, _)) = self.ring else {
                    return if layered { Wake::Now } else { sleep };
                };
                if my_ring != ring {
                    return sleep;
                }
                let Some(s) = &self.sched else { return Wake::Now };
                clamp(round + (s.next_act_round(offset) - offset))
            }
            PhasePos::Handoff { ring, .. } => {
                let Some((my_ring, ring_level)) = self.ring else {
                    return if layered { Wake::Now } else { sleep };
                };
                let outer = my_ring == ring && ring_level == self.plan.ring_width - 1;
                // Outer-boundary holders sample Decay every round (the
                // pending-harvest case — schedule decodable but `message`
                // not yet extracted — is covered by `has_message`).
                if outer && self.has_message() {
                    Wake::Now
                } else {
                    sleep
                }
            }
            PhasePos::RepairConstruct { ring, offset } => {
                let Some((my_ring, _)) = self.ring else {
                    return if layered { Wake::Now } else { sleep };
                };
                if my_ring != ring {
                    return sleep;
                }
                let Some(cons) = &self.cons else { return Wake::Now };
                // Unslotted: the repair segment's offsets are construction
                // schedule rounds directly. One published segment never
                // crosses a schedule segment (the shared skip loop publishes
                // per sub-segment), so the next act offset maps 1:1.
                let next = self
                    .plan
                    .cons
                    .phase(offset)
                    .and_then(|ph| cons.next_act_offset(&ph).map(|o| round + (o - ph.offset)));
                next.map_or(sleep, clamp)
            }
            PhasePos::Regional { ring, .. } => {
                // Region holders sample Decay every round; everyone else
                // sleeps until a payload delivery re-wakes them (adoption
                // happens in `observe`).
                let in_region =
                    self.ring.is_some_and(|(r, _)| r + 1 >= ring && r <= ring.saturating_add(1));
                if in_region && self.has_message() {
                    Wake::Now
                } else {
                    sleep
                }
            }
            PhasePos::Fallback { .. } => {
                // Holders sample Decay every round; everyone else sleeps
                // until a payload delivery re-wakes them (observation marks
                // the node dirty, so an adopting node starts flooding on its
                // next round).
                if self.has_message() {
                    Wake::Now
                } else {
                    sleep
                }
            }
        }
    }
}

impl Protocol for Ghk1Node {
    type Msg = Ghk1Msg;

    // Every sub-protocol this node routes observations into already ignores
    // silence, and status rounds ignore everything non-transmitted.
    const SILENCE_IS_NOOP: bool = true;
    const WAKE_HINTS: bool = true;

    /// Segment-derived wake hints (see [`crate::adaptive`]): status and idle
    /// rounds poll everyone; work segments sleep the node through rounds in
    /// which its phase provably keeps it inert.
    fn next_wake(&self, round: u64) -> Wake {
        if !self.seg_hints {
            return Wake::Now;
        }
        match self.step.get() {
            Step::Idle | Step::Status(_) => Wake::Now,
            Step::Work(seg) => self.segment_wake(&seg, round),
        }
    }

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<Ghk1Msg> {
        let id = self.id;
        hint_checked_act(self, id, round, rng, Self::act_inner)
    }

    fn observe(&mut self, round: u64, obs: Observation<Ghk1Msg>, rng: &mut SmallRng) {
        let pos = match self.step.get() {
            Step::Idle | Step::Status(_) => return,
            Step::Work(seg) => seg.pos_at(round).expect("observation within published segment"),
        };
        let gst = |m: &Ghk1Msg| match m {
            Ghk1Msg::Gst(g) => Some(*g),
            _ => None,
        };
        match pos {
            PhasePos::Wave { offset } => {
                let mapped = narrow(&obs, |m| match m {
                    Ghk1Msg::Wave(b) => Some(*b),
                    _ => None,
                });
                let was_layered = self.wave.level().is_some();
                self.wave.observe(offset, mapped, rng);
                if !was_layered && self.wave.level().is_some() {
                    self.wave_dirty = true;
                }
            }
            PhasePos::Construct { offset } => {
                let Some((ring, _)) = self.ring else { return };
                if offset % 2 != u64::from(ring % 2) {
                    return;
                }
                if let Some(c) = self.cons.as_mut() {
                    c.observe(offset / 2, narrow(&obs, gst), rng);
                }
            }
            PhasePos::Broadcast { ring, offset } => {
                let Some((my_ring, _)) = self.ring else { return };
                if my_ring != ring {
                    return;
                }
                let mapped = narrow(&obs, |m| match m {
                    Ghk1Msg::Sched(s) => Some(s.clone()),
                    _ => None,
                });
                if let Some(s) = self.sched.as_mut() {
                    s.observe(offset, mapped, rng);
                }
            }
            PhasePos::Handoff { ring, .. } => {
                let Some((my_ring, ring_level)) = self.ring else { return };
                if my_ring == ring + 1 && ring_level == 0 {
                    self.adopt(&obs);
                }
            }
            PhasePos::RepairConstruct { ring, offset } => {
                if self.ring.is_none_or(|(r, _)| r != ring) {
                    return;
                }
                if let Some(c) = self.cons.as_mut() {
                    c.observe(offset, narrow(&obs, gst), rng);
                }
            }
            PhasePos::Regional { ring, .. } => {
                // Region nodes adopt, and so do ring-less strays — the
                // churn/mobility victims the regional rung exists for.
                self.ensure_ring();
                if self.ring.is_none_or(|(r, _)| r + 1 >= ring && r <= ring.saturating_add(1)) {
                    self.adopt(&obs);
                }
            }
            // Ring-agnostic adoption: the whole point of the fallback is
            // reaching nodes the faulted setup phases left without a ring.
            PhasePos::Fallback { .. } => self.adopt(&obs),
        }
    }
}

impl Ghk1Node {
    fn act_inner(&mut self, round: u64, rng: &mut SmallRng) -> Action<Ghk1Msg> {
        let pos = match self.step.get() {
            Step::Idle => return Action::Listen,
            Step::Status(probe) => {
                return if self.probe(probe) {
                    Action::Transmit(Ghk1Msg::Status)
                } else {
                    Action::Listen
                };
            }
            Step::Work(seg) => seg.pos_at(round).expect("act within published segment"),
        };
        match pos {
            PhasePos::Wave { offset } => match self.wave.act(offset, rng) {
                Action::Transmit(b) => Action::Transmit(Ghk1Msg::Wave(b)),
                Action::Listen => Action::Listen,
            },
            PhasePos::Construct { offset } => {
                self.ensure_cons();
                let Some((ring, _)) = self.ring else { return Action::Listen };
                if offset % 2 != u64::from(ring % 2) {
                    return Action::Listen;
                }
                match self.cons.as_mut().expect("created above").act(offset / 2, rng) {
                    Action::Transmit(m) => Action::Transmit(Ghk1Msg::Gst(m)),
                    Action::Listen => Action::Listen,
                }
            }
            PhasePos::Broadcast { ring, offset } => {
                let Some((my_ring, _)) = self.ring else { return Action::Listen };
                if my_ring != ring {
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
                    Action::Transmit(m) => Action::Transmit(Ghk1Msg::Sched(m)),
                    Action::Listen => Action::Listen,
                }
            }
            PhasePos::Handoff { ring, offset } => {
                self.harvest();
                let Some((my_ring, ring_level)) = self.ring else { return Action::Listen };
                let outer = my_ring == ring && ring_level == self.plan.ring_width - 1;
                self.flood(outer, offset, rng)
            }
            PhasePos::RepairConstruct { ring, offset } => {
                self.ensure_cons();
                if self.ring.is_none_or(|(r, _)| r != ring) {
                    return Action::Listen;
                }
                let Some(c) = self.cons.as_mut() else { return Action::Listen };
                match c.act(offset, rng) {
                    Action::Transmit(m) => Action::Transmit(Ghk1Msg::Gst(m)),
                    Action::Listen => Action::Listen,
                }
            }
            PhasePos::Regional { ring, offset } => {
                self.harvest();
                let in_region =
                    self.ring.is_some_and(|(r, _)| r + 1 >= ring && r <= ring.saturating_add(1));
                self.flood(in_region, offset, rng)
            }
            PhasePos::Fallback { offset } => {
                self.harvest();
                self.flood(true, offset, rng)
            }
        }
    }

    /// A holder allowed to (`gate`) floods the payload on the Decay schedule;
    /// the Decay coin is drawn only for gated holders.
    fn flood(&mut self, gate: bool, offset: u64, rng: &mut SmallRng) -> Action<Ghk1Msg> {
        match self.message {
            Some(m) if gate && self.decay.fires(offset, rng) => {
                Action::Transmit(Ghk1Msg::Handoff(m))
            }
            _ => Action::Listen,
        }
    }

    /// Takes a heard handoff payload as the message, unless one is held.
    fn adopt(&mut self, obs: &Observation<Ghk1Msg>) {
        if let (None, Observation::Message(p)) = (self.message, obs) {
            if let Ghk1Msg::Handoff(m) = &**p {
                self.message = Some(*m);
            }
        }
    }
}

impl Pipeline for Ghk1Node {
    type Pos = PhasePos;
    type Probe = Probe;
    type Plan = Ghk1Plan;
    const FALLBACK: PhasePos = PhasePos::Fallback { offset: 0 };

    fn is_complete(&self) -> bool {
        self.has_message()
    }

    /// The shell plus each live boxed sub-state at its `size_of`. Internal
    /// heap of the sub-states (recruiting buffers, decoder rows) is excluded
    /// on both sides of the streamed-vs-materialized comparison, as are the
    /// engine's own `O(n)` buffers.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.cons.as_ref().map_or(0, |_| std::mem::size_of::<GstConstructionNode>())
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

    fn votable(probe: Probe) -> bool {
        !matches!(
            probe,
            Probe::WaveProgress
                | Probe::Cons(ConsProbe::NewActivation)
                | Probe::RepairCons { probe: ConsProbe::NewActivation, .. }
        )
    }

    fn vote_budget(probe: Probe) -> Option<Budget> {
        match probe {
            Probe::Cons(_) => Some(Budget::Construct),
            Probe::RepairCons { .. } => Some(Budget::Repair),
            _ => None,
        }
    }

    /// The collision wave, the parallel per-ring construction, then ring by
    /// ring: the ring's broadcast window and the handoff to the next ring's
    /// roots. Anchors recovery at the last ring.
    fn phases<T: Topology>(d: &mut Driver<Self, T>) -> u32 {
        let plan = d.plan;
        if !d.done() {
            // Phase 1: the collision wave, closed `quiescence_slack` silent
            // status rounds after the frontier stops advancing.
            let _ = d.window(
                plan.wave_budget,
                Probe::WaveProgress,
                false,
                |offset| PhasePos::Wave { offset },
                |p| &mut p.wave,
            );
        }
        if !d.done() {
            // Phase 2: the shared quiescence-skipping construction driver.
            d.construct(plan.cons, Budget::Construct, Probe::Cons, |offset| PhasePos::Construct {
                offset,
            });
        }
        // All rings constructed in parallel, so this is the run's resident
        // peak: every layered node holds live construction state.
        d.sample_state();
        // End-of-construction echo: every node runs its local block epilogue
        // (pending recruiting results + unassigned-blue fallback), then
        // retires its construction state (labels move inline). The fixed
        // schedule reaches this state lazily through later blocks' rounds;
        // the adaptive driver may have skipped those blocks entirely.
        d.echo(Ghk1Node::finalize_construction);
        for ring in 0..plan.ring_count {
            if d.done() {
                break;
            }
            let _ = d.window(
                plan.bcast_window,
                Probe::RingUninformed { ring },
                false,
                |offset| PhasePos::Broadcast { ring, offset },
                |p| &mut p.disseminate,
            );
            // The ring's schedule state is live now; sample before anything
            // retires it.
            d.sample_state();
            let handed_off = ring + 1 == plan.ring_count
                || d.done()
                || d.handoff(
                    plan.handoff_window,
                    Probe::RootsUninformed { ring: ring + 1 },
                    false,
                    |offset| PhasePos::Handoff { ring, offset },
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
        plan.ring_count - 1
    }

    /// Re-runs the *failed ring's* construction and dissemination with fresh
    /// budget, keeping every other ring's GST intact. The ring's nodes drop
    /// their construction and schedule state (harvesting any decoded payload
    /// first), rebuild it through the construction skip loop restricted to
    /// that ring, then replay the ring's broadcast window and a fresh handoff
    /// window — all drawn from what remains of the worst-case pool.
    fn ring_repair<T: Topology>(d: &mut Driver<Self, T>, ring: u32) -> bool {
        let plan = d.plan;
        d.set_status(Budget::Repair, plan.cons_status);
        d.echo(|n| n.repair_ring(ring));
        d.construct(
            plan.cons,
            Budget::Repair,
            |probe| Probe::RepairCons { ring, probe },
            |offset| PhasePos::RepairConstruct { ring, offset },
        );
        d.echo(|n| n.finalize_ring(ring));
        if d.done() {
            return true;
        }
        let bcast = plan.bcast_window.min(d.budget_left());
        let _ = d.window(
            bcast,
            Probe::RingUninformed { ring },
            false,
            |offset| PhasePos::Broadcast { ring, offset },
            |p| &mut p.repair,
        );
        if d.done() {
            return true;
        }
        if ring + 1 >= plan.ring_count {
            return false;
        }
        let budget = plan.handoff_window.min(d.budget_left());
        d.window(
            budget,
            Probe::RootsUninformed { ring: ring + 1 },
            false,
            |offset| PhasePos::Handoff { ring, offset },
            |p| &mut p.repair,
        ) == WindowEnd::Quiesced
    }

    /// Every holder in the failed ring ± 1 floods the payload on the Decay
    /// schedule, covering churn/mobility that moved the frontier across ring
    /// boundaries. Budgeted at two handoff windows from the remaining pool.
    fn regional_repair<T: Topology>(d: &mut Driver<Self, T>, ring: u32) -> bool {
        let plan = d.plan;
        let budget = (2 * plan.handoff_window).min(d.budget_left());
        let probe = if ring + 1 < plan.ring_count {
            Probe::RootsUninformed { ring: ring + 1 }
        } else {
            Probe::RingUninformed { ring }
        };
        d.window(
            budget,
            probe,
            false,
            |offset| PhasePos::Regional { ring, offset },
            |p| &mut p.repair,
        ) == WindowEnd::Quiesced
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
    let sim = Simulator::new_with_faults(topology, mode, seed, faults.clone(), |id| {
        Ghk1Node::new(
            Rc::clone(&shared_params),
            Rc::clone(&shared_plan),
            Rc::clone(&step),
            id.raw(),
            (id == source).then_some(payload),
        )
        .with_pacing(pacing)
    });
    let mut driver = Driver::new(sim, step, plan, plan.total_rounds(), params);
    driver.set_status(Budget::Construct, plan.cons_status);
    driver
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
        assert!(plan(&out).ring_count > 1, "expected multiple rings");
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
        assert!(plan.wave_budget >= 10, "wave budget must cover D rounds");
        assert_eq!(
            plan.total_rounds(),
            plan.wave_budget
                + plan.cons_rounds
                + plan.cons_status
                + u64::from(plan.ring_count) * plan.bcast_window
                + u64::from(plan.ring_count - 1) * plan.handoff_window
        );

        let mut p2 = params.clone();
        p2.ring_width = Some(3);
        let plan2 = Ghk1Plan::new(&p2, 10);
        assert!(plan2.ring_count > 1);
        assert!(
            plan2.cons_rounds < plan.cons_rounds || plan.ring_count > 1,
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
    fn no_detection_mode_reports_failure_not_panic() {
        // Without CD the wave jams on this diamond; the pipeline must cap
        // out gracefully.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let params = Params::scaled(4);
        let out = run(g, 1, &params, 0, CollisionMode::NoDetection);
        assert!(out.completion_round.is_none());
        assert!(out.phases.total() <= out.cap);
    }
}
