//! The one adaptive (quiescence-driven) driver of the Theorem 1.1 and 1.3
//! pipelines.
//!
//! Both theorems are proved with one skeleton: collision-wave layering, ring
//! decomposition, parallel per-ring GST construction, then ring-by-ring
//! dissemination with inter-ring handoffs. Both pipelines also *run* it the
//! same way. Open-ended phases interleave dedicated *status rounds* in which
//! exactly the nodes with pending work transmit a content-free beep, and the
//! driver advances the shared phase cursor once the channel stays silent
//! (see `single_message` for the in-model justification). Every phase stays
//! hard-capped by its paper-sized window, so the plan's `total_rounds()`
//! bounds any run.
//!
//! The driver (`Driver`, crate-private) owns everything the two pipelines
//! share:
//!
//! * the simulator and the shared `StepCell` cursor;
//! * the status budgets and majority voting ([`vote_quiet`]);
//! * the beep/quiescence window loop, optionally probing before any work (a
//!   window with nothing pending collapses to one status round);
//! * the front half both pipelines open with: the collision wave, then the
//!   construction skip loop over the shared construction probes, parallel
//!   over every ring or (rung-1 repair) over one ring;
//! * the handoff retry → rung 1 → rung 2 → rung-3 fallback sequence of the
//!   recovery [`Ladder`];
//! * state sampling at phase boundaries, and the [`Outcome`] it returns,
//!   counted into [`Phases`].
//!
//! The nodes share their front half too. `RingCore` (crate-private), which
//! both pipeline nodes embed, holds the wave, the ring and the construction
//! state and runs the wave and construction rounds and probes; it hands
//! every other round to the node's own phases and probes.
//!
//! A pipeline plugs in through two crate-private traits its node type
//! implements. `RingNode` supplies the node's own phases, probes and
//! messages. `Pipeline` supplies its completion predicate, resident bytes
//! and audit counters; which status budget a re-vote draws from; the phase
//! sequence after the front half; and the bodies of rungs 1 and 2.
//!
//! ## Segment pacing
//!
//! The driver pumps the simulator in *segments*. Instead of setting the
//! shared cursor cell and calling `Simulator::step` once per round, it
//! publishes a whole segment — the simulator round it starts at, its length,
//! its phase, and the phase offset of its first round — and executes it with
//! `Simulator::run_until`, which polls only the nodes whose wake hints are
//! due (acts cost `O(awake)`; fully-idle stretches fast-forward in `O(1)`).
//! Nodes read the phase of simulator round `r` off the published segment and
//! its offset as the base offset plus `r - start`. Their `next_wake` hints
//! only have to hold while the segment stands: every publish force-wakes all
//! nodes (`Simulator::wake_all`), so a sleeping node can never miss a cursor
//! change, and arbitrary driver decisions (probe outcomes, block skips,
//! early phase closure) stay safe under wake hints.
//!
//! Mid-segment completion detection stays exact: `run_until` re-scans the
//! completion predicate after any round that delivered a packet or a
//! collision (the only rounds in which a reception-driven predicate can
//! flip) and stops the segment there. The executed round sequence is
//! bit-identical to per-round stepping — [`Pacing::PerStep`] keeps the old
//! regime available for the equivalence suites.

use crate::construction::{ConstructionSchedule, GstConstructionNode, GstMsg};
use crate::decay::DecaySchedule;
use crate::layering::{Beep, CollisionWaveLayering};
use crate::params::Params;
use crate::run::{Detail, Outcome, Phases};
use crate::schedule::SchedAudit;
use radio_sim::trace::RoundStats;
use radio_sim::{Action, NodeId, Observation, Protocol, Simulator, Topology, Wake};
use rand::rngs::SmallRng;
use std::cell::Cell;
use std::fmt::Debug;
use std::rc::Rc;

/// How an adaptive pipeline driver pumps the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Pacing {
    /// Publish batched work segments and run them through the engine's
    /// wake queue (the default; rounds cost `O(awake)`).
    #[default]
    Segment,
    /// Poll every node every round (nodes answer `Wake::Now`), reproducing
    /// the pre-segment behavior round for round. Kept for the
    /// segment-vs-per-step equivalence suites and for A/B benchmarks.
    PerStep,
}

/// The phase of a published work segment: the front half both pipelines
/// share, or one of the pipeline's own phases `B`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase<B> {
    /// Collision-wave layering.
    Wave,
    /// GST construction. `None`: every ring in parallel, 2-slotted by ring
    /// parity (see [`slot`]). `Some(ring)`: that ring alone (the Theorem 1.1
    /// rung-1 repair), unslotted since no neighboring ring runs, so offsets
    /// are construction rounds.
    Construct(Option<u32>),
    /// A pipeline-specific phase.
    Own(B),
}

impl<B> From<B> for Phase<B> {
    fn from(own: B) -> Self {
        Phase::Own(own)
    }
}

/// What a status round asks: a node transmits a beep iff the predicate holds
/// for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe<Q> {
    /// Wave phase: "did the frontier reach you since the last status round?"
    WaveProgress,
    /// A construction probe, answered by the nodes of every ring (`None`) or
    /// of one ring only (`Some(ring)`, the rung-1 repair). Probes address
    /// ring-local boundaries and ranks, so one probe covers every ring at
    /// once.
    Cons(Option<u32>, ConsProbe),
    /// A pipeline-specific probe.
    Own(Q),
}

impl<Q> From<Q> for Probe<Q> {
    fn from(own: Q) -> Self {
        Probe::Own(own)
    }
}

impl<Q> Probe<Q> {
    /// Whether a fault-touched read may be re-probed by a majority vote:
    /// `false` for the consuming, take-style wave-progress and
    /// new-activation probes (see [`vote_quiet`]).
    fn votable(&self) -> bool {
        !matches!(self, Probe::WaveProgress | Probe::Cons(_, ConsProbe::NewActivation))
    }
}

/// Messages of an adaptive pipeline: the front half's, or the pipeline's own
/// `B`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Msg<B> {
    /// Collision-wave beep.
    Wave(Beep),
    /// GST-construction traffic.
    Gst(GstMsg),
    /// Pipeline-specific traffic.
    Own(B),
    /// Content-free status beep of the adaptive termination protocol.
    Status,
}

/// A published run of consecutive work rounds of one phase.
///
/// The driver sets the shared cursor cell to a segment *once*; every node
/// then reads simulator round `r` in `start <= r < start + len` as `phase` at
/// offset `offset + (r - start)`, and may hint itself asleep while the
/// segment stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Segment<B> {
    /// Simulator round of the segment's first work round.
    start: u64,
    /// Number of consecutive work rounds published.
    len: u64,
    /// The phase every round of the segment is in.
    phase: Phase<B>,
    /// Phase offset of round `start`. Offsets are *virtual*: they count the
    /// phase's own work rounds, excluding interleaved status rounds, so every
    /// in-phase schedule sees exactly the round sequence it would under fixed
    /// windows.
    offset: u64,
}

impl<B: Copy> Segment<B> {
    /// The phase and phase offset of simulator round `round`, or `None`
    /// outside the segment.
    fn at(&self, round: u64) -> Option<(Phase<B>, u64)> {
        (self.start..self.start + self.len)
            .contains(&round)
            .then(|| (self.phase, self.offset + (round - self.start)))
    }
}

/// The shared per-round directive of an adaptive pipeline: what kind of
/// round the pipeline is in, with own phases `B` and own probes `Q`.
///
/// All nodes observe the same status-round transcript (via the idealized
/// echo, see the `single_message` module docs), so they all hold the same
/// cursor; the [`StepCell`] materializes that shared knowledge without
/// touching the `Protocol` trait. Work rounds are published as whole
/// [`Segment`]s, so nodes resolve a round's phase from the segment and may
/// sleep through the rounds of it in which they are provably inert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step<B, Q> {
    /// Before the first round.
    Idle,
    /// A published segment of work rounds of the current phase.
    Work(Segment<B>),
    /// A status round probing for pending work.
    Status(Probe<Q>),
}

/// Shared handle to a pipeline's current [`Step`]: one cell per run, cloned
/// into every node and the driver.
pub(crate) type StepCell<B, Q> = Rc<Cell<Step<B, Q>>>;

/// Ring-parity slotting of a 2-slotted phase: adjacent rings run on
/// alternate work rounds, so ring `ring` runs inner round `o / 2` at offsets
/// `o` of its parity. Returns how many rounds after `offset` the ring's next
/// slot comes (`0` when `offset` is in its slot, else `1`) and the inner
/// round that slot runs.
pub(crate) fn slot(ring: u32, offset: u64) -> (u64, u64) {
    let wait = (offset + u64::from(ring % 2)) % 2;
    (wait, (offset + wait) / 2)
}

/// The wake hint for a node whose next act falls at simulator round `next`,
/// seen from `round`.
pub(crate) fn wake_at(round: u64, next: u64) -> Wake {
    if next <= round {
        Wake::Now
    } else {
        Wake::At(next)
    }
}

/// Narrows a pipeline observation to one sub-protocol: a message `pick`
/// recognizes becomes that sub-protocol's packet, any other message reads as
/// silence, and collisions and silence pass through.
pub(crate) fn narrow<M, N>(
    obs: &Observation<M>,
    pick: impl FnOnce(&M) -> Option<N>,
) -> Observation<N> {
    match obs {
        Observation::Message(p) => pick(p).map_or(Observation::Silence, Observation::packet),
        Observation::Collision => Observation::Collision,
        Observation::Silence => Observation::Silence,
    }
}

/// The geometry and front-half caps both adaptive plans share: rings of
/// [`Params::adaptive_ring_width`] layers, the per-ring construction
/// schedule, and the wave and construction budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontPlan {
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
    /// Cap on construction *status* rounds: per rank block one rank-skip
    /// probe, one per Identify phase, and per epoch the open-blue /
    /// active-red / loner probes, per-part gates plus one probe per
    /// recruiting iteration, and the two Stage III gates.
    pub cons_status: u64,
}

impl FrontPlan {
    /// The front half for diameter bound `d_bound` under `params`.
    pub fn new(params: &Params, d_bound: u32) -> Self {
        let d_bound = d_bound.max(1);
        let ring_width = params.adaptive_ring_width(d_bound).min(d_bound + 1);
        let cons = ConstructionSchedule::new(params, ring_width - 1);
        let beep = u64::from(params.beep_interval.max(1));
        let d = u64::from(d_bound);
        let iterations = u64::from(params.recruit_iterations.max(1));
        let per_epoch_status = 5 + 3 * (1 + iterations);
        let per_rank_status =
            1 + u64::from(params.decay_phases) + u64::from(cons.epochs()) * per_epoch_status;
        FrontPlan {
            d_bound,
            ring_width,
            ring_count: (d_bound + 1).div_ceil(ring_width),
            cons,
            wave_budget: d + d / beep + beep + u64::from(params.quiescence_slack) + 4,
            cons_rounds: 2 * cons.total_rounds(),
            cons_status: u64::from(cons.d_bound) * u64::from(params.max_rank()) * per_rank_status,
        }
    }

    /// The front half's worst-case rounds: the wave plus construction work
    /// and status rounds.
    pub fn total_rounds(&self) -> u64 {
        self.wave_budget + self.cons_rounds + self.cons_status
    }
}

/// The back half of an adaptive-pipeline node: what it adds to the
/// [`RingCore`] front half it embeds. The core's [`next_wake`],
/// [`hint_checked_act`] and [`observe`] hand every round of an own phase or
/// probe to these hooks.
pub(crate) trait RingNode: Sized {
    /// The run-wide plan, shared by handle.
    type Plan: AsRef<FrontPlan> + Debug;
    /// The pipeline's own phases.
    type Own: Copy + Debug;
    /// The pipeline's own status probes.
    type OwnProbe: Copy + Debug;
    /// The pipeline's own messages.
    type OwnMsg: Clone + Debug;

    /// The embedded front half.
    fn core(&self) -> &RingCore<Self>;

    /// The embedded front half, mutably.
    fn core_mut(&mut self) -> &mut RingCore<Self>;

    /// The wake hint at `offset` of own phase `phase`: the earliest round
    /// `>= round` at which this node's `act` might transmit, draw from its
    /// RNG, or make an observable state change. It may lie past the segment
    /// end; the node is re-polled anyway when the driver publishes its next
    /// step.
    fn wake(&self, phase: Self::Own, offset: u64, round: u64) -> Wake;

    /// The node's action at `offset` of own phase `phase`.
    fn act_own(
        &mut self,
        phase: Self::Own,
        offset: u64,
        rng: &mut SmallRng,
    ) -> Action<Msg<Self::OwnMsg>>;

    /// Processes what the node heard at `offset` of own phase `phase`.
    fn observe_own(
        &mut self,
        phase: Self::Own,
        offset: u64,
        obs: Observation<Msg<Self::OwnMsg>>,
        rng: &mut SmallRng,
    );

    /// Answers an own status probe: `true` = transmit a beep.
    fn answer(&mut self, probe: Self::OwnProbe) -> bool;
}

/// The front half of a Theorem 1.1 or 1.3 node: collision-wave layering,
/// ring decomposition and per-ring GST construction, plus the run-wide
/// handles (and through them the Decay schedule) both back halves use.
///
/// Memory model: the shell holds `Rc` handles to the run-wide [`Params`] and
/// plan (one allocation per run, not per node); the construction state is
/// boxed and phase-scoped — it springs into existence when the node's ring
/// starts constructing, and the pipeline retires it.
#[derive(Clone, Debug)]
pub(crate) struct RingCore<N: RingNode> {
    pub(crate) id: u32,
    pub(crate) params: Rc<Params>,
    pub(crate) plan: Rc<N::Plan>,
    step: StepCell<N::Own, N::OwnProbe>,
    wave: CollisionWaveLayering,
    /// Frontier reached this node since the last wave status round.
    wave_dirty: bool,
    /// Whether this node emits real segment wake hints ([`Pacing::Segment`])
    /// or answers [`Wake::Now`] every round ([`Pacing::PerStep`]).
    seg_hints: bool,
    /// Ring index and ring-local level, known after the wave.
    pub(crate) ring: Option<(u32, u32)>,
    pub(crate) cons: Option<Box<GstConstructionNode>>,
}

impl<N: RingNode> RingCore<N> {
    /// The front half of node `id`; the source starts the wave. All nodes of
    /// one run share the `step` cell (the materialized phase cursor) and the
    /// `params`/`plan` handles.
    pub(crate) fn new(
        params: &Rc<Params>,
        plan: &Rc<N::Plan>,
        step: &StepCell<N::Own, N::OwnProbe>,
        id: u32,
        source: bool,
        pacing: Pacing,
    ) -> Self {
        RingCore {
            id,
            params: Rc::clone(params),
            plan: Rc::clone(plan),
            step: Rc::clone(step),
            wave: CollisionWaveLayering::new(source),
            wave_dirty: false,
            seg_hints: pacing == Pacing::Segment,
            ring: None,
            cons: None,
        }
    }

    /// The plan's shared geometry.
    pub(crate) fn front(&self) -> &FrontPlan {
        (*self.plan).as_ref()
    }

    /// The Decay schedule of the back halves' handoffs and floods.
    pub(crate) fn decay(&self) -> DecaySchedule {
        DecaySchedule::from_params(&self.params)
    }

    /// Derives the ring once the wave has layered the node.
    fn ensure_ring(&mut self) {
        if self.ring.is_none() {
            if let Some(layer) = self.wave.level() {
                let width = self.front().ring_width;
                self.ring = Some((layer / width, layer % width));
            }
        }
    }

    /// The ring index and ring-local level, derived first if the wave has
    /// layered the node since.
    pub(crate) fn derived_ring(&mut self) -> Option<(u32, u32)> {
        self.ensure_ring();
        self.ring
    }

    /// Builds the construction state of a node that a construction phase
    /// or probe over `only` (see [`Phase::Construct`]) addresses: every
    /// layered node, or the nodes of ring `only`. Returns whether the node is
    /// addressed. The ring is checked before anything is built, so a one-ring
    /// repair's forced wakes leave every other ring's nodes as they are.
    fn ensure_cons(&mut self, only: Option<u32>) -> bool {
        self.ensure_ring();
        let Some((ring, ring_level)) = self.ring else { return false };
        if only.is_some_and(|r| r != ring) {
            return false;
        }
        if self.cons.is_none() {
            let cons =
                GstConstructionNode::new(&self.params, self.front().cons, self.id, ring_level);
            self.cons = Some(Box::new(cons));
        }
        true
    }

    /// Runs the construction epilogue once the phase is announced over
    /// (pending recruiting-part results + the unassigned-blue fallback).
    pub(crate) fn finalize_cons(&mut self) {
        if let Some(c) = self.cons.as_mut() {
            c.finalize();
        }
    }

    /// Bytes of the live boxed construction state.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.cons.as_ref().map_or(0, |_| std::mem::size_of::<GstConstructionNode>())
    }

    /// The wake hint of a node without a ring: a layered node derives its
    /// ring on its next act, an unlayered one sleeps until an observation
    /// re-wakes it.
    pub(crate) fn unringed(&self) -> Wake {
        if self.wave.level().is_some() {
            Wake::Now
        } else {
            Wake::Idle
        }
    }

    /// The construction round this node runs at `offset` of a construction
    /// phase over `only` (see [`Phase::Construct`]), if any.
    fn cons_round(&self, only: Option<u32>, offset: u64) -> Option<u64> {
        let (ring, _) = self.ring?;
        match only {
            None => match slot(ring, offset) {
                (0, inner) => Some(inner),
                _ => None,
            },
            Some(r) => (r == ring).then_some(offset),
        }
    }

    fn wave_wake(&self, offset: u64, round: u64) -> Wake {
        match self.wave.level() {
            // Re-woken by the frontier's first signal (observation).
            None => Wake::Idle,
            Some(l) if u64::from(l) <= offset => Wake::Now,
            Some(l) => Wake::At(round + (u64::from(l) - offset)),
        }
    }

    fn cons_wake(&self, only: Option<u32>, offset: u64, round: u64) -> Wake {
        let Some((ring, _)) = self.ring else { return self.unringed() };
        let (first, inner, stride) = match only {
            None => {
                let (wait, inner) = slot(ring, offset);
                (round + wait, inner, 2)
            }
            Some(r) if r == ring => (round, offset, 1),
            Some(_) => return Wake::Idle,
        };
        let Some(cons) = &self.cons else { return Wake::Now };
        // One published segment never crosses a construction-schedule
        // segment (the skip loop publishes per sub-segment), so the node's
        // next act offset in that segment is its next act in this one.
        let next = self
            .front()
            .cons
            .phase(inner)
            .and_then(|ph| cons.next_act_offset(&ph).map(|o| first + stride * (o - ph.offset)));
        next.map_or(Wake::Idle, |r| wake_at(round, r))
    }

    fn wave_act<B>(&mut self, offset: u64, rng: &mut SmallRng) -> Action<Msg<B>> {
        match self.wave.act(offset, rng) {
            Action::Transmit(b) => Action::Transmit(Msg::Wave(b)),
            Action::Listen => Action::Listen,
        }
    }

    fn cons_act<B>(
        &mut self,
        only: Option<u32>,
        offset: u64,
        rng: &mut SmallRng,
    ) -> Action<Msg<B>> {
        if !self.ensure_cons(only) {
            return Action::Listen;
        }
        let Some(round) = self.cons_round(only, offset) else { return Action::Listen };
        match self.cons.as_mut().expect("built above").act(round, rng) {
            Action::Transmit(m) => Action::Transmit(Msg::Gst(m)),
            Action::Listen => Action::Listen,
        }
    }

    fn wave_observe<B>(&mut self, offset: u64, obs: &Observation<Msg<B>>, rng: &mut SmallRng) {
        let mapped = narrow(obs, |m| match m {
            Msg::Wave(b) => Some(*b),
            _ => None,
        });
        let was_layered = self.wave.level().is_some();
        self.wave.observe(offset, mapped, rng);
        if !was_layered && self.wave.level().is_some() {
            self.wave_dirty = true;
        }
    }

    fn cons_observe<B>(
        &mut self,
        only: Option<u32>,
        offset: u64,
        obs: &Observation<Msg<B>>,
        rng: &mut SmallRng,
    ) {
        let Some(round) = self.cons_round(only, offset) else { return };
        if let Some(c) = self.cons.as_mut() {
            let mapped = narrow(obs, |m| match m {
                Msg::Gst(g) => Some(*g),
                _ => None,
            });
            c.observe(round, mapped, rng);
        }
    }

    /// Answers a construction probe for the nodes of `only` (every ring if
    /// `None`).
    fn answer_cons(&mut self, only: Option<u32>, probe: ConsProbe) -> bool {
        if !self.ensure_cons(only) {
            return false;
        }
        let c = self.cons.as_mut().expect("built above");
        match probe {
            ConsProbe::OpenBlue { boundary, rank } => c.probe_open_blue(boundary, rank),
            ConsProbe::OpenBlueBelow { boundary, rank } => c.probe_open_blue_below(boundary, rank),
            ConsProbe::ActiveRed { boundary } => c.probe_active_red(boundary),
            ConsProbe::NewActivation => c.take_new_activation(),
            ConsProbe::LonerBlue { boundary } => c.probe_loner_blue(boundary),
            ConsProbe::PartRed { boundary, part } => c.probe_part_red(boundary, part),
            ConsProbe::PartParticipant => c.probe_part_participant(),
            ConsProbe::UnresolvedBlue => c.probe_unresolved_blue(),
            ConsProbe::NewlyRanked { boundary } => c.probe_newly_ranked_red(boundary),
        }
    }
}

/// `Protocol::next_wake` of a ring node. Status and idle rounds poll
/// everyone (as does [`Pacing::PerStep`]); work segments sleep the node
/// through rounds in which its phase provably keeps it inert. Sleeps need no
/// clamp to the segment end: the driver force-wakes every node
/// (`Simulator::wake_all`) before each cursor change, so hints only have to
/// be valid while the segment stands.
pub(crate) fn next_wake<N: RingNode>(node: &N, round: u64) -> Wake {
    let core = node.core();
    if !core.seg_hints {
        return Wake::Now;
    }
    let Step::Work(seg) = core.step.get() else { return Wake::Now };
    // Past the segment (hints are queried for the round *after* its last
    // one) the driver is about to move the cursor, so the node is polled.
    let Some((phase, offset)) = seg.at(round) else { return Wake::Now };
    match phase {
        Phase::Wave => core.wave_wake(offset, round),
        Phase::Construct(only) => core.cons_wake(only, offset, round),
        Phase::Own(own) => node.wake(own, offset, round),
    }
}

/// `Protocol::act` of a ring node, under the wake-hint contract check (debug
/// builds, and this crate's own unit tests in any build): a node whose
/// [`next_wake`] hint postponed past `round`, yet is polled anyway (forced
/// wakes, dense or per-step sweeps), must neither transmit nor draw from its
/// RNG. In the unit tests it must not change state either, in own phases:
/// its `Debug` rendering stays the same. (Construction's `sync` advances its
/// cursor offset on inert acts, and the rendering costs too much for the
/// integration suites.)
pub(crate) fn hint_checked_act<N: RingNode + Debug>(
    node: &mut N,
    round: u64,
    rng: &mut SmallRng,
) -> Action<Msg<N::OwnMsg>> {
    let hinted_idle = (cfg!(debug_assertions) || cfg!(test))
        && match next_wake(node, round) {
            Wake::Now => false,
            Wake::At(r) => r > round,
            Wake::Idle => true,
        };
    let before = hinted_idle.then(|| {
        let own_phase = match node.core().step.get() {
            Step::Work(seg) => matches!(seg.at(round), Some((Phase::Own(_), _))),
            _ => false,
        };
        (rng.clone(), (cfg!(test) && own_phase).then(|| format!("{node:?}")))
    });
    let action = act_unchecked(node, round, rng);
    if let Some((rng_before, state)) = before {
        let id = node.core().id;
        assert!(!action.is_transmit(), "hinted-idle node {id} transmitted at round {round}");
        assert!(*rng == rng_before, "hinted-idle node {id} drew from its RNG at round {round}");
        if let Some(state) = state {
            assert_eq!(
                state,
                format!("{node:?}"),
                "hinted-idle node {id} changed at round {round}"
            );
        }
    }
    action
}

fn act_unchecked<N: RingNode>(
    node: &mut N,
    round: u64,
    rng: &mut SmallRng,
) -> Action<Msg<N::OwnMsg>> {
    let core = node.core_mut();
    let (phase, offset) = match core.step.get() {
        Step::Idle => return Action::Listen,
        Step::Status(probe) => {
            let beep = match probe {
                Probe::WaveProgress => std::mem::take(&mut core.wave_dirty),
                Probe::Cons(only, p) => core.answer_cons(only, p),
                Probe::Own(q) => node.answer(q),
            };
            return if beep { Action::Transmit(Msg::Status) } else { Action::Listen };
        }
        Step::Work(seg) => seg.at(round).expect("act within the published segment"),
    };
    match phase {
        Phase::Wave => core.wave_act(offset, rng),
        Phase::Construct(only) => core.cons_act(only, offset, rng),
        Phase::Own(own) => node.act_own(own, offset, rng),
    }
}

/// `Protocol::observe` of a ring node. Every sub-protocol a ring node routes
/// observations into ignores silence, and status rounds ignore everything
/// non-transmitted.
pub(crate) fn observe<N: RingNode>(
    node: &mut N,
    round: u64,
    obs: Observation<Msg<N::OwnMsg>>,
    rng: &mut SmallRng,
) {
    let core = node.core_mut();
    let Step::Work(seg) = core.step.get() else { return };
    let (phase, offset) = seg.at(round).expect("observation within the published segment");
    match phase {
        Phase::Wave => core.wave_observe(offset, &obs, rng),
        Phase::Construct(only) => core.cons_observe(only, offset, &obs, rng),
        Phase::Own(own) => node.observe_own(own, offset, obs, rng),
    }
}

/// How an adaptive open-ended window closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowEnd {
    /// The status probe quiesced (or the run completed): the phase's work is
    /// done and the cursor may advance.
    Quiesced,
    /// The budget ran out with the probe still busy. On a handoff window
    /// this is a *failed handoff* — the confirmation the driver was waiting
    /// for never came — and triggers the retry-with-backoff path.
    Exhausted,
}

/// Status reads a majority vote spans: the triggering read plus up to
/// `VOTE_WINDOW - 1` confirmation rounds.
pub const VOTE_WINDOW: u32 = 3;

/// Failed-handoff re-publications (with doubled budgets) before the driver
/// gives up on re-running the window verbatim and climbs the recovery
/// [`Ladder`]. One retry: with a staged ladder behind it, a second verbatim
/// re-run at 4–8× budget is strictly worse than a rung-1 ring-local repair —
/// PR 7's deeper backoff (3 retries, 15× window total) existed only because
/// the sole alternative was the global flood.
pub const HANDOFF_RETRIES: u32 = 1;

/// Shared bookkeeping of the staged recovery ladder.
///
/// When a handoff window exhausts its [`HANDOFF_RETRIES`], the driver no
/// longer jumps straight to the no-knowledge Decay flood; it sheds structure
/// *incrementally* (the Czumaj–Davies regime of graceful operation with
/// progressively less knowledge):
///
/// * **rung 1 — ring-local repair**: re-run only the failed ring's
///   construction/dissemination with fresh budget, keeping every other
///   ring's GST intact, then retry the handoff;
/// * **rung 2 — regional re-dissemination**: a Decay flood confined to the
///   failed ring ± 1, covering churn/mobility that moved the frontier out of
///   the ring bookkeeping;
/// * **rung 3 — the global no-knowledge flood**, reached only after rungs
///   1–2 fail, with its entry round recorded.
///
/// The ladder enforces the rung order: the driver gates each rung on the
/// previous one having been attempted at least once in the run, so the
/// recovery counters (`ring_repairs`, `regional_repairs`, `fallback_rounds`
/// in `RunStats`) are monotone — a nonzero rung-3 count implies nonzero
/// rung-2 and rung-1 counts. It is armed on every run, faulted or not; a run
/// that completes without a handoff running out never touches it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ladder {
    ring_attempted: bool,
    regional_attempted: bool,
    fallback_entry: Option<u64>,
}

impl Ladder {
    /// A ladder with no rungs climbed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a rung-1 (ring-local repair) attempt.
    pub fn ring(&mut self) {
        self.ring_attempted = true;
    }

    /// Records a rung-2 (regional re-dissemination) attempt.
    pub fn regional(&mut self) {
        debug_assert!(self.ring_attempted, "rung 2 armed before rung 1 was attempted");
        self.regional_attempted = true;
    }

    /// Whether rung 1 has been attempted in this run.
    pub fn ring_attempted(&self) -> bool {
        self.ring_attempted
    }

    /// Whether rung 2 has been attempted in this run.
    pub fn regional_attempted(&self) -> bool {
        self.regional_attempted
    }

    /// Whether the global flood (rung 3) may be armed: both lower rungs have
    /// been attempted.
    pub fn may_fall_back(&self) -> bool {
        self.ring_attempted && self.regional_attempted
    }

    /// Records the round the rung-3 flood entered (first arming wins).
    pub fn arm_fallback(&mut self, round: u64) {
        debug_assert!(self.may_fall_back(), "rung 3 armed before rungs 1-2 were attempted");
        if self.fallback_entry.is_none() {
            self.fallback_entry = Some(round);
        }
    }

    /// The round the rung-3 flood entered, `None` if the run never fell
    /// back.
    pub fn fallback_entry(&self) -> Option<u64> {
        self.fallback_entry
    }
}

/// Number of recent dissemination-window samples the sliding-window erasure
/// estimator averages over.
pub const LOSS_WINDOW: usize = 4;

/// Sliding-window erasure estimator driving the multi-message pipeline's
/// handoff FEC repair rate.
///
/// PR 7 adapted the `fec_repair` knob to the *cumulative* erased/delivered
/// totals, so the repair schedule ratcheted toward maximum aggression after
/// any bursty interval and never relaxed. This estimator keeps the same
/// gate-compression map ([`windowed_repair`]) but feeds it only the last
/// [`LOSS_WINDOW`] per-window `(erased, delivered)` deltas, so a burst ages
/// out of the estimate after `LOSS_WINDOW` clean windows and the repair
/// schedule relaxes back to the configured knob.
#[derive(Clone, Debug)]
pub struct LossEstimator {
    knob: u32,
    samples: [(u64, u64); LOSS_WINDOW],
    next: usize,
    last: (u64, u64),
}

impl LossEstimator {
    /// An estimator with configured repair ceiling `knob` and an empty
    /// sample window.
    pub fn new(knob: u32) -> Self {
        LossEstimator { knob, samples: [(0, 0); LOSS_WINDOW], next: 0, last: (0, 0) }
    }

    /// Feeds the run's cumulative `(erased, delivered)` totals at a window
    /// boundary; the delta since the previous call becomes one sample,
    /// evicting the oldest. Returns the effective repair rate over the
    /// refreshed window.
    pub fn observe(&mut self, erased: u64, delivered: u64) -> u32 {
        let delta = (erased.saturating_sub(self.last.0), delivered.saturating_sub(self.last.1));
        self.last = (erased, delivered);
        self.samples[self.next] = delta;
        self.next = (self.next + 1) % LOSS_WINDOW;
        self.effective()
    }

    /// The effective repair rate for the current window contents.
    pub fn effective(&self) -> u32 {
        let (erased, delivered) =
            self.samples.iter().fold((0u64, 0u64), |(e, d), s| (e + s.0, d + s.1));
        windowed_repair(self.knob, erased, delivered)
    }
}

/// The gate-compression map from measured erasures to a handoff repair rate:
/// halves `knob` (toward `1`, the most aggressive repair emission) per
/// doubling of `erased` above ~1% of the observed traffic. Clean windows
/// (`erased == 0`) and the paper's full-cycle gate (`knob == 0`) pass
/// through untouched.
pub fn windowed_repair(knob: u32, erased: u64, delivered: u64) -> u32 {
    if knob == 0 || erased == 0 {
        return knob;
    }
    let total = erased + delivered;
    let mut gate = total.div_ceil(100).max(1);
    let mut r = knob;
    while r > 1 && erased >= gate {
        r /= 2;
        gate *= 2;
    }
    r
}

/// Whether a round's status read was touched by a channel-level fault (an
/// erased packet copy or a jam injection) and its verdict is therefore
/// suspect. Topology churn does not corrupt a status read: the transmit
/// census is taken before the channel resolves.
fn fault_touched(r: &RoundStats) -> bool {
    r.erased + r.jammed > 0
}

/// What the channel actually rendered to listeners in a status round: quiet
/// iff nobody heard a packet or a collision. Unlike the transmit census this
/// is what an in-model observer could know on a faulted channel — an erased
/// beep renders quiet, a jam renders busy.
fn rendered_quiet(r: &RoundStats) -> bool {
    r.deliveries + r.collisions == 0
}

/// Outcome of a majority-voted quiescence decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoteOutcome {
    /// The voted verdict: `true` = the probe quiesced.
    pub quiet: bool,
    /// Whether the vote overturned the single-round decision the pre-voting
    /// driver would have taken on `first` alone.
    pub overturned: bool,
}

/// Whether a status read decides its verdict on its own, and if so which.
/// `None` means the read is ambiguous and needs confirmation.
///
/// * A fault-clean read keeps the channel-census verdict
///   (`transmitters == 0`) untouched.
/// * An erasure-only read (`jammed == 0`) that rendered *busy* is
///   authoritative busy: erasure deletes signal but never fabricates it, so
///   audible activity is real. Only an erasure-touched read that rendered
///   quiet is suspect (the beeps may all have been erased).
/// * A jam-touched read decides nothing by itself — jams fabricate
///   collisions, so both renderings are suspect.
fn self_deciding(r: &RoundStats) -> Option<bool> {
    if !fault_touched(r) {
        return Some(r.transmitters == 0);
    }
    (r.jammed == 0 && !rendered_quiet(r)).then_some(false)
}

/// Majority-voted quiescence verdict over a small window of status reads.
///
/// `first` is the status round the caller just executed. A self-deciding
/// read (see `self_deciding`: fault-clean, or audibly busy under
/// erasure-only faults) keeps its verdict untouched — on a run without
/// faults every read is clean, so the voting layer is provably bit-identical
/// to the single-round driver. An ambiguous read is demoted to what the
/// channel actually rendered to listeners and confirmed by up to
/// [`VOTE_WINDOW`]` - 1` re-probes via `revote`: the first self-deciding
/// re-read is authoritative, otherwise the majority of the renderings wins
/// (ties count as busy — the conservative direction, since a busy verdict
/// only keeps the window open).
///
/// `votable` must be `false` for *consuming* probes (the take-style
/// wave-progress and new-activation reads): re-probing them would eat the
/// dirty flag the first read already consumed, so their single-round verdict
/// stands.
pub fn vote_quiet(
    first: RoundStats,
    votable: bool,
    mut revote: impl FnMut() -> RoundStats,
) -> VoteOutcome {
    let census_quiet = first.transmitters == 0;
    if !votable {
        return VoteOutcome { quiet: census_quiet, overturned: false };
    }
    if let Some(quiet) = self_deciding(&first) {
        return VoteOutcome { quiet, overturned: quiet != census_quiet };
    }
    let mut quiet_votes = usize::from(rendered_quiet(&first));
    let mut reads = 1usize;
    let mut authoritative = None;
    while reads < VOTE_WINDOW as usize {
        let r = revote();
        reads += 1;
        if let Some(verdict) = self_deciding(&r) {
            authoritative = Some(verdict);
            break;
        }
        quiet_votes += usize::from(rendered_quiet(&r));
    }
    let quiet = authoritative.unwrap_or(2 * quiet_votes > reads);
    VoteOutcome { quiet, overturned: quiet != census_quiet }
}

/// Construction status probes: what a dedicated status round asks the
/// nodes. Probes address ring-local boundaries/ranks, so one probe covers
/// every ring at once (parallel ring constructions share the phase cursor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ConsProbe {
    /// "Are you an unassigned blue of this `(boundary, rank)`?"
    OpenBlue {
        /// Ring-local blue level.
        boundary: u32,
        /// Rank subproblem.
        rank: u32,
    },
    /// "An unassigned blue of rank strictly below `rank`?"
    /// (a potential Stage III adopter).
    OpenBlueBelow {
        /// Ring-local blue level.
        boundary: u32,
        /// Rank subproblem.
        rank: u32,
    },
    /// "An active red of this boundary?"
    ActiveRed {
        /// Ring-local blue level.
        boundary: u32,
    },
    /// "Did you activate since the last status round?"
    NewActivation,
    /// "A loner blue with a Stage Ib announcement pending?"
    LonerBlue {
        /// Ring-local blue level.
        boundary: u32,
    },
    /// "A red that would participate in recruiting `part`?"
    PartRed {
        /// Ring-local blue level.
        boundary: u32,
        /// Recruiting part 1–3.
        part: u8,
    },
    /// "A red actually participating in the running part?"
    PartParticipant,
    /// "A blue whose recruiting run is still unresolved?"
    UnresolvedBlue,
    /// "A red ranked this epoch (Stage III announcer)?"
    NewlyRanked {
        /// Ring-local blue level.
        boundary: u32,
    },
}

/// The status-round budgets a [`Driver`] keeps. A skip loop whose budget
/// runs dry bails out, and the plan's worst-case cap takes over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Budget {
    /// The main construction phase, over every ring at once.
    Construct,
    /// The Theorem 1.3 labeling phase.
    Label,
    /// One rung-1 ring-local repair construction, refreshed per repair.
    Repair,
}

/// What a pipeline supplies to the shared [`Driver`], implemented by its node
/// type on top of its [`RingNode`] back half. Everything else — the cursor,
/// status budgets and voting, windows, the front half, the handoff retry and
/// the recovery ladder, state sampling and the outcome — is the driver's.
pub(crate) trait Pipeline: RingNode + Protocol {
    /// Driver-side run state: the plan, plus whatever the phase sequence
    /// needs across phases.
    type Run: AsRef<FrontPlan>;
    /// The phase of the rung-3 fallback.
    const FALLBACK: Self::Own;

    /// The completion predicate. It may flip only in a round that delivered
    /// a packet: the driver scans it after delivery rounds only.
    fn is_complete(&self) -> bool;

    /// Resident bytes of the node's protocol state, at struct granularity
    /// (see the README's memory-model section).
    fn resident_bytes(&self) -> usize;

    /// The node's schedule audit counters.
    fn audit(&self) -> SchedAudit;

    /// The status budget a vote re-read of own probe `probe` is charged
    /// against, so a skip loop's round accounting cannot outgrow its cap
    /// because votes fired.
    fn vote_budget(probe: Self::OwnProbe) -> Option<Budget>;

    /// Runs the pipeline's phase sequence, returning the sequence index
    /// (ring or window) the recovery epilogue anchors at.
    fn phases<T: Topology>(d: &mut Driver<Self, T>) -> u32;

    /// The body of rung 1 (ring-local repair) for sequence index `at`;
    /// `true` iff the run completed or the repaired handoff quiesced.
    fn ring_repair<T: Topology>(d: &mut Driver<Self, T>, at: u32) -> bool;

    /// The body of rung 2 (regional re-dissemination) for sequence index
    /// `at`; `true` iff the run completed or the region quiesced.
    fn regional_repair<T: Topology>(d: &mut Driver<Self, T>, at: u32) -> bool;

    /// The algorithm-specific extension of the outcome.
    fn detail(run: &Self::Run, nodes: &[Self], fallback_entry: Option<u64>) -> Detail;
}

/// The adaptive pipeline driver: owns the simulator and the shared phase
/// cursor, advances phases on status-round quiescence, and hard-caps the run
/// at the plan's worst-case round count.
///
/// One failure rule holds for every run, faulted or not: a handoff window
/// that runs out is retried and then repaired on the staged ladder, and a
/// run that ends incomplete climbs the ladder to its last rung.
pub(crate) struct Driver<N: Pipeline, T: Topology> {
    /// The simulator the pipeline runs on.
    pub(crate) sim: Simulator<N, T>,
    step: StepCell<N::Own, N::OwnProbe>,
    /// The pipeline's plan and run state.
    pub(crate) plan: N::Run,
    /// Rounds executed so far, by phase.
    pub(crate) phases: Phases,
    cap: u64,
    beep: u64,
    quiescence_slack: u32,
    /// Status rounds left per [`Budget`].
    status_left: [u64; 3],
    completion: Option<u64>,
    ladder: Ladder,
    /// Peak of the phase-boundary node-state samples (see `sample_state`).
    peak_nodes: usize,
}

impl<N: Pipeline, T: Topology> Driver<N, T> {
    /// A driver over `sim`, whose nodes all share `step`; `cap` is the
    /// plan's worst-case round count. Only the construction status budget
    /// starts full.
    pub(crate) fn new(
        sim: Simulator<N, T>,
        step: StepCell<N::Own, N::OwnProbe>,
        plan: N::Run,
        cap: u64,
        params: &Params,
    ) -> Self {
        let cons_status = plan.as_ref().cons_status;
        Driver {
            sim,
            step,
            plan,
            phases: Phases::default(),
            cap,
            beep: u64::from(params.beep_interval.max(1)),
            quiescence_slack: params.quiescence_slack,
            status_left: [cons_status, 0, 0],
            completion: None,
            ladder: Ladder::new(),
            peak_nodes: 0,
        }
    }

    /// Sets the status rounds `budget` may still spend.
    pub(crate) fn set_status(&mut self, budget: Budget, rounds: u64) {
        self.status_left[budget as usize] = rounds;
    }

    /// Runs the pipeline to completion (or its cap) and returns the outcome.
    pub(crate) fn run(mut self) -> Outcome {
        self.drive();
        let mut audit = SchedAudit::default();
        for n in self.sim.nodes() {
            audit.absorb(n.audit());
        }
        Outcome {
            completion_round: self.completion,
            cap: self.cap,
            phases: self.phases,
            stats: self.sim.stats().clone(),
            audit,
            peak_state_bytes: self.sim.graph().resident_bytes() + self.peak_nodes,
            detail: N::detail(&self.plan, self.sim.nodes(), self.ladder.fallback_entry()),
        }
    }

    /// Runs the phase sequence, then the recovery epilogue, and samples the
    /// final state.
    pub(crate) fn drive(&mut self) {
        if self.all_complete() {
            self.completion = Some(0);
        }
        let frontier = N::phases(self);
        self.recover(frontier);
        self.sample_state();
    }

    /// Whether every node completed.
    pub(crate) fn done(&self) -> bool {
        self.completion.is_some()
    }

    fn all_complete(&self) -> bool {
        self.sim.nodes().iter().all(N::is_complete)
    }

    /// Rounds left under the worst-case cap — the pool the recovery paths
    /// (handoff retries, the ladder, the fallback flood) may draw from
    /// without breaking the `completion <= cap` guarantee.
    pub(crate) fn budget_left(&self) -> u64 {
        self.cap.saturating_sub(self.sim.round())
    }

    /// Moves the shared cursor: every cell change force-wakes all nodes
    /// (their hints were computed against the outgoing cell).
    fn publish(&mut self, step: Step<N::Own, N::OwnProbe>) {
        self.sim.wake_all();
        self.step.set(step);
    }

    /// Applies a driver echo to every node (a state transition all nodes
    /// learn from the status-round transcript, like the cursor itself).
    pub(crate) fn echo(&mut self, mut f: impl FnMut(&mut N)) {
        for i in 0..self.sim.nodes().len() {
            f(self.sim.node_mut(NodeId::new(i)));
        }
    }

    /// Samples the resident protocol state (an `O(n)` sweep, run only at
    /// phase boundaries) and folds it into the peak. The phase structure
    /// makes boundary sampling exact enough: sub-states are created and
    /// retired only at the boundaries the driver itself publishes.
    pub(crate) fn sample_state(&mut self) {
        let nodes: usize = self.sim.nodes().iter().map(N::resident_bytes).sum();
        self.peak_nodes = self.peak_nodes.max(nodes);
    }

    /// Publishes `len` consecutive work rounds of `phase`, starting at phase
    /// offset `offset`, as one [`Segment`] and runs them through the engine's
    /// wake queue, stopping early once every node is complete. Returns
    /// the number of rounds actually executed.
    pub(crate) fn exec_segment(&mut self, phase: Phase<N::Own>, offset: u64, len: u64) -> u64 {
        let start = self.sim.round();
        self.publish(Step::Work(Segment { start, len, phase, offset }));
        if !self.done() {
            self.completion = self.sim.run_until(len, |ns| ns.iter().all(N::is_complete));
        }
        self.sim.round() - start
    }

    /// Runs one status round for `probe`.
    fn status_round(&mut self, probe: Probe<N::OwnProbe>) -> RoundStats {
        self.publish(Step::Status(probe));
        let stats = self.sim.step();
        // The completion predicate flips only when a packet arrives, so the
        // O(n) all-nodes scan is needed only after delivery rounds.
        if !self.done() && stats.deliveries > 0 && self.all_complete() {
            self.completion = Some(self.sim.round());
        }
        stats
    }

    /// Runs one status round; `true` iff the probe quiesced.
    ///
    /// A fault-clean read (every read of a fault-free run) keeps the
    /// single-round channel census ("did anybody transmit?"). A
    /// fault-touched read is demoted to the channel's listener-side
    /// rendering and majority-voted over a small window of re-probes (see
    /// [`vote_quiet`]); consuming probes are never re-probed.
    fn quiet(&mut self, probe: Probe<N::OwnProbe>) -> bool {
        self.phases.status += 1;
        let first = self.status_round(probe);
        let budget = match probe {
            Probe::WaveProgress => None,
            Probe::Cons(None, _) => Some(Budget::Construct),
            Probe::Cons(Some(_), _) => Some(Budget::Repair),
            Probe::Own(q) => N::vote_budget(q),
        };
        let v = vote_quiet(first, probe.votable(), || {
            self.phases.status += 1;
            if let Some(budget) = budget {
                let left = &mut self.status_left[budget as usize];
                *left = left.saturating_sub(1);
            }
            self.status_round(probe)
        });
        if v.overturned {
            self.sim.stats_mut().votes_overturned += 1;
        }
        v.quiet
    }

    /// One status round charged against `budget`: `Some(true)` iff the
    /// probe quiesced, `None` once the budget is spent.
    pub(crate) fn budgeted_quiet(
        &mut self,
        budget: Budget,
        probe: impl Into<Probe<N::OwnProbe>>,
    ) -> Option<bool> {
        let left = &mut self.status_left[budget as usize];
        if *left == 0 {
            return None;
        }
        *left -= 1;
        Some(self.quiet(probe.into()))
    }

    /// The front half both pipelines open with: the collision wave, closed
    /// `quiescence_slack` silent status rounds after the frontier stops
    /// advancing, then the parallel per-ring construction. Samples the node
    /// state at its peak: every layered node holds live construction state.
    pub(crate) fn front(&mut self) {
        let wave_budget = self.plan.as_ref().wave_budget;
        if !self.done() {
            let _ =
                self.window(wave_budget, Probe::WaveProgress, false, Phase::Wave, |p| &mut p.wave);
        }
        if !self.done() {
            self.construct(None);
        }
        self.sample_state();
    }

    /// One adaptive open-ended window: a `beep_interval`-round work segment
    /// of `phase`, one status round, until the probe has stayed quiet for
    /// `quiescence_slack` consecutive status rounds or `budget` (work +
    /// status rounds, including any vote re-probes) is exhausted. With
    /// `probe_first`, the probe runs before any work — a window with nothing
    /// pending collapses to a single status round. Work rounds are counted
    /// into the phase `count` selects.
    pub(crate) fn window(
        &mut self,
        budget: u64,
        probe: impl Into<Probe<N::OwnProbe>>,
        probe_first: bool,
        phase: impl Into<Phase<N::Own>>,
        count: fn(&mut Phases) -> &mut u64,
    ) -> WindowEnd {
        let (probe, phase) = (probe.into(), phase.into());
        let slack = self.quiescence_slack.max(1);
        let start = self.sim.round();
        let spent = |sim: &Simulator<N, T>| sim.round() - start;
        let mut offset = 0u64;
        let mut quiet_streak = 0u32;
        if probe_first && !self.done() && self.quiet(probe) {
            return WindowEnd::Quiesced;
        }
        while spent(&self.sim) < budget && !self.done() {
            let run = self.exec_segment(phase, offset, self.beep.min(budget - spent(&self.sim)));
            *count(&mut self.phases) += run;
            offset += run;
            if spent(&self.sim) >= budget || self.done() {
                break;
            }
            if self.quiet(probe) {
                quiet_streak += 1;
                if quiet_streak >= slack {
                    return WindowEnd::Quiesced;
                }
            } else {
                quiet_streak = 0;
            }
        }
        if self.done() {
            WindowEnd::Quiesced
        } else {
            WindowEnd::Exhausted
        }
    }

    /// Runs the construction skip loop over `only` (see
    /// [`Phase::Construct`]). Every ring at once (`None`) runs two slots per
    /// schedule round, counted as construction and charged to
    /// [`Budget::Construct`]; one ring (`Some`) runs unslotted, counted as
    /// repair and charged to a refreshed [`Budget::Repair`]. Both stop at the
    /// worst-case cap.
    pub(crate) fn construct(&mut self, only: Option<u32>) {
        let front = *self.plan.as_ref();
        if only.is_some() {
            self.set_status(Budget::Repair, front.cons_status);
        }
        ConsRun { d: self, only }.drive(front.cons);
    }

    /// A handoff window with retry-and-backoff. A window that exhausts its
    /// budget while the probe still beeps is a *failed* handoff: it is
    /// re-published with a doubled budget (drawn from the worst-case pool)
    /// instead of advancing the cursor into a dead phase.
    /// Once retries run out the driver climbs rungs 1–2 of the recovery
    /// [`Ladder`] for sequence index `at`. Once the ladder has fired, the
    /// channel has proven persistently degraded, so later failed handoffs
    /// skip the retry and climb at once.
    ///
    /// Returns `false` iff both rungs failed: the caller abandons its
    /// sequence toward the rung-3 fallback, preserving the remaining budget.
    pub(crate) fn handoff(
        &mut self,
        mut budget: u64,
        probe: impl Into<Probe<N::OwnProbe>>,
        probe_first: bool,
        phase: impl Into<Phase<N::Own>>,
        at: u32,
    ) -> bool {
        let (probe, phase) = (probe.into(), phase.into());
        let max_retries = if self.ladder.ring_attempted() { 0 } else { HANDOFF_RETRIES };
        let mut attempt = 0u32;
        loop {
            let end = self.window(budget, probe, probe_first, phase, |p| &mut p.handoff);
            if end == WindowEnd::Quiesced {
                return true;
            }
            if attempt < max_retries {
                attempt += 1;
                budget = (budget * 2).min(self.budget_left());
                if budget > 0 {
                    self.sim.stats_mut().retries += 1;
                    continue;
                }
            }
            return self.rung1(at) || self.done() || self.rung2(at) || self.done();
        }
    }

    /// Rung 1 of the [`Ladder`]: the pipeline's ring-local repair for `at`.
    fn rung1(&mut self, at: u32) -> bool {
        if self.budget_left() == 0 {
            return false;
        }
        self.ladder.ring();
        self.sim.stats_mut().ring_repairs += 1;
        N::ring_repair(self, at)
    }

    /// Rung 2 of the [`Ladder`]: the pipeline's regional re-dissemination
    /// for `at`.
    fn rung2(&mut self, at: u32) -> bool {
        if self.budget_left() == 0 {
            return false;
        }
        self.ladder.regional();
        self.sim.stats_mut().regional_repairs += 1;
        N::regional_repair(self, at)
    }

    /// Staged-ladder epilogue: a run that ends incomplete climbs any
    /// rung it has not yet attempted — anchored at `frontier` — before the
    /// last resort. Rung 3, the no-knowledge Decay fallback (the
    /// Czumaj–Davies regime), is reached only after rungs 1–2 both fired and
    /// failed: every holder floods on the Decay schedule and every node
    /// adopts ring-agnostically, bounded by what remains of the worst-case
    /// cap. True to the no-knowledge regime, there are no status beeps in
    /// rung 3: a vote the faults corrupt must not silence the last-resort
    /// phase, so only the reception-gated completion scan (or the cap) ends
    /// it.
    fn recover(&mut self, frontier: u32) {
        if self.done() {
            return;
        }
        if !self.ladder.ring_attempted() {
            let _ = self.rung1(frontier);
        }
        if !self.done() && !self.ladder.regional_attempted() {
            let _ = self.rung2(frontier);
        }
        if !self.done() && self.ladder.may_fall_back() {
            let left = self.budget_left();
            if left > 0 {
                self.ladder.arm_fallback(self.sim.round());
                let run = self.exec_segment(Phase::Own(N::FALLBACK), 0, left);
                self.phases.fallback += run;
                self.sim.stats_mut().fallback_rounds += run;
            }
        }
    }
}

/// One construction skip loop running through a [`Driver`] (see
/// [`Driver::construct`]).
struct ConsRun<'a, N: Pipeline, T: Topology> {
    d: &'a mut Driver<N, T>,
    /// The ring under repair, or `None` for every ring at once.
    only: Option<u32>,
}

impl<N: Pipeline, T: Topology> ConsRun<'_, N, T> {
    /// One construction status round; `None` once the status budget or the
    /// worst-case pool is spent (the loop bails out and the cap takes over).
    fn quiet(&mut self, probe: ConsProbe) -> Option<bool> {
        if self.d.budget_left() == 0 {
            return None;
        }
        let budget = if self.only.is_some() { Budget::Repair } else { Budget::Construct };
        self.d.budgeted_quiet(budget, Probe::Cons(self.only, probe))
    }

    /// The construction work of schedule rounds `start..start + len`, as one
    /// published segment: the loop only ever requests runs within a single
    /// construction-schedule segment, so a node's next act offset in that
    /// segment (`GstConstructionNode::next_act_offset`: a recruiting red's
    /// beacon or echo, a blue's next iteration start or response round) is
    /// also its next act in the batch.
    fn run(&mut self, start: u64, len: u64) {
        let (slots, count): (u64, fn(&mut Phases) -> &mut u64) = match self.only {
            Some(_) => (1, |p| &mut p.repair),
            None => (2, |p| &mut p.construct),
        };
        let len = (slots * len).min(self.d.budget_left());
        if len > 0 {
            let run = self.d.exec_segment(Phase::Construct(self.only), slots * start, len);
            *count(&mut self.d.phases) += run;
        }
    }

    /// The skip loop: parallel per-ring GST construction with quiescence
    /// skipping. Rank blocks with no open blues are skipped outright;
    /// Identify ends when activations stop; epochs end when every blue is
    /// assigned or no red is active; recruiting parts end when no red
    /// participates or every blue's run resolved; Stage Ib/III run only when
    /// they have announcers (and, for Stage III, adopters).
    ///
    /// The caller runs the per-node construction epilogue
    /// (`GstConstructionNode::finalize`) afterwards — the loop may have
    /// skipped the later blocks through which the fixed schedule reaches
    /// that state lazily.
    fn drive(&mut self, cons: ConstructionSchedule) {
        let iteration = cons.recruit_iteration_rounds();
        let iterations = cons.recruit_rounds() / iteration;
        let phase_len = u64::from(cons.phase_len());
        let ident_phases = cons.decay_step() / phase_len.max(1);
        for boundary in (1..=cons.d_bound).rev() {
            for rank in (1..=cons.max_rank()).rev() {
                if self.d.done() {
                    return;
                }
                match self.quiet(ConsProbe::OpenBlue { boundary, rank }) {
                    Some(true) => continue, // no open blues anywhere: skip block
                    Some(false) => {}
                    None => return,
                }
                // Identify prologue, phase by phase until activations stop.
                let block = cons.rank_block_start(boundary, rank);
                for ph in 0..ident_phases {
                    self.run(block + ph * phase_len, phase_len);
                    match self.quiet(ConsProbe::NewActivation) {
                        Some(true) => break,
                        Some(false) => {}
                        None => return,
                    }
                }
                for epoch in 0..cons.epochs() {
                    match self.quiet(ConsProbe::OpenBlue { boundary, rank }) {
                        Some(true) => break, // every blue assigned
                        Some(false) => {}
                        None => return,
                    }
                    match self.quiet(ConsProbe::ActiveRed { boundary }) {
                        Some(true) => break, // no red left to assign them
                        Some(false) => {}
                        None => return,
                    }
                    let e0 = cons.epoch_start(boundary, rank, epoch);
                    self.run(e0, 1); // Stage Ia beacons
                    match self.quiet(ConsProbe::LonerBlue { boundary }) {
                        Some(true) => {} // no loners: skip Stage Ib
                        Some(false) => self.run(e0 + 1, cons.decay_step()),
                        None => return,
                    }
                    for part in 1..=3u8 {
                        match self.quiet(ConsProbe::PartRed { boundary, part }) {
                            Some(true) => continue, // no reds for this part
                            Some(false) => {}
                            None => return,
                        }
                        let p0 = e0
                            + 1
                            + cons.decay_step()
                            + u64::from(part - 1) * cons.recruit_rounds();
                        for i in 0..iterations {
                            self.run(p0 + i * iteration, iteration);
                            let probe = if i == 0 {
                                ConsProbe::PartParticipant
                            } else {
                                ConsProbe::UnresolvedBlue
                            };
                            match self.quiet(probe) {
                                Some(true) => break,
                                Some(false) => {}
                                None => return,
                            }
                        }
                    }
                    // Stage III runs only with announcers *and* adopters.
                    match self.quiet(ConsProbe::NewlyRanked { boundary }) {
                        Some(true) => continue,
                        Some(false) => {}
                        None => return,
                    }
                    match self.quiet(ConsProbe::OpenBlueBelow { boundary, rank }) {
                        Some(true) => continue,
                        Some(false) => {}
                        None => return,
                    }
                    self.run(
                        e0 + 1 + cons.decay_step() + 3 * cons.recruit_rounds(),
                        cons.decay_step(),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_are_monotone() {
        let mut l = Ladder::new();
        assert!(!l.ring_attempted() && !l.regional_attempted() && !l.may_fall_back());
        l.ring();
        assert!(l.ring_attempted() && !l.may_fall_back());
        l.regional();
        assert!(l.may_fall_back());
        assert_eq!(l.fallback_entry(), None);
        l.arm_fallback(42);
        assert_eq!(l.fallback_entry(), Some(42));
        // First arming wins: a re-arm never rewrites the recorded entry.
        l.arm_fallback(99);
        assert_eq!(l.fallback_entry(), Some(42));
    }

    #[test]
    fn windowed_repair_passthrough_cases() {
        assert_eq!(windowed_repair(0, 500, 500), 0);
        assert_eq!(windowed_repair(4, 0, 1000), 4);
        // Below ~1% of traffic the knob is untouched.
        assert_eq!(windowed_repair(4, 5, 995), 4);
    }

    #[test]
    fn windowed_repair_compresses_per_doubling() {
        // 10% erasure over 1000 copies: gate 10 -> 20 -> 40 -> 80 -> 160,
        // erased 100 crosses 10/20/40/80, so an 8-knob halves to 1.
        assert_eq!(windowed_repair(8, 100, 900), 1);
        assert_eq!(windowed_repair(4, 15, 985), 2);
    }

    #[test]
    fn loss_estimator_relaxes_after_a_burst() {
        let mut est = LossEstimator::new(4);
        assert_eq!(est.effective(), 4, "empty window keeps the configured knob");
        // A bursty interval: 20% of copies erased.
        let during_burst = est.observe(200, 800);
        assert!(during_burst < 4, "burst must tighten the repair gate, got {during_burst}");
        // Clean windows afterwards: same cumulative erasure total, fresh
        // deliveries. The cumulative estimator would stay pinned at
        // `during_burst` forever; the sliding window ages the burst out.
        let mut last = during_burst;
        for w in 1..=LOSS_WINDOW as u64 {
            let relaxed = est.observe(200, 800 + w * 1000);
            assert!(relaxed >= last, "repair rate must relax monotonically after the burst");
            last = relaxed;
        }
        assert_eq!(last, 4, "a fully clean window must restore the configured knob");
    }

    #[test]
    fn loss_estimator_matches_windowed_repair_on_window_sums() {
        let mut est = LossEstimator::new(8);
        est.observe(50, 450);
        let eff = est.observe(80, 900);
        // Window holds the deltas (50, 450) and (30, 450).
        assert_eq!(eff, windowed_repair(8, 80, 900));
    }
}
