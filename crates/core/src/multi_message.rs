//! k-message broadcast (Theorems 1.2 and 1.3).
//!
//! * **Theorem 1.2**, known topology
//!   ([`Workload::MultiKnown`](crate::run::Workload::MultiKnown)): every node
//!   computes the same GST and virtual distances locally (no communication),
//!   then the MMV schedule of Section 3.2 runs with RLNC
//!   (`O(D + k log n + log^2 n)` rounds). The slow-key and empty-behavior
//!   knobs expose the E8 ablation (level keying) and the MMV noise stress.
//!   The run is non-adaptive, so it lives beside the baselines in
//!   [`crate::run`].
//! * [`GhkMultiNode`]
//!   ([`Workload::MultiUnknown`](crate::run::Workload::MultiUnknown)) —
//!   **Theorem 1.3**, unknown topology with collision detection:
//!   collision-wave layering → parallel per-ring distributed GST
//!   construction → per-ring distributed virtual-distance labeling
//!   (Lemma 3.10) → dissemination, with message *batches* pipelined across
//!   rings and forward error correction (a random linear fountain) carrying
//!   each batch across ring boundaries (Section 3.4).
//!
//! Batching: [`BatchMode::FullK`] codes all `k` messages together (simple,
//! `k`-bit coefficient vectors — the packet-budget audit of E14 flags the
//! overhead when `k ≫ log n`); [`BatchMode::Generations`] keeps batches at
//! `Θ(log n)` messages, the paper's coefficient-overhead fix, and pipelines
//! the batches across rings.
//!
//! ## Adaptive phase termination
//!
//! Theorem 1.3 runs **adaptively**, on the driver it shares with
//! Theorem 1.1 (see [`crate::adaptive`], and the `single_message` module
//! docs for the in-model justification of status rounds and the shared
//! cursor): the wave closes when the frontier stops,
//! construction runs the shared rank-block skip loop, labeling processes
//! `d` frontiers only while they are alive, dissemination windows close once
//! every ring with an open batch can decode it, and handoff slots collapse
//! to a single probe when the receiving roots already hold the batch. Every
//! phase stays hard-capped by its paper-sized window and
//! [`GhkMultiPlan::total_rounds`] bounds any run.
//!
//! Two structural notes. Batch windows *pipeline* across rings — in window
//! `w`, ring `j` disseminates batch `w − j` while ring `j + 1` receives its
//! handoff — so with adaptive (narrow) rings the whole message stream is in
//! flight across the network at once. And dissemination windows are
//! 2-slotted by ring parity: adjacent rings work different batches in the
//! same window, and narrow rings put a boundary node's only in-ring neighbor
//! directly next to the following ring's roots, whose slow-slot timing is
//! identical — without the slotting those transmissions collide
//! persistently (the same interference argument that slots the parallel
//! ring constructions).

use crate::adaptive::{
    answer_cons_probe, cons_status_budget, hint_checked_act, narrow, Advance, Budget, ConsProbe,
    Driver, LossEstimator, Pacing, Pipeline, Segment, Step, StepCell, WindowEnd,
};
use crate::construction::{ConstructionSchedule, GstConstructionNode, GstMsg};
use crate::decay::DecaySchedule;
use crate::layering::{Beep, CollisionWaveLayering};
use crate::params::Params;
use crate::run::Detail;
use crate::schedule::{
    EmptyBehavior, MmvScheduleNode, SchedAudit, SchedLabels, SchedMsg, ScheduleConfig, SlowKey,
};
use crate::virtual_labels::{VirtualLabelNode, VlMsg, VlSchedule};
use radio_sim::graph::bfs_layering;
use radio_sim::model::PacketBits;
use radio_sim::{
    Action, CollisionMode, FaultPlan, NodeId, Observation, Protocol, Simulator, Topology, Wake,
};
use rand::rngs::SmallRng;
use rlnc::gf2::BitVec;
use rlnc::{CodedPacket, Decoder};
use std::cell::Cell;
use std::rc::Rc;

/// How messages are grouped for coding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchMode {
    /// One batch holding all `k` messages.
    FullK,
    /// Batches of at most the given size (the paper's `Θ(log n)`).
    Generations(usize),
}

impl BatchMode {
    fn batch_size(&self, k: usize) -> usize {
        match *self {
            BatchMode::FullK => k,
            BatchMode::Generations(g) => g.max(1).min(k),
        }
    }
}

/// Messages of the Theorem 1.3 pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GhkMMsg {
    /// Collision-wave beep.
    Wave(Beep),
    /// GST construction traffic.
    Gst(GstMsg),
    /// Virtual-labeling traffic.
    Vl(VlMsg),
    /// In-ring dissemination traffic, tagged with its batch.
    Sched {
        /// Batch index.
        batch: u32,
        /// The schedule packet.
        msg: SchedMsg,
    },
    /// Ring-boundary FEC packet of a batch.
    Fec {
        /// Batch index.
        batch: u32,
        /// A fountain packet over the batch.
        packet: CodedPacket,
    },
    /// Content-free status beep of the adaptive termination protocol.
    Status,
}

impl PacketBits for GhkMMsg {
    fn packet_bits(&self) -> usize {
        3 + match self {
            GhkMMsg::Wave(b) => b.packet_bits(),
            GhkMMsg::Gst(m) => m.packet_bits(),
            GhkMMsg::Vl(m) => m.packet_bits(),
            GhkMMsg::Sched { msg, .. } => 16 + msg.packet_bits(),
            GhkMMsg::Fec { packet, .. } => 16 + packet.packet_bits(),
            GhkMMsg::Status => 0,
        }
    }
}

/// The phase plan of the Theorem 1.3 pipeline: ring/batch geometry and the
/// worst-case phase budgets the adaptive run is capped by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GhkMultiPlan {
    /// Diameter bound (wave rounds).
    pub d_bound: u32,
    /// Ring width in layers.
    pub ring_width: u32,
    /// Number of rings.
    pub ring_count: u32,
    /// Number of message batches.
    pub batch_count: u32,
    /// Messages per batch (last may be short).
    pub batch_size: u32,
    /// Total messages.
    pub k: u32,
    /// Per-ring construction schedule.
    pub cons: ConstructionSchedule,
    /// Rounds of the 2-slotted construction phase.
    pub cons_rounds: u64,
    /// Per-ring virtual labeling schedule.
    pub vl: VlSchedule,
    /// Rounds of the 2-slotted labeling phase.
    pub vl_rounds: u64,
    /// Schedule rounds of one in-ring dissemination window.
    pub window: u64,
    /// Rounds of one (2-slotted) handoff window.
    pub handoff: u64,
    /// Adaptive cap on the wave phase (work + status rounds).
    pub wave_budget: u64,
    /// Adaptive cap on construction *status* rounds (work rounds are capped
    /// by [`GhkMultiPlan::cons_rounds`]).
    pub cons_status: u64,
    /// Adaptive cap on labeling *status* rounds (work rounds are capped by
    /// [`GhkMultiPlan::vl_rounds`]).
    pub label_status: u64,
    /// Adaptive cap on one dissemination window (work + status rounds).
    pub window_budget: u64,
    /// Adaptive cap on one handoff window (work + status rounds, including
    /// the skip probe that collapses handoffs with nothing pending).
    pub handoff_budget: u64,
}

/// Phase positions of the Theorem 1.3 pipeline. Offsets are *virtual*: they
/// count the phase's own work rounds, excluding interleaved status rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhkMultiPhase {
    /// Collision-wave layering.
    Wave {
        /// Round within the wave.
        offset: u64,
    },
    /// Slotted per-ring GST construction.
    Construct {
        /// Round within the phase.
        offset: u64,
    },
    /// Slotted per-ring virtual labeling.
    Label {
        /// Round within the phase.
        offset: u64,
    },
    /// Pipelined dissemination window `w` (ring `j` works on batch `w - j`).
    Disseminate {
        /// Window index.
        window: u32,
        /// Round within the window.
        offset: u64,
    },
    /// Handoff slot after window `w`.
    Handoff {
        /// Window index.
        window: u32,
        /// Round within the handoff.
        offset: u64,
    },
    /// Rung-2 regional re-dissemination (faulted runs only): holders in the
    /// rings feeding window `w` (and the ring just behind them) flood coded
    /// packets for the window's batches on the Decay schedule, covering
    /// churn/mobility that moved the frontier across ring boundaries.
    Regional {
        /// The failed window index.
        window: u32,
        /// Round within the regional flood.
        offset: u64,
    },
    /// No-knowledge Decay fallback (faulted runs only): every holder floods
    /// coded packets for one held batch on the Decay schedule, ignoring ring
    /// and window bookkeeping, so nodes the faults stranded outside the
    /// pipeline still decode.
    Fallback {
        /// Round within the fallback.
        offset: u64,
    },
}

impl Advance for GhkMultiPhase {
    fn advanced(self, delta: u64) -> Self {
        match self {
            GhkMultiPhase::Wave { offset } => GhkMultiPhase::Wave { offset: offset + delta },
            GhkMultiPhase::Construct { offset } => {
                GhkMultiPhase::Construct { offset: offset + delta }
            }
            GhkMultiPhase::Label { offset } => GhkMultiPhase::Label { offset: offset + delta },
            GhkMultiPhase::Disseminate { window, offset } => {
                GhkMultiPhase::Disseminate { window, offset: offset + delta }
            }
            GhkMultiPhase::Handoff { window, offset } => {
                GhkMultiPhase::Handoff { window, offset: offset + delta }
            }
            GhkMultiPhase::Regional { window, offset } => {
                GhkMultiPhase::Regional { window, offset: offset + delta }
            }
            GhkMultiPhase::Fallback { offset } => {
                GhkMultiPhase::Fallback { offset: offset + delta }
            }
        }
    }
}

impl GhkMultiPlan {
    /// Builds the plan for `k` messages under `params`. The adaptive
    /// pipeline prefers narrow rings ([`Params::adaptive_ring_width`]): with
    /// pay-as-you-go windows and handoffs, parallel narrow-ring construction
    /// wins exactly as it does for the Theorem 1.1 pipeline.
    pub fn new(params: &Params, d_bound: u32, k: usize, mode: BatchMode) -> Self {
        let d_bound = d_bound.max(1);
        let ring_width = params.adaptive_ring_width(d_bound).min(d_bound + 1).max(2);
        let ring_count = (d_bound + 1).div_ceil(ring_width);
        let batch_size = mode.batch_size(k);
        let batch_count = k.div_ceil(batch_size);
        let cons = ConstructionSchedule::new(params, ring_width - 1);
        let vl = VlSchedule::new(params, ring_width.saturating_sub(1).max(1));
        let slack = u64::from(params.window_slack);
        let l = u64::from(params.log_n);
        let window = slack * (2 * u64::from(ring_width) + 2 * batch_size as u64 * l + 2 * l * l);
        let handoff = 2 * slack * l * (batch_size as u64 + 4);
        let beep = u64::from(params.beep_interval.max(1));
        let d = u64::from(d_bound);
        GhkMultiPlan {
            d_bound,
            ring_width,
            ring_count,
            batch_count: u32::try_from(batch_count).expect("fits"),
            batch_size: u32::try_from(batch_size).expect("fits"),
            k: u32::try_from(k).expect("fits"),
            cons,
            cons_rounds: 2 * cons.total_rounds(),
            vl,
            vl_rounds: 2 * vl.total_rounds(),
            window,
            handoff,
            wave_budget: d + d / beep + beep + u64::from(params.quiescence_slack) + 4,
            cons_status: cons_status_budget(params, &cons),
            label_status: 2 * u64::from(vl.d_values()) + 4,
            // Dissemination is 2-slotted by ring parity (adjacent rings work
            // different batches in the same window; the slotting keeps their
            // schedules from colliding at ring boundaries, the same
            // interference fix the construction phase uses).
            window_budget: 2 * window + 2 * window / beep + 2,
            handoff_budget: handoff + handoff / beep + 3,
        }
    }

    /// Number of pipelined windows: every (ring, batch) pair is covered.
    pub fn window_count(&self) -> u32 {
        self.ring_count + self.batch_count - 1
    }

    /// The batch ring `j` works on during window `w`, if any.
    pub fn batch_in_window(&self, window: u32, ring: u32) -> Option<u32> {
        let b = window.checked_sub(ring)?;
        (b < self.batch_count).then_some(b)
    }

    /// Global message indices of batch `b`.
    pub fn batch_range(&self, b: u32) -> std::ops::Range<usize> {
        let start = (b * self.batch_size) as usize;
        let end = ((b + 1) * self.batch_size).min(self.k) as usize;
        start..end
    }

    /// The adaptive run's hard cap: the sum of every phase's worst-case
    /// budget, status-round overhead included. Still
    /// `O(D + k log n + polylog)`.
    pub fn total_rounds(&self) -> u64 {
        self.wave_budget
            + self.cons_rounds
            + self.cons_status
            + self.vl_rounds
            + self.label_status
            + u64::from(self.window_count()) * (self.window_budget + self.handoff_budget)
    }
}

/// What a Theorem 1.3 status round asks: a node transmits a beep iff the
/// predicate holds for it (see `single_message` for the in-model status-round
/// justification; this pipeline reuses it wholesale).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiProbe {
    /// Wave phase: "did the frontier reach you since the last status round?"
    WaveProgress,
    /// A construction status probe (shared with the Theorem 1.1 pipeline).
    Cons(ConsProbe),
    /// Labeling: "are you still missing your virtual distance?"
    Unlabelled,
    /// Labeling: "is your virtual distance exactly `d`?" — an empty frontier
    /// means no later `d` can label anyone either.
    LabelFrontier {
        /// The frontier distance.
        d: u32,
    },
    /// Dissemination: "does your ring have an (undecodable) batch open in
    /// this window?"
    WindowUninformed {
        /// The open window.
        window: u32,
    },
    /// Handoff: "are you a receiving ring root still missing the batch being
    /// handed off after this window?"
    HandoffPending {
        /// The window whose handoff slot is open.
        window: u32,
    },
    /// Fallback: "are you still missing any batch?" — ring and window state
    /// deliberately ignored so nodes the faults stranded outside the pipeline
    /// (no ring, no labels) still answer.
    Undecoded,
}

/// The schedule instance of the window a node is currently in.
#[derive(Clone, Debug)]
struct ActiveWindow {
    window: u32,
    batch: u32,
    node: MmvScheduleNode,
}

/// Per-batch state of a pipeline node.
#[derive(Clone, Debug, Default)]
struct BatchState {
    decoded: Option<Vec<BitVec>>,
    /// FEC receiver state (ring roots during handoffs).
    fec: Option<Decoder>,
}

/// One node of the Theorem 1.3 pipeline. It follows the shared
/// [`StepCell`] cursor the adaptive driver advances.
#[derive(Clone, Debug)]
pub struct GhkMultiNode {
    id: u32,
    params: Params,
    plan: GhkMultiPlan,
    payload_bits: usize,
    step: StepCell<GhkMultiPhase, MultiProbe>,
    wave: CollisionWaveLayering,
    /// Frontier reached this node since the last wave status round.
    wave_dirty: bool,
    ring: Option<(u32, u32)>,
    /// Phase-2 construction state; boxed so the shell stays small, built on
    /// demand when the wave reaches the node, and dropped (together with
    /// `vl`) by [`GhkMultiNode::retire_construction`] once labeling ends.
    cons: Option<Box<GstConstructionNode>>,
    /// Phase-3 labeling state; boxed and retired like `cons`.
    vl: Option<Box<VirtualLabelNode>>,
    /// The dissemination labels extracted from `vl` at retirement; windows
    /// read these instead of keeping the labeling machine alive.
    sched_cache: Option<SchedLabels>,
    /// The live window's schedule, built per window and harvested at the
    /// window boundary — never more than one alive per node.
    sched: Option<Box<ActiveWindow>>,
    /// Last dissemination window whose setup (`ensure_window`) ran.
    window_seen: Option<u32>,
    /// Last handoff window whose entry harvest ran.
    handoff_seen: Option<u32>,
    /// `(window, batch)` of FEC reception in progress, harvested at the
    /// first act after that handoff window closes.
    fec_pending: Option<(u32, u32)>,
    /// Audit counters of harvested windows.
    audit_acc: SchedAudit,
    batches: Vec<BatchState>,
    /// Window-drop counter (batch incomplete at window end).
    drops: u64,
    decay: DecaySchedule,
    /// Whether the node emits real segment wake hints ([`Pacing::Segment`])
    /// or `Wake::Now` every round ([`Pacing::PerStep`]).
    seg_hints: bool,
    /// Handoff FEC repair aggressiveness (see
    /// [`Scenario::fec_repair`](crate::run::Scenario::fec_repair));
    /// `0` keeps the paper's full decay-cycle gate.
    fec_repair: u32,
}

impl GhkMultiNode {
    /// A pipeline node; the source holds all `messages`. All nodes of one
    /// run share the `step` cell (the materialized phase cursor).
    pub fn new(
        params: &Params,
        plan: GhkMultiPlan,
        step: StepCell<GhkMultiPhase, MultiProbe>,
        id: u32,
        payload_bits: usize,
        messages: Option<Vec<BitVec>>,
    ) -> Self {
        let mut batches: Vec<BatchState> =
            (0..plan.batch_count).map(|_| BatchState::default()).collect();
        let is_source = messages.is_some();
        if let Some(msgs) = messages {
            for b in 0..plan.batch_count {
                batches[b as usize].decoded = Some(msgs[plan.batch_range(b)].to_vec());
            }
        }
        GhkMultiNode {
            id,
            params: params.clone(),
            plan,
            payload_bits,
            step,
            wave: CollisionWaveLayering::new(is_source),
            wave_dirty: false,
            ring: None,
            cons: None,
            vl: None,
            sched_cache: None,
            sched: None,
            window_seen: None,
            handoff_seen: None,
            fec_pending: None,
            audit_acc: SchedAudit::default(),
            batches,
            drops: 0,
            decay: DecaySchedule::new(params.decay_phase_len()),
            seg_hints: true,
            fec_repair: 0,
        }
    }

    /// Selects how the node answers [`Protocol::next_wake`] (segment hints
    /// vs. the per-step `Wake::Now` regime of the equivalence suites).
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.seg_hints = pacing == Pacing::Segment;
        self
    }

    /// Sets the handoff FEC repair aggressiveness (see
    /// [`Scenario::fec_repair`](crate::run::Scenario::fec_repair)). `0` (the
    /// default) is bit-identical to the pre-knob pipeline.
    pub fn with_fec_repair(mut self, fec_repair: u32) -> Self {
        self.fec_repair = fec_repair;
        self
    }

    /// All decoded messages in order, once every batch can be decoded — from
    /// an already-harvested slot, a full-rank FEC receiver, or a full-rank
    /// window schedule, the same sources the completion predicate counts.
    pub fn messages(&self) -> Option<Vec<BitVec>> {
        let mut out = Vec::with_capacity(self.plan.k as usize);
        for (b, slot) in self.batches.iter().enumerate() {
            let msgs = match (&slot.decoded, &slot.fec, &self.sched) {
                (Some(d), _, _) => d.clone(),
                (None, Some(fec), _) if fec.can_decode() => fec.decode()?,
                (None, _, Some(a)) if a.batch == b as u32 => a.node.decoder().decode()?,
                _ => return None,
            };
            out.extend(msgs);
        }
        Some(out)
    }

    /// Batches dropped at window boundaries (restart events).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    fn ensure_ring(&mut self) {
        if self.ring.is_none() {
            if let Some(layer) = self.wave.level() {
                self.ring = Some((layer / self.plan.ring_width, layer % self.plan.ring_width));
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

    fn ensure_vl(&mut self) {
        if self.vl.is_none() {
            if let Some(cons) = &self.cons {
                self.vl =
                    Some(Box::new(VirtualLabelNode::new(self.plan.vl, self.id, cons.labels())));
            }
        }
    }

    fn sched_labels(&self) -> Option<SchedLabels> {
        if let Some(cached) = self.sched_cache {
            return Some(cached);
        }
        let vl = self.vl.as_ref()?;
        let l = vl.labels();
        Some(SchedLabels {
            level: l.level,
            rank: l.rank,
            // Unlabelled nodes (labeling failure) fall back to the cap.
            vdist: vl.vdist().unwrap_or(2 * self.params.log_n),
            stretch_start: l.is_stretch_start(),
            fast_transmitter: l.has_stretch_child,
            in_stretch: l.in_stretch(),
        })
    }

    /// Starts (or reuses) the schedule node for window `w`.
    fn ensure_window(&mut self, window: u32) {
        let Some((ring, _)) = self.ring else { return };
        self.window_seen = Some(window);
        if self.sched.as_ref().is_some_and(|a| a.window == window) {
            return;
        }
        // Harvest the previous window first.
        self.harvest_window();
        let Some(batch) = self.plan.batch_in_window(window, ring) else {
            self.sched = None;
            return;
        };
        let Some(labels) = self.sched_labels() else { return };
        let cfg = ScheduleConfig {
            log_n: self.params.log_n,
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        let klen = self.plan.batch_range(batch).len();
        let mut node = MmvScheduleNode::new(cfg, labels, klen, self.payload_bits);
        if let Some(decoded) = &self.batches[batch as usize].decoded {
            node = node.with_messages(decoded);
        }
        self.sched = Some(Box::new(ActiveWindow { window, batch, node }));
    }

    /// Stores a completed window's batch, or counts a drop. The window's
    /// audit counters are folded into the node total before the schedule
    /// node is dropped.
    fn harvest_window(&mut self) {
        if let Some(active) = self.sched.take() {
            self.audit_acc.absorb(active.node.audit());
            let slot = &mut self.batches[active.batch as usize];
            if slot.decoded.is_none() {
                match active.node.decoder().decode() {
                    Some(msgs) => slot.decoded = Some(msgs),
                    None => self.drops += 1,
                }
            }
        }
    }

    /// Completes FEC reception for batches whose handoff window ended.
    fn harvest_fec(&mut self, batch: u32) {
        let slot = &mut self.batches[batch as usize];
        if slot.decoded.is_none() {
            if let Some(fec) = &slot.fec {
                if let Some(msgs) = fec.decode() {
                    slot.decoded = Some(msgs);
                }
            }
        }
        slot.fec = None;
    }

    /// Harvests a pending FEC reception once its handoff window is over
    /// (i.e. the current phase is anything but that window's handoff slot).
    /// Runs at the top of every work-round `act`, so the first round of the
    /// following phase finalizes the handoff.
    fn flush_fec(&mut self, phase: GhkMultiPhase) {
        if let Some((window, batch)) = self.fec_pending {
            let still_open =
                matches!(phase, GhkMultiPhase::Handoff { window: w, .. } if w == window);
            if !still_open {
                self.harvest_fec(batch);
                self.fec_pending = None;
            }
        }
    }

    /// Applies the construction epilogue once the phase is announced over
    /// (pending recruiting-part results + the unassigned-blue fallback).
    fn finalize_construction(&mut self) {
        if let Some(c) = self.cons.as_mut() {
            c.finalize();
        }
    }

    /// Driver echo at the end of the labeling phase: caches the
    /// dissemination labels ([`SchedLabels`]) the windows will read, then
    /// drops the construction and labeling machines. Both are inert from
    /// here on — the driver never publishes `Construct`/`Label` segments
    /// again — so resident state shrinks to the shell plus at most one live
    /// window schedule per node.
    fn retire_construction(&mut self) {
        if self.sched_cache.is_none() {
            self.sched_cache = self.sched_labels();
        }
        self.cons = None;
        self.vl = None;
    }

    /// Answers a status-round probe: `true` = transmit a beep.
    fn answer(&mut self, probe: MultiProbe) -> bool {
        match probe {
            MultiProbe::WaveProgress => std::mem::take(&mut self.wave_dirty),
            MultiProbe::Cons(p) => {
                self.ensure_cons();
                let Some(c) = self.cons.as_mut() else { return false };
                answer_cons_probe(c, p)
            }
            MultiProbe::Unlabelled => {
                self.ensure_vl();
                self.vl.as_ref().is_some_and(|v| v.vdist().is_none())
            }
            MultiProbe::LabelFrontier { d } => {
                self.vl.as_ref().is_some_and(|v| v.vdist() == Some(d))
            }
            MultiProbe::WindowUninformed { window } => {
                self.ensure_ring();
                let Some((ring, _)) = self.ring else { return false };
                let Some(batch) = self.plan.batch_in_window(window, ring) else {
                    return false;
                };
                let decodable_in_window =
                    self.sched.as_ref().is_some_and(|a| a.window == window && a.node.is_complete());
                self.batches[batch as usize].decoded.is_none() && !decodable_in_window
            }
            MultiProbe::HandoffPending { window } => {
                let Some((ring, ring_level)) = self.ring else { return false };
                if ring_level != 0 || ring == 0 {
                    return false;
                }
                let Some(batch) = self.plan.batch_in_window(window, ring - 1) else {
                    return false;
                };
                let slot = &self.batches[batch as usize];
                slot.decoded.is_none() && !slot.fec.as_ref().is_some_and(Decoder::can_decode)
            }
            MultiProbe::Undecoded => !self.is_complete(),
        }
    }

    /// Driver echo of the measured-erasure adapted handoff repair rate (see
    /// [`Scenario::fec_repair`](crate::run::Scenario::fec_repair)); part of
    /// the idealized status-round knowledge, like the finalize echoes. Never
    /// called on fault-free runs.
    fn set_fec_repair(&mut self, fec_repair: u32) {
        self.fec_repair = fec_repair;
    }

    /// Decodes every full-rank pending FEC receiver into its batch slot so
    /// the node relays (instead of merely holding rank) during the fallback.
    fn decode_ready(&mut self) {
        for slot in &mut self.batches {
            if slot.decoded.is_none() {
                if let Some(fec) = &slot.fec {
                    if fec.can_decode() {
                        if let Some(msgs) = fec.decode() {
                            slot.decoded = Some(msgs);
                        }
                    }
                }
            }
        }
    }
}

impl GhkMultiNode {
    /// The wake hint within a published work segment: the earliest round
    /// `>= round` at which this node's `act` might transmit, draw from its
    /// RNG, or make an observable state change (see `crate::adaptive`).
    fn segment_wake(&self, seg: &Segment<GhkMultiPhase>, round: u64) -> Wake {
        let Some(pos) = seg.pos_at(round) else {
            // Past the segment: the driver is about to publish its next step.
            return Wake::Now;
        };
        // Sleeps need no clamp to the segment end: the driver force-wakes
        // every node (`Simulator::wake_all`) before each cursor change, so
        // hints only have to be valid while this segment stands.
        let clamp = |r: u64| if r <= round { Wake::Now } else { Wake::At(r) };
        let sleep = Wake::Idle;
        let layered = self.wave.level().is_some();
        // Parity-slotted phases: the first in-parity round and its inner
        // (per-ring) offset.
        let aligned = |offset: u64, parity: u64| {
            let first = if offset % 2 == parity { round } else { round + 1 };
            (first, (offset + (first - round)) / 2)
        };
        match pos {
            GhkMultiPhase::Wave { offset } => match self.wave.level() {
                // Re-woken by the frontier's first signal (observation).
                None => sleep,
                Some(l) if u64::from(l) <= offset => Wake::Now,
                Some(l) => clamp(round + (u64::from(l) - offset)),
            },
            GhkMultiPhase::Construct { offset } => {
                let Some((ring, _)) = self.ring else {
                    return if layered { Wake::Now } else { sleep };
                };
                let (first, inner) = aligned(offset, u64::from(ring % 2));
                let Some(cons) = &self.cons else { return Wake::Now };
                // A published segment never crosses a construction-schedule
                // segment, so the node's next act offset in that segment is
                // its next act in this one; in-parity rounds are two apart.
                let next =
                    self.plan.cons.phase(inner).and_then(|ph| {
                        cons.next_act_offset(&ph).map(|o| first + 2 * (o - ph.offset))
                    });
                next.map_or(sleep, clamp)
            }
            GhkMultiPhase::Label { offset } => {
                let Some((ring, _)) = self.ring else {
                    return if layered { Wake::Now } else { sleep };
                };
                let parity = u64::from(ring % 2);
                let (_, inner) = aligned(offset, parity);
                let Some(vl) = &self.vl else { return Wake::Now };
                match vl.next_act_round(inner) {
                    Some(next) => clamp(round + (2 * next + parity - offset)),
                    None => sleep,
                }
            }
            GhkMultiPhase::Disseminate { window, offset } => {
                let Some((ring, _)) = self.ring else {
                    return if layered { Wake::Now } else { sleep };
                };
                if self.window_seen != Some(window) || self.fec_pending.is_some() {
                    return Wake::Now; // entry round: setup + pending harvests
                }
                let parity = u64::from(ring % 2);
                let (_, inner) = aligned(offset, parity);
                match &self.sched {
                    Some(a) => {
                        let next = a.node.next_act_round(inner);
                        clamp(round + (2 * next + parity - offset))
                    }
                    None => sleep,
                }
            }
            GhkMultiPhase::Handoff { window, offset } => {
                let Some((ring, ring_level)) = self.ring else {
                    return if layered { Wake::Now } else { sleep };
                };
                // `act` harvests a live window schedule before it hands off,
                // and the harvest can make this node a sender: poll on the
                // entry round, and while a rung-1 repair's replay of the
                // window has left a schedule behind (the retried handoff
                // then has `handoff_seen == Some(window)` already).
                if self.handoff_seen != Some(window) || self.sched.is_some() {
                    return Wake::Now;
                }
                let sender = ring_level == self.plan.ring_width - 1
                    && ring + 1 < self.plan.ring_count
                    && self
                        .plan
                        .batch_in_window(window, ring)
                        .is_some_and(|b| self.batches[b as usize].decoded.is_some());
                if sender {
                    let (first, _) = aligned(offset, u64::from(ring % 2));
                    clamp(first)
                } else {
                    sleep
                }
            }
            GhkMultiPhase::Regional { window, .. } => {
                // Only region members (rings feeding window `w` plus the
                // ring right behind them) ever transmit; everyone else —
                // including ring-less strays — sleeps until a delivery's
                // observation re-wakes them.
                let Some((ring, _)) = self.ring else { return sleep };
                let own = self.plan.batch_in_window(window, ring);
                let inbound =
                    ring.checked_sub(1).and_then(|r| self.plan.batch_in_window(window, r));
                if (own.is_some() || inbound.is_some()) && self.holds_any() {
                    Wake::Now
                } else {
                    sleep
                }
            }
            // Holders (and nodes with pending decoders to finalize) act every
            // round; everyone else sleeps until a delivery's observation
            // re-wakes them.
            GhkMultiPhase::Fallback { .. } if self.holds_any() => Wake::Now,
            GhkMultiPhase::Fallback { .. } => sleep,
        }
    }
}

impl Protocol for GhkMultiNode {
    type Msg = GhkMMsg;

    // Every sub-protocol this node routes observations into ignores
    // silence, and status rounds ignore everything non-transmitted.
    const SILENCE_IS_NOOP: bool = true;
    const WAKE_HINTS: bool = true;

    /// Segment-derived wake hints (see [`crate::adaptive`]): status and idle
    /// rounds poll everyone; work segments sleep the node through rounds in
    /// which its phase provably keeps it inert (`tests/determinism.rs` pins
    /// the batched trace against per-step pacing).
    fn next_wake(&self, round: u64) -> Wake {
        if !self.seg_hints {
            return Wake::Now;
        }
        match self.step.get() {
            Step::Idle | Step::Status(_) => Wake::Now,
            Step::Work(seg) => self.segment_wake(&seg, round),
        }
    }

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<GhkMMsg> {
        let id = self.id;
        hint_checked_act(self, id, round, rng, Self::act_inner)
    }

    fn observe(&mut self, round: u64, obs: Observation<GhkMMsg>, rng: &mut SmallRng) {
        let phase = match self.step.get() {
            Step::Idle | Step::Status(_) => return,
            Step::Work(seg) => seg.pos_at(round).expect("observation within the published segment"),
        };
        match phase {
            GhkMultiPhase::Wave { offset } => {
                let mapped = narrow(&obs, |m| match m {
                    GhkMMsg::Wave(b) => Some(*b),
                    _ => None,
                });
                let was_layered = self.wave.level().is_some();
                self.wave.observe(offset, mapped, rng);
                if !was_layered && self.wave.level().is_some() {
                    self.wave_dirty = true;
                }
            }
            GhkMultiPhase::Construct { offset } => {
                let Some((ring, _)) = self.ring else { return };
                if offset % 2 != u64::from(ring % 2) {
                    return;
                }
                let mapped = narrow(&obs, |m| match m {
                    GhkMMsg::Gst(g) => Some(*g),
                    _ => None,
                });
                if let Some(c) = self.cons.as_mut() {
                    c.observe(offset / 2, mapped, rng);
                }
            }
            GhkMultiPhase::Label { offset } => {
                let Some((ring, _)) = self.ring else { return };
                if offset % 2 != u64::from(ring % 2) {
                    return;
                }
                let mapped = narrow(&obs, |m| match m {
                    GhkMMsg::Vl(v) => Some(*v),
                    _ => None,
                });
                if let Some(v) = self.vl.as_mut() {
                    v.observe(offset / 2, mapped, rng);
                }
            }
            GhkMultiPhase::Disseminate { offset, .. } => {
                // Mirror the act-side parity slotting of the windows.
                let Some((ring, _)) = self.ring else { return };
                if offset % 2 != u64::from(ring % 2) {
                    return;
                }
                let Some(active) = self.sched.as_mut() else { return };
                // Other batches' packets are noise for this node — dropped
                // here without ever copying the payload.
                let mapped = narrow(&obs, |m| match m {
                    GhkMMsg::Sched { batch, msg } if *batch == active.batch => Some(msg.clone()),
                    _ => None,
                });
                active.node.observe(offset / 2, mapped, rng);
            }
            GhkMultiPhase::Handoff { window, offset: _ } => {
                let Some((ring, ring_level)) = self.ring else { return };
                // Ring roots (level 0) of ring j+1 listen for batch w-(j+1)+1:
                // the batch their predecessor ring just finished = w - (j+1) + 1
                // = w - j ... ring j hands batch (w - j) to ring j+1, whose
                // window for it is w+1. Roots of ring r listen for batch
                // (window - (r - 1)) from ring r-1.
                if ring_level != 0 || ring == 0 {
                    return;
                }
                let Some(batch) = self.plan.batch_in_window(window, ring - 1) else { return };
                if self.batches[batch as usize].decoded.is_some() {
                    return;
                }
                if let Observation::Message(p) = &obs {
                    if let GhkMMsg::Fec { batch: b, packet } = &**p {
                        if *b != batch {
                            return;
                        }
                        let klen = self.plan.batch_range(batch).len();
                        let slot = &mut self.batches[batch as usize];
                        let fec =
                            slot.fec.get_or_insert_with(|| Decoder::new(klen, self.payload_bits));
                        fec.insert(packet.clone());
                        // Harvested at the first act after this handoff
                        // closes (see `flush_fec`).
                        self.fec_pending = Some((window, batch));
                    }
                }
            }
            GhkMultiPhase::Regional { window, .. } => {
                // Region-gated adoption (ring-less strays count as in-region
                // — churn/mobility may have orphaned them mid-pipeline): a
                // member still missing a batch collects its fountain
                // packets, decoding at its next act (`decode_ready`).
                let in_region = match self.ring {
                    Some((r, _)) => {
                        self.plan.batch_in_window(window, r).is_some()
                            || r.checked_sub(1)
                                .and_then(|p| self.plan.batch_in_window(window, p))
                                .is_some()
                    }
                    None => true,
                };
                if in_region {
                    self.collect_fec(&obs);
                }
            }
            // Ring-agnostic adoption: any node still missing a batch collects
            // fountain packets for it, decoding at its next act
            // (`decode_ready`) so coverage spreads hop by hop.
            GhkMultiPhase::Fallback { .. } => self.collect_fec(&obs),
        }
    }
}

impl GhkMultiNode {
    fn act_inner(&mut self, round: u64, rng: &mut SmallRng) -> Action<GhkMMsg> {
        let phase = match self.step.get() {
            Step::Idle => return Action::Listen,
            Step::Status(p) => {
                return if self.answer(p) {
                    Action::Transmit(GhkMMsg::Status)
                } else {
                    Action::Listen
                };
            }
            Step::Work(seg) => seg.pos_at(round).expect("act within the published segment"),
        };
        self.flush_fec(phase);
        match phase {
            GhkMultiPhase::Wave { offset } => match self.wave.act(offset, rng) {
                Action::Transmit(b) => Action::Transmit(GhkMMsg::Wave(b)),
                Action::Listen => Action::Listen,
            },
            GhkMultiPhase::Construct { offset } => {
                self.ensure_cons();
                let Some((ring, _)) = self.ring else { return Action::Listen };
                if offset % 2 != u64::from(ring % 2) {
                    return Action::Listen;
                }
                match self.cons.as_mut().expect("created").act(offset / 2, rng) {
                    Action::Transmit(m) => Action::Transmit(GhkMMsg::Gst(m)),
                    Action::Listen => Action::Listen,
                }
            }
            GhkMultiPhase::Label { offset } => {
                self.ensure_vl();
                let Some((ring, _)) = self.ring else { return Action::Listen };
                if offset % 2 != u64::from(ring % 2) {
                    return Action::Listen;
                }
                match self.vl.as_mut().expect("created").act(offset / 2, rng) {
                    Action::Transmit(m) => Action::Transmit(GhkMMsg::Vl(m)),
                    Action::Listen => Action::Listen,
                }
            }
            GhkMultiPhase::Disseminate { window, offset } => {
                self.ensure_window(window);
                // Windows are 2-slotted by ring parity: adjacent rings work
                // different batches in the same window, and the slotting
                // keeps their schedules from colliding at ring boundaries
                // (narrow rings put e.g. a corner node's only in-ring
                // neighbor right next to the following ring's roots, which
                // share its slow-slot timing).
                let Some((ring, _)) = self.ring else { return Action::Listen };
                if offset % 2 != u64::from(ring % 2) {
                    return Action::Listen;
                }
                let Some(active) = self.sched.as_mut() else { return Action::Listen };
                let batch = active.batch;
                match active.node.act(offset / 2, rng) {
                    Action::Transmit(msg) => Action::Transmit(GhkMMsg::Sched { batch, msg }),
                    Action::Listen => Action::Listen,
                }
            }
            GhkMultiPhase::Handoff { window, offset } => {
                // Finish the window before handing off.
                self.harvest_window();
                self.handoff_seen = Some(window);
                let Some((ring, ring_level)) = self.ring else { return Action::Listen };
                // Slotted by ring parity to keep adjacent handoffs apart.
                if offset % 2 != u64::from(ring % 2) {
                    return Action::Listen;
                }
                let Some(batch) = self.plan.batch_in_window(window, ring) else {
                    return Action::Listen;
                };
                let outer =
                    ring_level == self.plan.ring_width - 1 && ring + 1 < self.plan.ring_count;
                if !outer {
                    return Action::Listen;
                }
                let Some(decoded) = &self.batches[batch as usize].decoded else {
                    return Action::Listen;
                };
                // With `fec_repair > 0` the decay gate is compressed to its
                // `r` highest-probability slots, so boundary nodes emit
                // fountain repair packets far more often — lossy-channel
                // redundancy. Exactly one `fires` draw either way, keeping
                // the RNG stream aligned (`0` is bit-identical to the
                // pre-knob pipeline).
                let gate_slot = match self.fec_repair {
                    0 => offset / 2,
                    r => (offset / 2) % u64::from(r),
                };
                if self.decay.fires(gate_slot, rng) {
                    let src = Decoder::with_messages(decoded);
                    if let Some(packet) = src.random_combination(rng) {
                        return Action::Transmit(GhkMMsg::Fec { batch, packet });
                    }
                }
                Action::Listen
            }
            GhkMultiPhase::Regional { window, offset } => {
                // Rung-2 recovery: region holders flood the failed window's
                // batches (their own and the one inbound from the previous
                // ring) on the Decay schedule with fountain packets.
                self.harvest_window();
                self.decode_ready();
                let Some((ring, _)) = self.ring else { return Action::Listen };
                let region = [
                    self.plan.batch_in_window(window, ring),
                    ring.checked_sub(1).and_then(|r| self.plan.batch_in_window(window, r)),
                ];
                self.flood(region.into_iter().flatten(), offset, rng)
            }
            GhkMultiPhase::Fallback { offset } => {
                // No-knowledge recovery: finalize whatever the pipeline left
                // pending, then flood held batches on the Decay schedule with
                // fountain packets — no ring, window, or label bookkeeping.
                self.harvest_window();
                self.decode_ready();
                self.flood(0..self.plan.batch_count, offset, rng)
            }
        }
    }

    /// Recovery flooding: of the `batches` this node holds, the one the
    /// round's `offset` selects goes out as a fountain packet on the Decay
    /// schedule.
    fn flood(
        &mut self,
        batches: impl Iterator<Item = u32>,
        offset: u64,
        rng: &mut SmallRng,
    ) -> Action<GhkMMsg> {
        let held: Vec<u32> =
            batches.filter(|&b| self.batches[b as usize].decoded.is_some()).collect();
        let Some(&batch) = held.get(offset as usize % held.len().max(1)) else {
            return Action::Listen;
        };
        if self.decay.fires(offset, rng) {
            let decoded = self.batches[batch as usize].decoded.as_ref().expect("held");
            if let Some(packet) = Decoder::with_messages(decoded).random_combination(rng) {
                return Action::Transmit(GhkMMsg::Fec { batch, packet });
            }
        }
        Action::Listen
    }

    /// Recovery adoption: a fountain packet for a batch this node can not
    /// decode yet joins that batch's FEC receiver.
    fn collect_fec(&mut self, obs: &Observation<GhkMMsg>) {
        if let Observation::Message(p) = obs {
            if let GhkMMsg::Fec { batch, packet } = &**p {
                let klen = self.plan.batch_range(*batch).len();
                let slot = &mut self.batches[*batch as usize];
                if slot.decoded.is_none() && !slot.fec.as_ref().is_some_and(Decoder::can_decode) {
                    let fec = slot.fec.get_or_insert_with(|| Decoder::new(klen, self.payload_bits));
                    fec.insert(packet.clone());
                }
            }
        }
    }

    /// Whether this node holds anything a recovery flood could relay or a
    /// pending decoder it must finalize.
    fn holds_any(&self) -> bool {
        self.sched.is_some()
            || self.fec_pending.is_some()
            || self
                .batches
                .iter()
                .any(|s| s.decoded.is_some() || s.fec.as_ref().is_some_and(Decoder::can_decode))
    }
}

/// Driver-side state of a Theorem 1.3 run: the plan, and the configured
/// handoff repair knob the loss estimator starts from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MultiRun {
    plan: GhkMultiPlan,
    fec_repair: u32,
}

impl Pipeline for GhkMultiNode {
    type Pos = GhkMultiPhase;
    type Probe = MultiProbe;
    type Plan = MultiRun;
    const FALLBACK: GhkMultiPhase = GhkMultiPhase::Fallback { offset: 0 };

    /// Whether this node can decode every batch — from an already-harvested
    /// slot, a full-rank FEC receiver, or a full-rank window schedule. The
    /// pending decoders are harvested into the slots at the node's next
    /// phase transition.
    fn is_complete(&self) -> bool {
        self.batches.iter().enumerate().all(|(b, s)| {
            s.decoded.is_some()
                || s.fec.as_ref().is_some_and(Decoder::can_decode)
                || self.sched.as_ref().is_some_and(|a| a.batch == b as u32 && a.node.is_complete())
        })
    }

    /// The shell plus the boxed phase sub-states currently alive and the
    /// per-batch slot table. Sub-state-internal heap (decoder matrices,
    /// payload buffers) is excluded.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.cons.is_some() as usize * size_of::<GstConstructionNode>()
            + self.vl.is_some() as usize * size_of::<VirtualLabelNode>()
            + self.sched.is_some() as usize * size_of::<ActiveWindow>()
            + self.batches.capacity() * size_of::<BatchState>()
    }

    /// Accumulated over every window this node ran (harvested windows plus
    /// the live one).
    fn audit(&self) -> SchedAudit {
        let mut a = self.audit_acc;
        if let Some(s) = &self.sched {
            a.absorb(s.node.audit());
        }
        a
    }

    fn votable(probe: MultiProbe) -> bool {
        !matches!(probe, MultiProbe::WaveProgress | MultiProbe::Cons(ConsProbe::NewActivation))
    }

    fn vote_budget(probe: MultiProbe) -> Option<Budget> {
        match probe {
            MultiProbe::Cons(_) => Some(Budget::Construct),
            MultiProbe::Unlabelled | MultiProbe::LabelFrontier { .. } => Some(Budget::Label),
            _ => None,
        }
    }

    /// The collision wave, the parallel per-ring construction, adaptive
    /// labeling, then the batch pipeline: ring `j` disseminates batch
    /// `w - j` in window `w` while ring `j + 1` receives its handoff.
    /// Anchors recovery at the last window.
    fn phases<T: Topology>(d: &mut Driver<Self, T>) -> u32 {
        let MultiRun { plan, fec_repair } = d.plan;
        if !d.done() {
            // Phase 1: the collision wave.
            let _ = d.window(
                plan.wave_budget,
                MultiProbe::WaveProgress,
                false,
                |offset| GhkMultiPhase::Wave { offset },
                |p| &mut p.wave,
            );
        }
        if !d.done() {
            // Phase 2: parallel per-ring GST construction.
            d.construct(plan.cons, Budget::Construct, MultiProbe::Cons, |offset| {
                GhkMultiPhase::Construct { offset }
            });
        }
        // Sample before the finalize echo: every layered node's construction
        // machine is still alive here.
        d.sample_state();
        // End-of-construction echo (the block epilogue the adaptive loop may
        // have skipped the rounds for).
        d.echo(GhkMultiNode::finalize_construction);
        if !d.done() {
            // Phase 3: adaptive virtual labeling.
            label(d, plan.vl);
        }
        // The run's state peak: construction and labeling machines both
        // alive. The retirement sweep that follows caches the dissemination
        // labels and drops both, so the window phases run on lean shells.
        d.sample_state();
        d.echo(GhkMultiNode::retire_construction);
        // Phase 4: the batch pipeline. Windows close as soon as every active
        // ring can decode, and handoff slots collapse to one probe when the
        // receiving roots already hold the batch.
        let mut loss = LossEstimator::new(fec_repair);
        let mut fec_echoed = fec_repair;
        for w in 0..plan.window_count() {
            if d.done() {
                break;
            }
            let _ = d.window(
                plan.window_budget,
                MultiProbe::WindowUninformed { window: w },
                false,
                |offset| GhkMultiPhase::Disseminate { window: w, offset },
                |p| &mut p.disseminate,
            );
            if d.done() {
                break;
            }
            // Faulted runs drive the handoff repair rate from the *measured*
            // per-copy erasure rate over a sliding window of recent
            // per-window deltas (see [`LossEstimator`]) instead of the
            // configured knob, echoing it to the nodes only when it changes
            // (never on clean channels, where the estimator is the
            // identity). The windowing lets repair relax once a bursty loss
            // interval ages out of the window.
            if d.sim.has_faults() {
                let s = d.sim.stats();
                let eff = loss.observe(s.erased, s.deliveries);
                if eff != fec_echoed {
                    fec_echoed = eff;
                    d.echo(|n| n.set_fec_repair(eff));
                }
            }
            if !d.handoff(
                plan.handoff_budget,
                MultiProbe::HandoffPending { window: w },
                true,
                |offset| GhkMultiPhase::Handoff { window: w, offset },
                w,
            ) {
                break; // both rungs failed: on to the rung-3 fallback
            }
            // Window boundary: the live schedules are at their largest.
            d.sample_state();
        }
        plan.window_count().saturating_sub(1)
    }

    /// Replays the *failed window's* dissemination (re-seeding each ring's
    /// schedule from its decoded batches — `ensure_window` rebuilds the
    /// dropped schedule nodes) and a fresh handoff window, drawn from the
    /// remaining worst-case pool, while every other window's state stays
    /// intact.
    fn ring_repair<T: Topology>(d: &mut Driver<Self, T>, window: u32) -> bool {
        let plan = d.plan.plan;
        let budget = plan.window_budget.min(d.budget_left());
        let _ = d.window(
            budget,
            MultiProbe::WindowUninformed { window },
            false,
            |offset| GhkMultiPhase::Disseminate { window, offset },
            |p| &mut p.repair,
        );
        if d.done() {
            return true;
        }
        let budget = plan.handoff_budget.min(d.budget_left());
        d.window(
            budget,
            MultiProbe::HandoffPending { window },
            true,
            |offset| GhkMultiPhase::Handoff { window, offset },
            |p| &mut p.repair,
        ) == WindowEnd::Quiesced
    }

    /// Regional FEC re-dissemination: holders in the rings feeding the
    /// failed window (plus the ring right behind them) flood the window's
    /// batches with fountain packets, covering churn/mobility that moved the
    /// frontier across ring boundaries. Budgeted at two handoff windows from
    /// the remaining pool.
    fn regional_repair<T: Topology>(d: &mut Driver<Self, T>, window: u32) -> bool {
        let budget = (2 * d.plan.plan.handoff_budget).min(d.budget_left());
        d.window(
            budget,
            MultiProbe::HandoffPending { window },
            false,
            |offset| GhkMultiPhase::Regional { window, offset },
            |p| &mut p.repair,
        ) == WindowEnd::Quiesced
    }

    fn detail(run: &MultiRun, _nodes: &[Self], fallback_entry: Option<u64>) -> Detail {
        Detail::MultiUnknown { plan: run.plan, fallback_entry }
    }
}

/// Phase 3: adaptive virtual labeling. `d` frontiers are processed in order;
/// the phase ends early once every node is labelled or a frontier comes up
/// empty (labels only ever derive `d + 1` from `d`, so an empty `S_d` means
/// no later substage can label anyone — unlabelled nodes fall back to the
/// `2·log n` cap exactly as under the fixed schedule).
fn label<T: Topology>(drv: &mut Driver<GhkMultiNode, T>, vl: VlSchedule) {
    let per_d = vl.per_d_rounds();
    let frontiers = vl.d_values();
    // The labeling schedule rounds of frontiers `from..to`, 2-slotted by ring
    // parity, as one published segment.
    let run = |drv: &mut Driver<GhkMultiNode, T>, from: u32, to: u32| {
        let offset = 2 * u64::from(from) * per_d;
        let run =
            drv.exec_segment(GhkMultiPhase::Label { offset }, 2 * u64::from(to - from) * per_d);
        drv.phases.label += run;
    };
    for d in 0..frontiers {
        if drv.done() {
            return;
        }
        for probe in [MultiProbe::Unlabelled, MultiProbe::LabelFrontier { d }] {
            match drv.budgeted_quiet(Budget::Label, probe) {
                // Everyone labelled, or a dead frontier: no progress left.
                Some(true) => return,
                Some(false) => {}
                // Status budget gone: run the rest fixed (cap-bounded).
                None => return run(drv, d, frontiers),
            }
        }
        run(drv, d, d + 1);
    }
}

/// Builds the Theorem 1.3 driver that
/// [`Scenario`](crate::run::Scenario) runs for
/// [`Workload::MultiUnknown`](crate::run::Workload::MultiUnknown), over any
/// [`Topology`]. The run is **adaptive**: the paper's phase windows are kept
/// as hard caps ([`GhkMultiPlan::total_rounds`] bounds every run), but each
/// phase terminates via in-model status beeps as soon as its work is done.
/// A streamed topology produces a run bit-identical to the same topology
/// materialized; only residence changes, which
/// [`Outcome::peak_state_bytes`](crate::run::Outcome::peak_state_bytes)
/// reports. The diameter-derived plan is computed from the *initial*
/// topology.
///
/// `fec_repair` is the ring-handoff FEC repair aggressiveness (see
/// [`Scenario::fec_repair`](crate::run::Scenario::fec_repair)). The
/// scenario has passed [`Scenario::validate`](crate::run::Scenario::validate):
/// the topology holds the source and `messages` is non-empty.
#[expect(clippy::too_many_arguments, reason = "every knob of a Theorem 1.3 run")]
pub(crate) fn driver<T: Topology>(
    topology: T,
    source: NodeId,
    messages: &[BitVec],
    params: &Params,
    seed: u64,
    batch: BatchMode,
    mode: CollisionMode,
    pacing: Pacing,
    fec_repair: u32,
    faults: &FaultPlan,
) -> Driver<GhkMultiNode, T> {
    let payload_bits = messages[0].len();
    let d = bfs_layering(&topology, &[source]).max_level();
    let plan = GhkMultiPlan::new(params, d.max(1), messages.len(), batch);
    let step = Rc::new(Cell::new(Step::Idle));
    let sim = Simulator::new_with_faults(topology, mode, seed, faults.clone(), |id| {
        GhkMultiNode::new(
            params,
            plan,
            Rc::clone(&step),
            id.raw(),
            payload_bits,
            (id == source).then(|| messages.to_vec()),
        )
        .with_pacing(pacing)
        .with_fec_repair(fec_repair)
    });
    let run = MultiRun { plan, fec_repair };
    let mut driver = Driver::new(sim, step, run, plan.total_rounds(), params);
    driver.set_status(Budget::Construct, plan.cons_status);
    driver.set_status(Budget::Label, plan.label_status);
    driver
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Outcome, Scenario, TopologySpec, Workload};
    use radio_sim::graph::generators;
    use radio_sim::rng::stream_rng;
    use radio_sim::Graph;

    fn msgs(k: usize) -> Vec<BitVec> {
        (0..k as u64).map(|i| BitVec::from_u64(i.wrapping_mul(37) & 0xFFFF, 32)).collect()
    }

    /// Runs Theorem 1.3 from node 0 with collision detection, segment
    /// pacing, no FEC repair and no faults.
    fn run(g: Graph, messages: &[BitVec], params: &Params, seed: u64, batch: BatchMode) -> Outcome {
        let (mode, pacing, none) = (CollisionMode::Detection, Pacing::Segment, FaultPlan::none());
        let source = NodeId::new(0);
        driver(g, source, messages, params, seed, batch, mode, pacing, 0, &none).run()
    }

    #[test]
    fn known_topology_broadcasts_k_messages() {
        let g = generators::grid(6, 6);
        let params = Params::scaled(36);
        let workload = Workload::MultiKnown {
            messages: msgs(8),
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        let out = Scenario::new(TopologySpec::custom(g), workload)
            .params(params)
            .seed(1)
            .round_cap(300_000)
            .run();
        assert!(out.completion_round.is_some());
        assert_eq!(out.audit.fast_collisions_in_stretch, 0);
        assert_eq!(out.phases.total(), out.stats.rounds, "phase accounting must match the run");
        assert_eq!(out.phases.disseminate, out.stats.rounds, "T1.2 rounds are all dissemination");
    }

    #[test]
    fn known_topology_payloads_decode_correctly() {
        let g = generators::cluster_chain(4, 5);
        let params = Params::scaled(20);
        let messages = msgs(5);
        // Use the lower-level API to inspect decoded payloads.
        let mut rng = stream_rng(3, 1000);
        let (tree, _) =
            gst::build_gst(&g, &[NodeId::new(0)], &mut rng, &gst::BuildConfig::for_nodes(20));
        let vd = gst::VirtualDistances::compute(&g, &tree);
        let cfg = ScheduleConfig::from_params(&params);
        let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, 3, |id| {
            let node = MmvScheduleNode::new(cfg, SchedLabels::from_gst(&tree, &vd, id), 5, 32);
            if id.index() == 0 {
                node.with_messages(&messages)
            } else {
                node
            }
        });
        let done = sim.run_until(300_000, |nodes| nodes.iter().all(MmvScheduleNode::is_complete));
        assert!(done.is_some());
        for n in sim.nodes() {
            assert_eq!(n.decoder().decode().unwrap(), messages);
        }
    }

    #[test]
    fn unknown_topology_single_ring_full_k() {
        let g = generators::cluster_chain(4, 5);
        let params = Params::scaled(20);
        let out = run(g, &msgs(4), &params, 2, BatchMode::FullK);
        assert!(out.completion_round.is_some(), "T1.3 failed within {} rounds", out.cap);
    }

    #[test]
    fn unknown_topology_on_grid() {
        let g = generators::grid(5, 5);
        let params = Params::scaled(25);
        let out = run(g, &msgs(6), &params, 3, BatchMode::FullK);
        assert!(out.completion_round.is_some());
    }

    #[test]
    fn unknown_topology_with_generations_and_rings() {
        // Forced small rings + small generations: exercises batching, FEC
        // handoff and the cross-ring pipeline.
        let g = generators::cluster_chain(8, 3);
        let mut params = Params::scaled(24);
        params.ring_width = Some(4);
        let out = run(g, &msgs(6), &params, 4, BatchMode::Generations(3));
        assert!(out.completion_round.is_some(), "pipelined T1.3 failed within {} rounds", out.cap);
    }

    #[test]
    fn unknown_topology_decodes_exact_payloads() {
        // Completion counts decodable batches; this checks the decoded
        // values themselves, node by node, including the batches the run
        // stopped before harvesting.
        let g = generators::cluster_chain(4, 5);
        let params = Params::scaled(20);
        let messages: Vec<BitVec> = (0..4u64).map(|i| BitVec::from_u64(i * 11 + 3, 24)).collect();
        for seed in [2u64, 5, 11] {
            let mut d = driver(
                g.clone(),
                NodeId::new(0),
                &messages,
                &params,
                seed,
                BatchMode::FullK,
                CollisionMode::Detection,
                Pacing::Segment,
                0,
                &FaultPlan::none(),
            );
            d.drive();
            assert!(d.done(), "seed {seed}: the run did not complete");
            for (i, n) in d.sim.nodes().iter().enumerate() {
                assert_eq!(
                    n.messages().as_deref(),
                    Some(&messages[..]),
                    "seed {seed}: node {i} decoded wrong payloads"
                );
            }
        }
    }

    #[test]
    fn plan_pipeline_covers_all_ring_batch_pairs() {
        let mut params = Params::scaled(64);
        params.ring_width = Some(3);
        let plan = GhkMultiPlan::new(&params, 11, 10, BatchMode::Generations(4));
        assert!(plan.ring_count > 1);
        assert_eq!(plan.batch_count, 3);
        for ring in 0..plan.ring_count {
            for batch in 0..plan.batch_count {
                let w = ring + batch;
                assert_eq!(plan.batch_in_window(w, ring), Some(batch));
            }
        }
        assert_eq!(plan.batch_in_window(0, 1), None);
    }

    #[test]
    fn adaptive_run_is_far_below_the_cap() {
        // The point of the adaptive driver: actual rounds ≪ worst-case cap
        // (the fixed windows used to be executed verbatim).
        let g = generators::cluster_chain(6, 6);
        let params = Params::scaled(36);
        let out = run(g, &msgs(8), &params, 11, BatchMode::FullK);
        let done = out.completion_round.expect("completes");
        assert!(done <= out.cap, "cap violated: {done} > {}", out.cap);
        assert!(
            done * 10 <= out.cap,
            "adaptive run ({done}) should be at least 10x below the cap ({})",
            out.cap
        );
        assert!(out.phases.status > 0, "no status rounds were spent");
        assert_eq!(out.phases.total(), out.stats.rounds, "phase accounting must match the run");
        assert_ne!(
            out.audit,
            SchedAudit::default(),
            "audit counters lost (window harvests must accumulate them)"
        );
    }

    #[test]
    fn batch_ranges_partition_messages() {
        let params = Params::scaled(64);
        let plan = GhkMultiPlan::new(&params, 5, 10, BatchMode::Generations(4));
        let mut seen = [false; 10];
        for b in 0..plan.batch_count {
            for i in plan.batch_range(b) {
                assert!(!seen[i], "message {i} in two batches");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
