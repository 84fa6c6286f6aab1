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
//! * [`Workload::MultiUnknown`](crate::run::Workload::MultiUnknown) —
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
    self, narrow, slot, wake_at, Budget, Driver, FrontPlan, LossEstimator, Msg, Pacing, Phase,
    Pipeline, RingCore, RingNode, Step, WindowEnd,
};
use crate::params::Params;
use crate::run::Detail;
use crate::schedule::{
    EmptyBehavior, MmvScheduleNode, SchedAudit, SchedLabels, SchedMsg, ScheduleConfig, SlowKey,
};
use crate::virtual_labels::{VirtualLabelNode, VlMsg, VlSchedule};
use radio_sim::graph::bfs_layering;
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

/// The Theorem 1.3 pipeline's own messages (beside the wave, construction
/// and status traffic of `adaptive::Msg`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum GhkMMsg {
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
}

/// The phase plan of the Theorem 1.3 pipeline: ring/batch geometry and the
/// worst-case phase budgets the adaptive run is capped by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GhkMultiPlan {
    /// Rings, construction schedule, and the wave and construction caps.
    pub front: FrontPlan,
    /// Number of message batches.
    pub batch_count: u32,
    /// Messages per batch (last may be short).
    pub batch_size: u32,
    /// Total messages.
    pub k: u32,
    /// Per-ring virtual labeling schedule.
    pub vl: VlSchedule,
    /// Rounds of the 2-slotted labeling phase.
    pub vl_rounds: u64,
    /// Schedule rounds of one in-ring dissemination window.
    pub window: u64,
    /// Rounds of one (2-slotted) handoff window.
    pub handoff: u64,
    /// Adaptive cap on labeling *status* rounds (work rounds are capped by
    /// [`GhkMultiPlan::vl_rounds`]).
    pub label_status: u64,
    /// Adaptive cap on one dissemination window (work + status rounds).
    pub window_budget: u64,
    /// Adaptive cap on one handoff window (work + status rounds, including
    /// the skip probe that collapses handoffs with nothing pending).
    pub handoff_budget: u64,
}

/// The Theorem 1.3 pipeline's own phases, after the shared wave and
/// construction. Offsets are those of the published segment (see
/// `adaptive::Segment`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GhkMultiPhase {
    /// Per-ring virtual labeling, 2-slotted by ring parity.
    Label,
    /// Pipelined dissemination window `w` (ring `j` works on batch `w - j`).
    Disseminate {
        /// Window index.
        window: u32,
    },
    /// Handoff slot after window `w`.
    Handoff {
        /// Window index.
        window: u32,
    },
    /// Rung-2 regional re-dissemination: holders in the rings feeding window
    /// `w` (and the ring just behind them) flood coded packets for the
    /// window's batches on the Decay schedule, covering churn/mobility that
    /// moved the frontier across ring boundaries.
    Regional {
        /// The failed window index.
        window: u32,
    },
    /// No-knowledge Decay fallback (rung 3): every holder floods coded
    /// packets for one held batch on the Decay schedule, ignoring ring and
    /// window bookkeeping, so nodes the pipeline stranded (by faults or a
    /// rank stall) still decode.
    Fallback,
}

impl GhkMultiPlan {
    /// Builds the plan for `k` messages under `params`. The adaptive
    /// pipeline prefers narrow rings ([`Params::adaptive_ring_width`]): with
    /// pay-as-you-go windows and handoffs, parallel narrow-ring construction
    /// wins exactly as it does for the Theorem 1.1 pipeline.
    pub fn new(params: &Params, d_bound: u32, k: usize, mode: BatchMode) -> Self {
        let front = FrontPlan::new(params, d_bound);
        let ring_width = front.ring_width;
        let batch_size = mode.batch_size(k);
        let batch_count = k.div_ceil(batch_size);
        let vl = VlSchedule::new(params, ring_width.saturating_sub(1).max(1));
        let slack = u64::from(params.window_slack);
        let l = u64::from(params.log_n);
        let window = slack * (2 * u64::from(ring_width) + 2 * batch_size as u64 * l + 2 * l * l);
        let handoff = 2 * slack * l * (batch_size as u64 + 4);
        let beep = u64::from(params.beep_interval.max(1));
        GhkMultiPlan {
            front,
            batch_count: u32::try_from(batch_count).expect("fits"),
            batch_size: u32::try_from(batch_size).expect("fits"),
            k: u32::try_from(k).expect("fits"),
            vl,
            vl_rounds: 2 * vl.total_rounds(),
            window,
            handoff,
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
        self.front.ring_count + self.batch_count - 1
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
        self.front.total_rounds()
            + self.vl_rounds
            + self.label_status
            + u64::from(self.window_count()) * (self.window_budget + self.handoff_budget)
    }
}

impl AsRef<FrontPlan> for GhkMultiPlan {
    fn as_ref(&self) -> &FrontPlan {
        &self.front
    }
}

/// The Theorem 1.3 pipeline's own status probes (see `single_message` for
/// the in-model status-round justification; this pipeline reuses it
/// wholesale).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MultiProbe {
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

/// One node of the Theorem 1.3 pipeline: the shared front half (see
/// [`RingCore`]) plus labeling, the per-batch slots and the live window.
#[derive(Clone, Debug)]
pub(crate) struct GhkMultiNode {
    core: RingCore<GhkMultiNode>,
    payload_bits: usize,
    /// Phase-3 labeling state; boxed so the shell stays small, built from
    /// the construction labels, and dropped (together with the construction
    /// state) by [`GhkMultiNode::retire_construction`] once labeling ends.
    vl: Option<Box<VirtualLabelNode>>,
    /// The dissemination labels extracted from `vl` at retirement; windows
    /// read these instead of keeping the labeling machine alive.
    sched_cache: Option<SchedLabels>,
    /// The live window's schedule, built per window and harvested at the
    /// window boundary — never more than one alive per node.
    sched: Option<Box<ActiveWindow>>,
    /// `(window, batch)` of FEC reception in progress, harvested at the
    /// first act after that handoff window closes.
    fec_pending: Option<(u32, u32)>,
    /// Audit counters of harvested windows.
    audit_acc: SchedAudit,
    batches: Vec<BatchState>,
    /// Handoff FEC repair aggressiveness (see
    /// [`Scenario::fec_repair`](crate::run::Scenario::fec_repair));
    /// `0` keeps the paper's full decay-cycle gate.
    fec_repair: u32,
}

impl GhkMultiNode {
    fn plan(&self) -> &GhkMultiPlan {
        &self.core.plan
    }

    /// All decoded messages in order, once every batch can be decoded — from
    /// an already-harvested slot, a full-rank FEC receiver, or a full-rank
    /// window schedule, the same sources the completion predicate counts.
    #[cfg(test)]
    fn messages(&self) -> Option<Vec<BitVec>> {
        let mut out = Vec::with_capacity(self.plan().k as usize);
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

    /// The batch this node hands off after `window`, if it is an
    /// outer-boundary node of a ring with a successor and holds that batch.
    fn outbound(&self, window: u32) -> Option<u32> {
        let (ring, ring_level) = self.core.ring?;
        let plan = self.plan();
        let outer = ring_level == plan.front.ring_width - 1 && ring + 1 < plan.front.ring_count;
        let batch = plan.batch_in_window(window, ring).filter(|_| outer)?;
        self.batches[batch as usize].decoded.is_some().then_some(batch)
    }

    /// The batch this node receives after `window` as a root (level 0) of
    /// ring `r > 0`: the batch ring `r - 1` hands off, which ring `r` works
    /// on in window `window + 1`.
    fn inbound(&self, window: u32) -> Option<u32> {
        match self.core.ring? {
            (ring, 0) if ring > 0 => self.plan().batch_in_window(window, ring - 1),
            _ => None,
        }
    }

    /// The batches of rung 2's region around `window` for this node's ring:
    /// its own batch and the one inbound from the previous ring. `None` for
    /// a ring-less node.
    fn region(&self, window: u32) -> Option<[Option<u32>; 2]> {
        let (ring, _) = self.core.ring?;
        let plan = self.plan();
        let inbound = ring.checked_sub(1).and_then(|r| plan.batch_in_window(window, r));
        Some([plan.batch_in_window(window, ring), inbound])
    }

    fn ensure_vl(&mut self) {
        if self.vl.is_none() {
            if let Some(cons) = &self.core.cons {
                let vl = VirtualLabelNode::new(self.plan().vl, self.core.id, cons.labels());
                self.vl = Some(Box::new(vl));
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
            vdist: vl.vdist().unwrap_or(2 * self.core.params.log_n),
            stretch_start: l.is_stretch_start(),
            fast_transmitter: l.has_stretch_child,
            in_stretch: l.in_stretch(),
        })
    }

    /// Starts (or reuses) the schedule node for window `w`.
    fn ensure_window(&mut self, window: u32) {
        let Some((ring, _)) = self.core.ring else { return };
        if self.sched.as_ref().is_some_and(|a| a.window == window) {
            return;
        }
        // Harvest the previous window first.
        self.harvest_window();
        let Some(batch) = self.plan().batch_in_window(window, ring) else {
            self.sched = None;
            return;
        };
        let Some(labels) = self.sched_labels() else { return };
        let cfg = ScheduleConfig {
            log_n: self.core.params.log_n,
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        let klen = self.plan().batch_range(batch).len();
        let mut node = MmvScheduleNode::new(cfg, labels, klen, self.payload_bits);
        if let Some(decoded) = &self.batches[batch as usize].decoded {
            node = node.with_messages(decoded);
        }
        self.sched = Some(Box::new(ActiveWindow { window, batch, node }));
    }

    /// Stores a completed window's batch. The window's audit counters are
    /// folded into the node total before the schedule node is dropped.
    fn harvest_window(&mut self) {
        if let Some(active) = self.sched.take() {
            self.audit_acc.absorb(active.node.audit());
            let slot = &mut self.batches[active.batch as usize];
            if slot.decoded.is_none() {
                slot.decoded = active.node.decoder().decode();
            }
        }
    }

    /// Harvests a pending FEC reception once its handoff window is over
    /// (i.e. the current phase is anything but that window's handoff slot).
    /// Runs at the top of every own-phase `act`, so the first round of the
    /// following phase finalizes the handoff.
    fn flush_fec(&mut self, phase: GhkMultiPhase) {
        if let Some((window, batch)) = self.fec_pending {
            if phase != (GhkMultiPhase::Handoff { window }) {
                let slot = &mut self.batches[batch as usize];
                if slot.decoded.is_none() {
                    slot.decoded = slot.fec.as_ref().and_then(Decoder::decode);
                }
                slot.fec = None;
                self.fec_pending = None;
            }
        }
    }

    /// Driver echo at the end of the labeling phase: caches the
    /// dissemination labels ([`SchedLabels`]) the windows will read, then
    /// drops the construction and labeling machines. Both are inert from
    /// here on — the driver never publishes construction or labeling
    /// segments again — so resident state shrinks to the shell plus at most
    /// one live window schedule per node.
    fn retire_construction(&mut self) {
        if self.sched_cache.is_none() {
            self.sched_cache = self.sched_labels();
        }
        self.core.cons = None;
        self.vl = None;
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
                if let Some(fec) = slot.fec.as_ref().filter(|f| f.can_decode()) {
                    slot.decoded = fec.decode();
                }
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
    ) -> Action<Msg<GhkMMsg>> {
        let held: Vec<u32> =
            batches.filter(|&b| self.batches[b as usize].decoded.is_some()).collect();
        let Some(&batch) = held.get(offset as usize % held.len().max(1)) else {
            return Action::Listen;
        };
        self.fountain(batch, offset, rng)
    }

    /// One Decay draw at gate slot `gate` and, if it fires, one fountain
    /// packet over held batch `batch`.
    fn fountain(&mut self, batch: u32, gate: u64, rng: &mut SmallRng) -> Action<Msg<GhkMMsg>> {
        if self.core.decay().fires(gate, rng) {
            let decoded = self.batches[batch as usize].decoded.as_ref().expect("held");
            if let Some(packet) = Decoder::with_messages(decoded).random_combination(rng) {
                return Action::Transmit(Msg::Own(GhkMMsg::Fec { batch, packet }));
            }
        }
        Action::Listen
    }

    /// Recovery adoption: a fountain packet for a batch this node can not
    /// decode yet joins that batch's FEC receiver.
    fn collect_fec(&mut self, obs: &Observation<Msg<GhkMMsg>>) {
        if let Observation::Message(p) = obs {
            if let Msg::Own(GhkMMsg::Fec { batch, packet }) = &**p {
                let klen = self.plan().batch_range(*batch).len();
                let slot = &mut self.batches[*batch as usize];
                if slot.decoded.is_none() && !slot.fec.as_ref().is_some_and(Decoder::can_decode) {
                    let fec = slot.fec.get_or_insert_with(|| Decoder::new(klen, self.payload_bits));
                    fec.insert(packet.clone());
                }
            }
        }
    }

    /// Whether a recovery phase's `act` would harvest or decode something:
    /// a live window schedule, or a full-rank receiver not yet decoded.
    fn decodes_pending(&self) -> bool {
        self.sched.is_some()
            || self
                .batches
                .iter()
                .any(|s| s.decoded.is_none() && s.fec.as_ref().is_some_and(Decoder::can_decode))
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

impl RingNode for GhkMultiNode {
    type Plan = GhkMultiPlan;
    type Own = GhkMultiPhase;
    type OwnProbe = MultiProbe;
    type OwnMsg = GhkMMsg;

    fn core(&self) -> &RingCore<Self> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RingCore<Self> {
        &mut self.core
    }

    fn wake(&self, phase: GhkMultiPhase, offset: u64, round: u64) -> Wake {
        // `flush_fec` harvests a pending FEC reception at the first act
        // outside its own handoff slot.
        if self.fec_pending.is_some_and(|(window, _)| phase != GhkMultiPhase::Handoff { window }) {
            return Wake::Now;
        }
        match phase {
            GhkMultiPhase::Label => {
                let Some((ring, _)) = self.core.ring else { return self.core.unringed() };
                let (wait, inner) = slot(ring, offset);
                let Some(vl) = &self.vl else { return Wake::Now };
                match vl.next_act_round(inner) {
                    Some(next) => wake_at(round, round + wait + 2 * (next - inner)),
                    None => Wake::Idle,
                }
            }
            GhkMultiPhase::Disseminate { window } => {
                let Some((ring, _)) = self.core.ring else { return self.core.unringed() };
                let (wait, inner) = slot(ring, offset);
                match &self.sched {
                    Some(a) if a.window == window => {
                        let next = a.node.next_act_round(inner);
                        wake_at(round, round + wait + 2 * (next - inner))
                    }
                    // `ensure_window` harvests another window's schedule, or
                    // builds this one's (also on a rung-1 replay of a window).
                    Some(_) => Wake::Now,
                    None if self.plan().batch_in_window(window, ring).is_some()
                        && self.sched_labels().is_some() =>
                    {
                        Wake::Now
                    }
                    None => Wake::Idle,
                }
            }
            GhkMultiPhase::Handoff { window } => {
                let Some((ring, _)) = self.core.ring else { return self.core.unringed() };
                // `act` harvests a live window schedule before it hands off,
                // and the harvest can make this node a sender.
                if self.sched.is_some() {
                    return Wake::Now;
                }
                match self.outbound(window) {
                    Some(_) => wake_at(round, round + slot(ring, offset).0),
                    None => Wake::Idle,
                }
            }
            // Only region members (rings feeding window `w` plus the ring
            // right behind them) ever transmit, and in the fallback every
            // holder (and every node with a pending decoder to finalize);
            // everyone else — including ring-less strays — sleeps until a
            // delivery's observation re-wakes them, unless `act` has a
            // schedule to harvest or a receiver to decode.
            GhkMultiPhase::Regional { window }
                if self.region(window).is_some_and(|r| r.iter().any(Option::is_some))
                    && self.holds_any()
                    || self.decodes_pending() =>
            {
                Wake::Now
            }
            GhkMultiPhase::Fallback if self.holds_any() => Wake::Now,
            GhkMultiPhase::Regional { .. } | GhkMultiPhase::Fallback => Wake::Idle,
        }
    }

    fn act_own(
        &mut self,
        phase: GhkMultiPhase,
        offset: u64,
        rng: &mut SmallRng,
    ) -> Action<Msg<GhkMMsg>> {
        self.flush_fec(phase);
        match phase {
            GhkMultiPhase::Label => {
                self.ensure_vl();
                let Some((ring, _)) = self.core.ring else { return Action::Listen };
                let (0, inner) = slot(ring, offset) else { return Action::Listen };
                match self.vl.as_mut().expect("created").act(inner, rng) {
                    Action::Transmit(m) => Action::Transmit(Msg::Own(GhkMMsg::Vl(m))),
                    Action::Listen => Action::Listen,
                }
            }
            GhkMultiPhase::Disseminate { window } => {
                self.ensure_window(window);
                // Windows are 2-slotted by ring parity: adjacent rings work
                // different batches in the same window, and the slotting
                // keeps their schedules from colliding at ring boundaries
                // (narrow rings put e.g. a corner node's only in-ring
                // neighbor right next to the following ring's roots, which
                // share its slow-slot timing).
                let Some((ring, _)) = self.core.ring else { return Action::Listen };
                let (0, inner) = slot(ring, offset) else { return Action::Listen };
                let Some(active) = self.sched.as_mut() else { return Action::Listen };
                let batch = active.batch;
                match active.node.act(inner, rng) {
                    Action::Transmit(msg) => {
                        Action::Transmit(Msg::Own(GhkMMsg::Sched { batch, msg }))
                    }
                    Action::Listen => Action::Listen,
                }
            }
            GhkMultiPhase::Handoff { window } => {
                // Finish the window before handing off.
                self.harvest_window();
                // 2-slotted by ring parity to keep adjacent handoffs apart.
                let Some((ring, _)) = self.core.ring else { return Action::Listen };
                let (0, inner) = slot(ring, offset) else { return Action::Listen };
                let Some(batch) = self.outbound(window) else { return Action::Listen };
                // With `fec_repair > 0` the decay gate is compressed to its
                // `r` highest-probability slots, so boundary nodes emit
                // fountain repair packets far more often — lossy-channel
                // redundancy. Exactly one `fires` draw either way, keeping
                // the RNG stream aligned (`0` is bit-identical to the
                // pre-knob pipeline).
                let gate = match self.fec_repair {
                    0 => inner,
                    r => inner % u64::from(r),
                };
                self.fountain(batch, gate, rng)
            }
            GhkMultiPhase::Regional { window } => {
                // Rung-2 recovery: region holders flood the failed window's
                // batches (their own and the one inbound from the previous
                // ring) on the Decay schedule with fountain packets.
                self.harvest_window();
                self.decode_ready();
                let Some(region) = self.region(window) else { return Action::Listen };
                self.flood(region.into_iter().flatten(), offset, rng)
            }
            GhkMultiPhase::Fallback => {
                // No-knowledge recovery: finalize whatever the pipeline left
                // pending, then flood held batches on the Decay schedule with
                // fountain packets — no ring, window, or label bookkeeping.
                self.harvest_window();
                self.decode_ready();
                self.flood(0..self.plan().batch_count, offset, rng)
            }
        }
    }

    fn observe_own(
        &mut self,
        phase: GhkMultiPhase,
        offset: u64,
        obs: Observation<Msg<GhkMMsg>>,
        rng: &mut SmallRng,
    ) {
        match phase {
            GhkMultiPhase::Label => {
                let Some((ring, _)) = self.core.ring else { return };
                let (0, inner) = slot(ring, offset) else { return };
                let mapped = narrow(&obs, |m| match m {
                    Msg::Own(GhkMMsg::Vl(v)) => Some(*v),
                    _ => None,
                });
                if let Some(v) = self.vl.as_mut() {
                    v.observe(inner, mapped, rng);
                }
            }
            GhkMultiPhase::Disseminate { .. } => {
                // Mirror the act-side parity slotting of the windows.
                let Some((ring, _)) = self.core.ring else { return };
                let (0, inner) = slot(ring, offset) else { return };
                let Some(active) = self.sched.as_mut() else { return };
                // Other batches' packets are noise for this node — dropped
                // here without ever copying the payload.
                let mapped = narrow(&obs, |m| match m {
                    Msg::Own(GhkMMsg::Sched { batch, msg }) if *batch == active.batch => {
                        Some(msg.clone())
                    }
                    _ => None,
                });
                active.node.observe(inner, mapped, rng);
            }
            GhkMultiPhase::Handoff { window } => {
                let Some(batch) = self.inbound(window) else { return };
                if self.batches[batch as usize].decoded.is_some() {
                    return;
                }
                if let Observation::Message(p) = &obs {
                    if let Msg::Own(GhkMMsg::Fec { batch: b, packet }) = &**p {
                        if *b != batch {
                            return;
                        }
                        let klen = self.plan().batch_range(batch).len();
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
            GhkMultiPhase::Regional { window } => {
                // Region-gated adoption (ring-less strays count as in-region
                // — churn/mobility may have orphaned them mid-pipeline): a
                // member still missing a batch collects its fountain
                // packets, decoding at its next act (`decode_ready`).
                if self.region(window).is_none_or(|r| r.iter().any(Option::is_some)) {
                    self.collect_fec(&obs);
                }
            }
            // Ring-agnostic adoption: any node still missing a batch collects
            // fountain packets for it, decoding at its next act
            // (`decode_ready`) so coverage spreads hop by hop.
            GhkMultiPhase::Fallback => self.collect_fec(&obs),
        }
    }

    fn answer(&mut self, probe: MultiProbe) -> bool {
        match probe {
            MultiProbe::Unlabelled => {
                self.ensure_vl();
                self.vl.as_ref().is_some_and(|v| v.vdist().is_none())
            }
            MultiProbe::LabelFrontier { d } => {
                self.vl.as_ref().is_some_and(|v| v.vdist() == Some(d))
            }
            MultiProbe::WindowUninformed { window } => {
                let Some((ring, _)) = self.core.derived_ring() else { return false };
                let Some(batch) = self.plan().batch_in_window(window, ring) else {
                    return false;
                };
                let decodable_in_window =
                    self.sched.as_ref().is_some_and(|a| a.window == window && a.node.is_complete());
                self.batches[batch as usize].decoded.is_none() && !decodable_in_window
            }
            MultiProbe::HandoffPending { window } => {
                let Some(batch) = self.inbound(window) else { return false };
                let slot = &self.batches[batch as usize];
                slot.decoded.is_none() && !slot.fec.as_ref().is_some_and(Decoder::can_decode)
            }
        }
    }
}

impl Protocol for GhkMultiNode {
    type Msg = Msg<GhkMMsg>;

    /// Segment-derived wake hints (`tests/determinism.rs` pins the batched
    /// trace against per-step pacing).
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

/// Driver-side state of a Theorem 1.3 run: the plan, and the configured
/// handoff repair knob the loss estimator starts from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MultiRun {
    plan: GhkMultiPlan,
    fec_repair: u32,
}

impl AsRef<FrontPlan> for MultiRun {
    fn as_ref(&self) -> &FrontPlan {
        &self.plan.front
    }
}

impl Pipeline for GhkMultiNode {
    type Run = MultiRun;
    const FALLBACK: GhkMultiPhase = GhkMultiPhase::Fallback;

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
            + self.core.resident_bytes()
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

    fn vote_budget(probe: MultiProbe) -> Option<Budget> {
        match probe {
            MultiProbe::Unlabelled | MultiProbe::LabelFrontier { .. } => Some(Budget::Label),
            _ => None,
        }
    }

    /// The shared front half, adaptive labeling, then the batch pipeline:
    /// ring `j` disseminates batch `w - j` in window `w` while ring `j + 1`
    /// receives its handoff. Anchors recovery at the last window.
    fn phases<T: Topology>(d: &mut Driver<Self, T>) -> u32 {
        let MultiRun { plan, fec_repair } = d.plan;
        d.front();
        // End-of-construction echo (the block epilogue the adaptive loop may
        // have skipped the rounds for).
        d.echo(|n| n.core.finalize_cons());
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
                GhkMultiPhase::Disseminate { window: w },
                |p| &mut p.disseminate,
            );
            if d.done() {
                break;
            }
            // The handoff repair rate follows the *measured* per-copy erasure
            // rate over a sliding window of recent per-window deltas (see
            // [`LossEstimator`]) instead of the configured knob, echoed to
            // the nodes only when it changes (never on clean channels, where
            // the estimator is the identity). The windowing lets repair relax
            // once a bursty loss interval ages out of the window.
            let s = d.sim.stats();
            let eff = loss.observe(s.erased, s.deliveries);
            if eff != fec_echoed {
                fec_echoed = eff;
                d.echo(|n| n.set_fec_repair(eff));
            }
            if !d.handoff(
                plan.handoff_budget,
                MultiProbe::HandoffPending { window: w },
                true,
                GhkMultiPhase::Handoff { window: w },
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
            GhkMultiPhase::Disseminate { window },
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
            GhkMultiPhase::Handoff { window },
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
            GhkMultiPhase::Regional { window },
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
        let (offset, len) = (2 * u64::from(from) * per_d, 2 * u64::from(to - from) * per_d);
        let run = drv.exec_segment(Phase::Own(GhkMultiPhase::Label), offset, len);
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
    let (shared_params, shared_plan) = (Rc::new(params.clone()), Rc::new(plan));
    let step = Rc::new(Cell::new(Step::Idle));
    let sim = Simulator::new_with_faults(topology, mode, seed, faults.clone(), |id| {
        let is_source = id == source;
        GhkMultiNode {
            core: RingCore::new(&shared_params, &shared_plan, &step, id.raw(), is_source, pacing),
            payload_bits,
            vl: None,
            sched_cache: None,
            sched: None,
            fec_pending: None,
            audit_acc: SchedAudit::default(),
            batches: (0..plan.batch_count)
                .map(|b| BatchState {
                    decoded: is_source.then(|| messages[plan.batch_range(b)].to_vec()),
                    fec: None,
                })
                .collect(),
            fec_repair,
        }
    });
    let run = MultiRun { plan, fec_repair };
    let mut driver = Driver::new(sim, step, run, plan.total_rounds(), params);
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
        assert!(plan.front.ring_count > 1);
        assert_eq!(plan.batch_count, 3);
        for ring in 0..plan.front.ring_count {
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

    /// Theorem 1.3 on `path(12)`: four 32-bit messages in generations of two.
    fn path_scenario() -> Scenario {
        let workload =
            Workload::MultiUnknown { messages: msgs(4), batch: BatchMode::Generations(2) };
        Scenario::new(TopologySpec::Path { n: 12 }, workload)
    }

    /// Theorem 1.3 on `grid(5, 5)` without collision detection, where the
    /// wave leaves part of the grid unlayered, so those nodes get no ring.
    fn ringless_grid(faults: &FaultPlan, seed: u64) -> Driver<GhkMultiNode, Graph> {
        let (messages, params) = (msgs(4), Params::scaled(25));
        let mode = CollisionMode::NoDetection;
        let batch = BatchMode::Generations(2);
        let g = generators::grid(5, 5);
        let mut d = driver(
            g,
            NodeId::new(0),
            &messages,
            &params,
            seed,
            batch,
            mode,
            Pacing::Segment,
            0,
            faults,
        );
        d.drive();
        d
    }

    // The next three runs poll hinted-idle nodes in own phases (the
    // driver's forced wakes): a rung-1 replay of a window, ring-less nodes,
    // and a rung-2 region. `adaptive::hint_checked_act` checks there that
    // their `act` leaves them as they were.

    #[test]
    fn rung_one_replays_keep_the_hint_promise() {
        let out = path_scenario().faults(FaultPlan::none().with_mobility(0.5, 16)).seed(1).run();
        assert!(out.stats.ring_repairs > 0, "no rung-1 replay ran");
        assert!(out.completion_round.is_some());
    }

    #[test]
    fn ringless_nodes_keep_the_hint_promise() {
        let d = ringless_grid(&FaultPlan::none(), 1);
        assert!(d.sim.nodes().iter().any(|n| n.core.ring.is_none()), "every node has a ring");
    }

    #[test]
    fn rung_two_repairs_keep_the_hint_promise() {
        let d = ringless_grid(&FaultPlan::none().with_erasure(0.1), 0);
        assert!(d.sim.stats().regional_repairs > 0, "no rung-2 repair ran");
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
