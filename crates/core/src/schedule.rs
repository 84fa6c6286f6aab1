//! The multi-message-viable (MMV) GST transmission schedule (Section 3.2)
//! combined with random linear network coding (Section 3.3.2).
//!
//! Given a GST with levels `l`, ranks `r` and virtual distances `d`
//! (Lemma 3.10 / [`gst::VirtualDistances`]), every node follows, in round `t`:
//!
//! * **(a) fast transmissions** (even rounds): if
//!   `t ≡ 2(l + 3r) (mod 6⌈log2 n⌉)` the node transmits — a stretch head
//!   emits a fresh coded packet, an in-stretch node relays the packet it
//!   received in the previous fast round. Eligibility requires a same-rank
//!   child (see the `gst` crate docs); Lemma 3.5 makes these collision-free
//!   along stretches.
//! * **(b) slow transmissions** (odd rounds): if `t ≡ 1 + 2d (mod 6)` the
//!   node transmits a fresh coded packet with probability
//!   `2^{-((t-1-2d)/6 mod ⌈log2 n⌉)}`.
//!
//! Keying the slow pattern on the *virtual distance* rather than the BFS
//! level is the paper's crucial change versus Gasieniec–Peleg–Xin: it pushes
//! packets toward stretch *entry points* and makes the schedule provably
//! tolerant of the noise other messages create ([`SlowKey::Level`] keeps the
//! GPX-style keying as the ablation of experiment E8).
//!
//! "Fresh coded packet" means a uniformly random `F_2` combination of
//! everything in the node's [`rlnc::Decoder`] — the universal relay rule of
//! Section 3.3.1. With `k = 1` this schedule degenerates to the
//! `O(D + log^2 n)` single-message broadcast used as the per-ring black box
//! of Theorem 1.1.

use crate::params::Params;
use radio_sim::model::PacketBits;
use radio_sim::{Action, Observation, Protocol, Wake};
use rand::rngs::SmallRng;
use rand::Rng;
use rlnc::gf2::BitVec;
use rlnc::{CodedPacket, Decoder};

/// Which label keys the slow-transmission pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowKey {
    /// The paper's choice: virtual distance in the stretch graph `G'`.
    VirtualDistance,
    /// The GPX-style ablation: BFS level.
    Level,
}

/// What a scheduled node transmits when its decoder is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmptyBehavior {
    /// Stay silent (the real algorithm: nothing to code over).
    Silent,
    /// Transmit noise (the worst case assumed by the MMV analysis;
    /// used to stress-test Lemma 3.3).
    Noise,
}

/// Static schedule configuration shared by all nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// `⌈log2 n⌉` — the period is `6·log_n`.
    pub log_n: u32,
    /// Slow-pattern keying.
    pub slow_key: SlowKey,
    /// Empty-decoder behavior.
    pub empty: EmptyBehavior,
}

impl ScheduleConfig {
    /// The paper's schedule under `params`.
    pub fn from_params(params: &Params) -> Self {
        ScheduleConfig {
            log_n: params.log_n,
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        }
    }

    /// Whether round `t` is the fast slot of a node at level `l`, rank `r`.
    pub fn fast_slot(&self, t: u64, l: u32, r: u32) -> bool {
        let period = u64::from(6 * self.log_n);
        t % period == (2 * (u64::from(l) + 3 * u64::from(r))) % period
    }

    /// The slow-transmission probability at round `t` for slow key `d`,
    /// or `None` when not prompted.
    pub fn slow_prompt(&self, t: u64, d: u32) -> Option<f64> {
        let d = u64::from(d);
        if t < 1 + 2 * d || t % 6 != (1 + 2 * d) % 6 {
            return None;
        }
        let step = ((t - 1 - 2 * d) / 6) % u64::from(self.log_n);
        Some(0.5f64.powi(step as i32))
    }

    /// The first round `>= from` that is the fast slot of `(l, r)`.
    pub fn next_fast_slot(&self, from: u64, l: u32, r: u32) -> u64 {
        let period = u64::from(6 * self.log_n);
        let slot = (2 * (u64::from(l) + 3 * u64::from(r))) % period;
        from + (slot + period - from % period) % period
    }

    /// The first round `>= from` in which slow key `d` is prompted (every
    /// such round draws from the RNG).
    pub fn next_slow_prompt(&self, from: u64, d: u32) -> u64 {
        let start = 1 + 2 * u64::from(d);
        let from = from.max(start);
        from + (start % 6 + 6 - from % 6) % 6
    }

    /// The first round `>= from` in which a node with `labels` and slow key
    /// `d` can transmit or draw from its RNG: its slow-prompt slot, and (for
    /// fast transmitters) its fast slot.
    pub fn next_act_round(&self, from: u64, d: u32, labels: &SchedLabels) -> u64 {
        let slow = self.next_slow_prompt(from, d);
        if labels.fast_transmitter {
            slow.min(self.next_fast_slot(from, labels.level, labels.rank))
        } else {
            slow
        }
    }
}

/// The GST labels a schedule node needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedLabels {
    /// BFS level within this schedule's domain (ring-local in ring mode).
    pub level: u32,
    /// GST rank.
    pub rank: u32,
    /// Virtual distance (0 at roots).
    pub vdist: u32,
    /// Whether this node heads its fast stretch (emits fresh fast packets).
    pub stretch_start: bool,
    /// Whether this node has a same-rank child (fast-transmission eligible).
    pub fast_transmitter: bool,
    /// Whether this node's parent shares its rank (it expects stretch waves).
    pub in_stretch: bool,
}

impl SchedLabels {
    /// Labels derived from a [`gst::Gst`] and virtual distances.
    pub fn from_gst(gst: &gst::Gst, vd: &gst::VirtualDistances, v: radio_sim::NodeId) -> Self {
        SchedLabels {
            level: gst.level(v),
            rank: gst.rank(v),
            vdist: vd.get(v),
            stretch_start: gst.is_stretch_start(v),
            fast_transmitter: gst.is_fast_transmitter(v),
            in_stretch: gst.parent_rank(v) == Some(gst.rank(v)),
        }
    }
}

/// Packets of the schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedMsg {
    /// A network-coded packet (`fast` tags the slot kind for audits).
    Coded {
        /// Whether this was a fast transmission.
        fast: bool,
        /// The coded payload.
        packet: CodedPacket,
    },
    /// A noise transmission (empty decoder under [`EmptyBehavior::Noise`]).
    Noise,
}

impl PacketBits for SchedMsg {
    fn packet_bits(&self) -> usize {
        match self {
            SchedMsg::Coded { packet, .. } => 1 + packet.packet_bits(),
            SchedMsg::Noise => 1,
        }
    }
}

/// Per-node audit counters (experiment E13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedAudit {
    /// Collisions observed in even (fast) rounds, any listener.
    pub fast_collisions_bystander: u64,
    /// Collisions observed by an in-stretch node in the very round its
    /// parent's wave was due — the harmful case Lemma 3.5 rules out.
    pub fast_collisions_in_stretch: u64,
    /// Collisions observed in odd (slow) rounds.
    pub slow_collisions: u64,
}

impl SchedAudit {
    /// Folds another audit's counters into this one.
    pub fn absorb(&mut self, other: SchedAudit) {
        self.fast_collisions_bystander += other.fast_collisions_bystander;
        self.fast_collisions_in_stretch += other.fast_collisions_in_stretch;
        self.slow_collisions += other.slow_collisions;
    }
}

/// One node running the schedule over a single RLNC generation.
#[derive(Clone, Debug)]
pub struct MmvScheduleNode {
    cfg: ScheduleConfig,
    labels: SchedLabels,
    decoder: Decoder,
    /// Fast packet received in the previous even round, for relaying.
    last_fast: Option<(u64, CodedPacket)>,
    audit: SchedAudit,
}

impl MmvScheduleNode {
    /// A node with `labels` decoding a generation of `k` messages of
    /// `payload_bits` each.
    pub fn new(cfg: ScheduleConfig, labels: SchedLabels, k: usize, payload_bits: usize) -> Self {
        MmvScheduleNode {
            cfg,
            labels,
            decoder: Decoder::new(k, payload_bits),
            last_fast: None,
            audit: SchedAudit::default(),
        }
    }

    /// Pre-loads the source's messages.
    pub fn with_messages(mut self, messages: &[BitVec]) -> Self {
        self.decoder = Decoder::with_messages(messages);
        self
    }

    /// The node's decoder (receivers decode once it has full rank).
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// Whether this node can decode every message.
    pub fn is_complete(&self) -> bool {
        self.decoder.can_decode()
    }

    /// Audit counters.
    pub fn audit(&self) -> SchedAudit {
        self.audit
    }

    /// The node's labels.
    pub fn labels(&self) -> SchedLabels {
        self.labels
    }

    fn fresh_packet(&self, rng: &mut SmallRng, fast: bool) -> Option<SchedMsg> {
        match self.decoder.random_combination(rng) {
            Some(packet) => Some(SchedMsg::Coded { fast, packet }),
            None => match self.cfg.empty {
                EmptyBehavior::Silent => None,
                EmptyBehavior::Noise => Some(SchedMsg::Noise),
            },
        }
    }

    /// Whether `t` is the fast slot in which this node's parent transmits its
    /// stretch wave (i.e. this node's reception slot).
    fn parent_wave_slot(&self, t: u64) -> bool {
        self.labels.in_stretch
            && self.labels.level > 0
            && self.cfg.fast_slot(t, self.labels.level - 1, self.labels.rank)
    }

    /// The first round `>= round` in which this node's `act` can transmit or
    /// draw from its RNG: its slow-prompt slot, and (for fast transmitters)
    /// its fast slot. Public so enclosing pipelines can map it into their
    /// own round spaces.
    pub fn next_act_round(&self, round: u64) -> u64 {
        let key = match self.cfg.slow_key {
            SlowKey::VirtualDistance => self.labels.vdist,
            SlowKey::Level => self.labels.level,
        };
        self.cfg.next_act_round(round, key, &self.labels)
    }
}

impl Protocol for MmvScheduleNode {
    type Msg = SchedMsg;

    /// Sleeps between the node's schedule slots: rounds that are neither its
    /// fast slot nor its slow-prompt slot neither transmit nor draw.
    fn next_wake(&self, round: u64) -> Wake {
        let next = self.next_act_round(round);
        if next == round {
            Wake::Now
        } else {
            Wake::At(next)
        }
    }

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<SchedMsg> {
        if round % 2 == 0 {
            // Fast slots.
            if self.labels.fast_transmitter
                && self.cfg.fast_slot(round, self.labels.level, self.labels.rank)
            {
                let msg = if self.labels.stretch_start {
                    self.fresh_packet(rng, true)
                } else {
                    // Relay the wave received two rounds ago, if any.
                    match &self.last_fast {
                        Some((t, p)) if *t + 2 == round => {
                            Some(SchedMsg::Coded { fast: true, packet: p.clone() })
                        }
                        _ => None,
                    }
                };
                if let Some(m) = msg {
                    return Action::Transmit(m);
                }
            }
            return Action::Listen;
        }
        // Slow slots.
        let key = match self.cfg.slow_key {
            SlowKey::VirtualDistance => self.labels.vdist,
            SlowKey::Level => self.labels.level,
        };
        if let Some(p) = self.cfg.slow_prompt(round, key) {
            if rng.gen_bool(p) {
                if let Some(m) = self.fresh_packet(rng, false) {
                    return Action::Transmit(m);
                }
            }
        }
        Action::Listen
    }

    fn observe(&mut self, round: u64, obs: Observation<SchedMsg>, _rng: &mut SmallRng) {
        match obs {
            // `into_inner` clones only while the packet is still shared with
            // the engine's store; pipeline remaps hand over a unique packet.
            Observation::Message(p) => match p.into_inner() {
                SchedMsg::Coded { fast, packet } => {
                    if fast && round % 2 == 0 {
                        self.last_fast = Some((round, packet.clone()));
                    }
                    self.decoder.insert(packet);
                }
                SchedMsg::Noise => {}
            },
            Observation::Collision => {
                if round % 2 == 0 {
                    if self.parent_wave_slot(round) {
                        self.audit.fast_collisions_in_stretch += 1;
                    } else {
                        self.audit.fast_collisions_bystander += 1;
                    }
                } else {
                    self.audit.slow_collisions += 1;
                }
            }
            Observation::Silence => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst::{build_gst, BuildConfig, VirtualDistances};
    use radio_sim::graph::generators;
    use radio_sim::rng::stream_rng;
    use radio_sim::{CollisionMode, Graph, NodeId, Simulator};

    /// Builds labels for a single-rooted GST of `g`.
    fn labels_for(g: &Graph, seed: u64) -> Vec<SchedLabels> {
        let mut rng = stream_rng(seed, 5);
        let (gst, _) =
            build_gst(g, &[NodeId::new(0)], &mut rng, &BuildConfig::for_nodes(g.node_count()));
        let vd = VirtualDistances::compute(g, &gst);
        g.node_ids().map(|v| SchedLabels::from_gst(&gst, &vd, v)).collect()
    }

    fn run_broadcast(
        g: &Graph,
        k: usize,
        seed: u64,
        key: SlowKey,
        max_rounds: u64,
    ) -> (Option<u64>, SchedAudit) {
        let params = Params::scaled(g.node_count());
        let cfg = ScheduleConfig { slow_key: key, ..ScheduleConfig::from_params(&params) };
        let labels = labels_for(g, seed);
        let messages: Vec<BitVec> =
            (0..k as u64).map(|i| BitVec::from_u64(i * 3 + 1, 32)).collect();
        let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, |id| {
            let node = MmvScheduleNode::new(cfg, labels[id.index()], k, 32);
            if id.index() == 0 {
                node.with_messages(&messages)
            } else {
                node
            }
        });
        let done =
            sim.run_until(max_rounds, |nodes| nodes.iter().all(MmvScheduleNode::is_complete));
        let mut audit = SchedAudit::default();
        for n in sim.nodes() {
            let a = n.audit();
            audit.fast_collisions_bystander += a.fast_collisions_bystander;
            audit.fast_collisions_in_stretch += a.fast_collisions_in_stretch;
            audit.slow_collisions += a.slow_collisions;
        }
        (done, audit)
    }

    #[test]
    fn single_message_on_path() {
        let g = generators::path(32);
        let (done, audit) = run_broadcast(&g, 1, 1, SlowKey::VirtualDistance, 50_000);
        assert!(done.is_some());
        assert_eq!(audit.fast_collisions_in_stretch, 0, "Lemma 3.5 violated");
    }

    #[test]
    fn single_message_on_cluster_chain() {
        let g = generators::cluster_chain(6, 6);
        let (done, audit) = run_broadcast(&g, 1, 2, SlowKey::VirtualDistance, 50_000);
        assert!(done.is_some());
        assert_eq!(audit.fast_collisions_in_stretch, 0);
    }

    #[test]
    fn multi_message_on_grid() {
        let g = generators::grid(6, 6);
        let (done, audit) = run_broadcast(&g, 8, 3, SlowKey::VirtualDistance, 200_000);
        assert!(done.is_some(), "8-message broadcast timed out");
        assert_eq!(audit.fast_collisions_in_stretch, 0);
    }

    #[test]
    fn multi_message_on_random_graph() {
        let mut rng = stream_rng(7, 0);
        let g = generators::gnp_connected(48, 0.1, &mut rng);
        let (done, _) = run_broadcast(&g, 6, 4, SlowKey::VirtualDistance, 200_000);
        assert!(done.is_some());
    }

    #[test]
    fn multi_message_scales_linearly_in_k() {
        // O(D + k log n + log^2 n): doubling k must not explode the time.
        let g = generators::cluster_chain(4, 6);
        let (t8, _) = run_broadcast(&g, 8, 5, SlowKey::VirtualDistance, 400_000);
        let (t16, _) = run_broadcast(&g, 16, 5, SlowKey::VirtualDistance, 400_000);
        let (t8, t16) = (t8.unwrap() as f64, t16.unwrap() as f64);
        assert!(t16 < t8 * 3.5, "k-scaling superlinear: {t8} -> {t16}");
    }

    #[test]
    fn level_keyed_ablation_still_broadcasts_single() {
        // With one message the level-keyed schedule behaves like GPX.
        let g = generators::cluster_chain(5, 5);
        let (done, _) = run_broadcast(&g, 1, 6, SlowKey::Level, 50_000);
        assert!(done.is_some());
    }

    #[test]
    fn fast_slot_arithmetic() {
        let cfg = ScheduleConfig {
            log_n: 4,
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        // Period 24; node at level 2, rank 3: slot 2*(2+9) = 22.
        assert!(cfg.fast_slot(22, 2, 3));
        assert!(cfg.fast_slot(46, 2, 3));
        assert!(!cfg.fast_slot(23, 2, 3));
        assert!(!cfg.fast_slot(20, 2, 3));
    }

    #[test]
    fn slow_prompt_arithmetic() {
        let cfg = ScheduleConfig {
            log_n: 4,
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        // d = 1: prompted at t ≡ 3 (mod 6), t >= 3.
        assert_eq!(cfg.slow_prompt(3, 1), Some(1.0));
        assert_eq!(cfg.slow_prompt(9, 1), Some(0.5));
        assert_eq!(cfg.slow_prompt(4, 1), None);
        assert_eq!(cfg.slow_prompt(1, 1), None, "before the pattern starts");
        // Slow prompts only land on odd rounds.
        for t in (0..60).step_by(2) {
            assert_eq!(cfg.slow_prompt(t, 1), None);
        }
    }

    #[test]
    fn fast_slots_only_on_even_rounds() {
        let cfg = ScheduleConfig {
            log_n: 5,
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        for t in (1..120).step_by(2) {
            for l in 0..6 {
                for r in 1..5 {
                    assert!(!cfg.fast_slot(t, l, r), "odd round {t} is a fast slot");
                }
            }
        }
    }

    #[test]
    fn noise_mode_transmits_on_empty_decoder() {
        let params = Params::scaled(16);
        let cfg =
            ScheduleConfig { empty: EmptyBehavior::Noise, ..ScheduleConfig::from_params(&params) };
        let labels = SchedLabels {
            level: 1,
            rank: 1,
            vdist: 1,
            stretch_start: true,
            fast_transmitter: true,
            in_stretch: false,
        };
        let mut node = MmvScheduleNode::new(cfg, labels, 1, 8);
        let mut rng = stream_rng(0, 0);
        let mut noises = 0;
        for t in 0..1000 {
            if let Action::Transmit(SchedMsg::Noise) = node.act(t, &mut rng) {
                noises += 1;
            }
        }
        assert!(noises > 0, "noise mode never transmitted");
    }

    #[test]
    fn next_slot_helpers_are_consistent() {
        let cfg = ScheduleConfig {
            log_n: 4,
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        for from in 0..80u64 {
            for l in 0..5 {
                for r in 1..4 {
                    let next = cfg.next_fast_slot(from, l, r);
                    assert!(next >= from && cfg.fast_slot(next, l, r));
                    for t in from..next {
                        assert!(!cfg.fast_slot(t, l, r), "missed fast slot at {t}");
                    }
                }
            }
            for d in 0..6 {
                let next = cfg.next_slow_prompt(from, d);
                assert!(next >= from && cfg.slow_prompt(next, d).is_some());
                for t in from..next {
                    assert!(cfg.slow_prompt(t, d).is_none(), "missed slow prompt at {t}");
                }
            }
        }
    }

    #[test]
    fn schedule_wake_hints_match_dense_path() {
        use radio_sim::DenseWrap;
        let g = generators::cluster_chain(5, 5);
        let params = Params::scaled(g.node_count());
        let cfg = ScheduleConfig::from_params(&params);
        let labels = labels_for(&g, 11);
        let messages: Vec<BitVec> = (0..4u64).map(|i| BitVec::from_u64(i * 5 + 2, 32)).collect();
        let make = |id: NodeId| {
            let node = MmvScheduleNode::new(cfg, labels[id.index()], 4, 32);
            if id.index() == 0 {
                node.with_messages(&messages)
            } else {
                node
            }
        };
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            let mut wake = Simulator::new(g.clone(), mode, 11, make);
            let mut dense = Simulator::new(g.clone(), mode, 11, |id| DenseWrap(make(id)));
            let w = wake.run_until(100_000, |ns| ns.iter().all(MmvScheduleNode::is_complete));
            let d = dense.run_until(100_000, |ns| ns.iter().all(|n| n.0.is_complete()));
            assert_eq!(w, d, "completion diverged under {mode:?}");
            assert_eq!(
                (wake.stats().transmissions, wake.stats().deliveries, wake.stats().collisions),
                (dense.stats().transmissions, dense.stats().deliveries, dense.stats().collisions),
                "channel trace diverged under {mode:?}"
            );
            assert!(wake.stats().act_skips > 0, "between-slot rounds were not skipped");
        }
    }

    #[test]
    fn packet_bits_accounting() {
        let p = CodedPacket::plaintext(4, 0, BitVec::zero(16));
        assert_eq!(SchedMsg::Coded { fast: true, packet: p }.packet_bits(), 1 + 4 + 16);
        assert_eq!(SchedMsg::Noise.packet_bits(), 1);
    }
}
