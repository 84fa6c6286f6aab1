//! The Decay protocol of Bar-Yehuda, Goldreich and Itai (Section 2.2.1) and
//! its multi-message-viable framing (Section 3.1).
//!
//! Decay is the standard contention-resolution primitive for radio networks:
//! rounds are grouped into phases of `⌈log2 n⌉` rounds, and in the `i`-th
//! round of a phase each participating node transmits with probability
//! `2^{-i}`. Lemma 2.2: a listener with at least one participating neighbor
//! receives a message per phase with probability at least `1/8`.
//!
//! Three things live here:
//!
//! * [`DecaySchedule`] — the probability pattern, reused by every protocol in
//!   this crate that says "run `Θ(log n)` phases of Decay";
//! * [`DecayBroadcast`] — the classical BGI single-message broadcast
//!   (`O(D log n + log^2 n)` rounds), which doubles as the paper's main
//!   baseline;
//! * [`MmvDecayBroadcast`] — the *layered* Decay schedule of Lemma 3.2, in
//!   which a node at distance `l` from the source is prompted in rounds
//!   `r ≡ l + 1 (mod 3)` with probability `2^{-((r-l-1)/3 mod ⌈log n⌉)}` and,
//!   when prompted without holding the message, transmits **noise**. The
//!   paper's backwards analysis shows broadcast still completes in
//!   `O(D log n + log^2 n)` rounds; experiment E7 measures it.

use crate::params::Params;
use radio_sim::model::PacketBits;
use radio_sim::{Action, Observation, Protocol, Wake};
use rand::rngs::SmallRng;
use rand::Rng;

/// The Decay transmission pattern: probability `2^{-(1 + (r mod L))}` at
/// round-in-phase `r` of phases of length `L`.
///
/// ```
/// use broadcast::decay::DecaySchedule;
/// let d = DecaySchedule::new(4);
/// assert_eq!(d.probability(0), 1.0);
/// assert_eq!(d.probability(3), 1.0 / 8.0);
/// assert_eq!(d.probability(4), 1.0); // next phase restarts
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecaySchedule {
    phase_len: u32,
}

impl DecaySchedule {
    /// A schedule with phases of `phase_len >= 1` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len == 0`.
    pub fn new(phase_len: u32) -> Self {
        assert!(phase_len >= 1, "phase length must be positive");
        DecaySchedule { phase_len }
    }

    /// The schedule used by `params` (`phase_len = ⌈log2 n⌉`).
    pub fn from_params(params: &Params) -> Self {
        DecaySchedule::new(params.decay_phase_len())
    }

    /// Phase length in rounds.
    pub fn phase_len(&self) -> u32 {
        self.phase_len
    }

    /// Transmission probability at local round `r` (0-based from the start of
    /// the Decay block): `2^{-(r mod L)}`, starting at 1 as in the original
    /// BGI formulation (the first round of a phase always transmits).
    pub fn probability(&self, r: u64) -> f64 {
        let i = (r % u64::from(self.phase_len)) as u32;
        0.5f64.powi(i as i32)
    }

    /// Samples the transmit decision at local round `r`.
    pub fn fires(&self, r: u64, rng: &mut impl Rng) -> bool {
        rng.gen_bool(self.probability(r))
    }
}

/// Packet of the plain Decay broadcast: the broadcast message itself.
///
/// The payload models the `Θ(B)`-bit broadcast message as an opaque word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecayMsg(pub u64);

impl PacketBits for DecayMsg {
    fn packet_bits(&self) -> usize {
        64
    }
}

/// The classical BGI Decay broadcast: every informed node runs the Decay
/// pattern; uninformed nodes stay silent.
#[derive(Clone, Debug)]
pub struct DecayBroadcast {
    schedule: DecaySchedule,
    message: Option<DecayMsg>,
    /// Round at which this node first learned the message.
    informed_at: Option<u64>,
}

impl DecayBroadcast {
    /// A node of the broadcast; `source_message` is `Some` at the source.
    pub fn new(params: &Params, source_message: Option<DecayMsg>) -> Self {
        DecayBroadcast {
            schedule: DecaySchedule::from_params(params),
            message: source_message,
            informed_at: source_message.map(|_| 0),
        }
    }

    /// Whether this node holds the message.
    pub fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    /// The round at which the message arrived (0 for the source).
    pub fn informed_at(&self) -> Option<u64> {
        self.informed_at
    }
}

impl Protocol for DecayBroadcast {
    type Msg = DecayMsg;

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<DecayMsg> {
        match self.message {
            Some(m) if self.schedule.fires(round, rng) => Action::Transmit(m),
            _ => Action::Listen,
        }
    }

    /// Uninformed nodes are inert (no transmission, no RNG draw) until a
    /// packet arrives; informed nodes sample the Decay pattern every round.
    fn next_wake(&self, _round: u64) -> Wake {
        if self.message.is_some() {
            Wake::Now
        } else {
            Wake::Idle
        }
    }

    fn observe(&mut self, round: u64, obs: Observation<DecayMsg>, _rng: &mut SmallRng) {
        if let Observation::Message(m) = obs {
            if self.message.is_none() {
                self.message = Some(*m);
                self.informed_at = Some(round + 1);
            }
        }
    }
}

/// Packet of the MMV-framed layered Decay: either the real message or noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmvDecayMsg {
    /// The broadcast message.
    Payload(u64),
    /// A prompted transmission by a node that does not hold the message.
    Noise,
}

impl PacketBits for MmvDecayMsg {
    fn packet_bits(&self) -> usize {
        1 + 64
    }
}

/// The layered Decay schedule of Lemma 3.2, with optional noise senders.
///
/// Every node must know its BFS distance `l` from the source (delivered by a
/// layering phase in real pipelines; injected directly in experiments). At
/// round `r` a node with distance `l` is *prompted* iff `r ≡ l + 1 (mod 3)`,
/// with probability `2^{-((r - l - 1)/3 mod ⌈log2 n⌉)}`. A prompted holder
/// transmits the message; a prompted non-holder transmits noise when
/// `noise_enabled` (the MMV stress of Lemma 3.2) and stays silent otherwise
/// (the classical layered Decay).
#[derive(Clone, Debug)]
pub struct MmvDecayBroadcast {
    level: u64,
    log_n: u32,
    noise_enabled: bool,
    message: Option<u64>,
    informed_at: Option<u64>,
}

impl MmvDecayBroadcast {
    /// A node at BFS distance `level`; `source_message` is `Some` at the
    /// source (whose `level` must be 0).
    pub fn new(
        params: &Params,
        level: u32,
        noise_enabled: bool,
        source_message: Option<u64>,
    ) -> Self {
        MmvDecayBroadcast {
            level: u64::from(level),
            log_n: params.log_n,
            noise_enabled,
            message: source_message,
            informed_at: source_message.map(|_| 0),
        }
    }

    /// Whether this node holds the message.
    pub fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    /// Round of first reception (0 for the source).
    pub fn informed_at(&self) -> Option<u64> {
        self.informed_at
    }

    /// Whether the schedule prompts this node at `round` (1-based internally,
    /// matching the paper's `r ≡ l_v + 1 (mod 3)`), and with what probability.
    fn prompt_probability(&self, round: u64) -> Option<f64> {
        let r = round + 1; // the paper counts rounds from 1
        if r % 3 != (self.level + 1) % 3 {
            return None;
        }
        // Guard against rounds before the node's slot pattern starts.
        if r < self.level + 1 {
            return None;
        }
        let step = (r - self.level - 1) / 3 % u64::from(self.log_n);
        Some(0.5f64.powi(step as i32))
    }

    /// The first round `>= from` in which the schedule prompts this node
    /// (every prompted round draws from the RNG, message or not).
    fn next_prompt(&self, from: u64) -> u64 {
        // Prompted rounds satisfy (round + 1) ≡ level + 1 (mod 3) with
        // round >= level.
        let from = from.max(self.level);
        let target = (self.level + 1) % 3;
        from + (target + 3 - (from + 1) % 3) % 3
    }
}

impl Protocol for MmvDecayBroadcast {
    type Msg = MmvDecayMsg;

    /// Wakes only in prompted rounds (one in three): unprompted rounds
    /// neither transmit nor draw from the RNG.
    fn next_wake(&self, round: u64) -> Wake {
        let next = self.next_prompt(round);
        if next == round {
            Wake::Now
        } else {
            Wake::At(next)
        }
    }

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<MmvDecayMsg> {
        let Some(p) = self.prompt_probability(round) else {
            return Action::Listen;
        };
        if !rng.gen_bool(p) {
            return Action::Listen;
        }
        match self.message {
            Some(m) => Action::Transmit(MmvDecayMsg::Payload(m)),
            None if self.noise_enabled => Action::Transmit(MmvDecayMsg::Noise),
            None => Action::Listen,
        }
    }

    fn observe(&mut self, round: u64, obs: Observation<MmvDecayMsg>, _rng: &mut SmallRng) {
        if let Observation::Message(p) = obs {
            if let MmvDecayMsg::Payload(m) = *p {
                if self.message.is_none() {
                    self.message = Some(m);
                    self.informed_at = Some(round + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::graph::{generators, Traversal};
    use radio_sim::{CollisionMode, NodeId, Simulator};

    #[test]
    fn decay_schedule_probabilities() {
        let d = DecaySchedule::new(3);
        assert_eq!(d.probability(0), 1.0);
        assert_eq!(d.probability(1), 0.5);
        assert_eq!(d.probability(2), 0.25);
        assert_eq!(d.probability(3), 1.0);
        assert_eq!(d.phase_len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_phase_len_panics() {
        let _ = DecaySchedule::new(0);
    }

    fn run_decay(g: radio_sim::Graph, seed: u64) -> Option<u64> {
        let params = Params::scaled(g.node_count());
        let mut sim = Simulator::new(g, CollisionMode::NoDetection, seed, |id| {
            DecayBroadcast::new(&params, (id.index() == 0).then_some(DecayMsg(0xFEED)))
        });
        sim.run_until(200_000, |nodes| nodes.iter().all(DecayBroadcast::is_informed))
    }

    #[test]
    fn decay_broadcast_completes_on_path() {
        assert!(run_decay(generators::path(32), 1).is_some());
    }

    #[test]
    fn decay_broadcast_completes_on_clique() {
        assert!(run_decay(generators::complete(64), 2).is_some());
    }

    #[test]
    fn decay_broadcast_completes_on_cluster_chain() {
        assert!(run_decay(generators::cluster_chain(8, 8), 3).is_some());
    }

    #[test]
    fn decay_progress_rate_meets_lemma_2_2() {
        // Star center with many informed leaves: the center must receive with
        // probability >= 1/8 per phase. Measure across phases.
        let n = 65;
        let params = Params::scaled(n);
        let g = generators::star(n);
        let mut sim = Simulator::new(g, CollisionMode::NoDetection, 9, |id| {
            DecayBroadcast::new(&params, (id.index() != 0).then_some(DecayMsg(1)))
        });
        let informed = sim
            .run_until(u64::from(params.decay_phase_len()) * 400, |nodes| nodes[0].is_informed());
        assert!(informed.is_some());
        // Expected phases to inform: <= 8 on average; allow a wide margin.
        let phases = informed.unwrap() / u64::from(params.decay_phase_len()) + 1;
        assert!(phases <= 60, "took {phases} phases");
    }

    #[test]
    fn run_until_is_exact_for_decay_in_both_modes() {
        let g = generators::cluster_chain(6, 6);
        let params = Params::scaled(g.node_count());
        let informed = |ns: &[DecayBroadcast]| ns.iter().all(DecayBroadcast::is_informed);
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            for seed in 0..4u64 {
                let decay = || {
                    Simulator::new(g.clone(), mode, seed, |id| {
                        DecayBroadcast::new(&params, (id.index() == 0).then_some(DecayMsg(3)))
                    })
                };
                let mut gated = decay();
                let done = gated.run_until(200_000, informed);
                // The reference checks the predicate after every round.
                let mut stepped = decay();
                while !informed(stepped.nodes()) {
                    stepped.step();
                }
                assert_eq!(done, Some(stepped.round()), "{mode:?}, seed {seed}");
                assert_eq!(gated.stats(), stepped.stats(), "{mode:?}, seed {seed}");
            }
        }
    }

    #[test]
    fn decay_rounds_scale_with_diameter() {
        let short = run_decay(generators::path(8), 4).unwrap();
        let long = run_decay(generators::path(64), 4).unwrap();
        assert!(long > short, "decay time must grow with D ({short} vs {long})");
    }

    fn run_mmv(noise: bool, seed: u64) -> Option<u64> {
        let g = generators::cluster_chain(6, 6);
        let layering = g.bfs(NodeId::new(0));
        let params = Params::scaled(g.node_count());
        let levels: Vec<u32> = g.node_ids().map(|v| layering.level(v)).collect();
        let mut sim = Simulator::new(g, CollisionMode::NoDetection, seed, |id| {
            MmvDecayBroadcast::new(
                &params,
                levels[id.index()],
                noise,
                (id.index() == 0).then_some(7),
            )
        });
        sim.run_until(500_000, |nodes| nodes.iter().all(MmvDecayBroadcast::is_informed))
    }

    #[test]
    fn mmv_decay_completes_without_noise() {
        assert!(run_mmv(false, 5).is_some());
    }

    #[test]
    fn mmv_decay_completes_with_noise() {
        // Lemma 3.2: noise from non-holders does not prevent completion.
        for seed in 6..10 {
            assert!(run_mmv(true, seed).is_some(), "seed {seed}");
        }
    }

    #[test]
    fn mmv_prompts_respect_level_slots() {
        let params = Params::scaled(64);
        let node = MmvDecayBroadcast::new(&params, 2, false, None);
        // r = round+1 must satisfy r ≡ 3 (mod 3) = 0 (mod 3).
        for round in 0..30u64 {
            let prompted = node.prompt_probability(round).is_some();
            assert_eq!(prompted, (round + 1) % 3 == 0 && round + 1 >= 3, "round {round}");
        }
    }

    #[test]
    fn packet_bits() {
        assert_eq!(DecayMsg(0).packet_bits(), 64);
        assert_eq!(MmvDecayMsg::Noise.packet_bits(), 65);
    }

    #[test]
    fn decay_wake_hints_match_dense_path() {
        use radio_sim::DenseWrap;
        let g = generators::cluster_chain(5, 5);
        let params = Params::scaled(g.node_count());
        for seed in 0..4u64 {
            let mut wake = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, |id| {
                DecayBroadcast::new(&params, (id.index() == 0).then_some(DecayMsg(5)))
            });
            let mut dense = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, |id| {
                DenseWrap(DecayBroadcast::new(&params, (id.index() == 0).then_some(DecayMsg(5))))
            });
            wake.run(2_000);
            dense.run(2_000);
            let wa: Vec<_> = wake.nodes().iter().map(DecayBroadcast::informed_at).collect();
            let da: Vec<_> = dense.nodes().iter().map(|n| n.0.informed_at()).collect();
            assert_eq!(wa, da, "informed rounds diverged (seed {seed})");
            assert_eq!(
                (wake.stats().transmissions, wake.stats().deliveries, wake.stats().collisions),
                (dense.stats().transmissions, dense.stats().deliveries, dense.stats().collisions),
            );
            assert!(wake.stats().act_skips > 0, "uninformed nodes were not skipped");
            assert_eq!(dense.stats().act_skips, 0);
        }
    }

    #[test]
    fn mmv_decay_wake_hints_match_dense_path() {
        use radio_sim::DenseWrap;
        let g = generators::cluster_chain(4, 4);
        let layering = g.bfs(NodeId::new(0));
        let params = Params::scaled(g.node_count());
        let levels: Vec<u32> = g.node_ids().map(|v| layering.level(v)).collect();
        for noise in [false, true] {
            let make = |id: NodeId| {
                MmvDecayBroadcast::new(
                    &params,
                    levels[id.index()],
                    noise,
                    (id.index() == 0).then_some(9),
                )
            };
            let mut wake = Simulator::new(g.clone(), CollisionMode::NoDetection, 7, make);
            let mut dense =
                Simulator::new(g.clone(), CollisionMode::NoDetection, 7, |id| DenseWrap(make(id)));
            wake.run(3_000);
            dense.run(3_000);
            let wa: Vec<_> = wake.nodes().iter().map(MmvDecayBroadcast::informed_at).collect();
            let da: Vec<_> = dense.nodes().iter().map(|n| n.0.informed_at()).collect();
            assert_eq!(wa, da, "informed rounds diverged (noise {noise})");
            assert_eq!(wake.stats().transmissions, dense.stats().transmissions);
            assert!(wake.stats().act_skips > 0, "off-slot rounds were not skipped");
        }
    }

    #[test]
    fn mmv_next_prompt_is_consistent_with_prompting() {
        let params = Params::scaled(64);
        for level in 0..7u32 {
            let node = MmvDecayBroadcast::new(&params, level, false, None);
            for from in 0..60u64 {
                let next = node.next_prompt(from);
                assert!(next >= from);
                assert!(node.prompt_probability(next).is_some(), "level {level} from {from}");
                for t in from..next {
                    assert!(node.prompt_probability(t).is_none(), "missed prompt at {t}");
                }
            }
        }
    }
}
