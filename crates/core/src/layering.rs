//! Distributed BFS layering.
//!
//! Two algorithms from the paper:
//!
//! * [`CollisionWaveLayering`] — the `D`-round layering from the proof of
//!   Theorem 1.1, requiring collision detection: the source transmits in
//!   every round; every node starts transmitting one round after it first
//!   hears a *signal* (message **or** collision), and the round of that first
//!   signal is exactly its BFS distance.
//! * [`DecayLayering`] — the `O(D log^2 n)`-round layering of Section 2.2.2
//!   for the model **without** collision detection: `D` epochs of `Θ(log n)`
//!   Decay phases; a node joins the wave in the epoch after it first receives
//!   a message, and the joining epoch index is its BFS level.

use crate::decay::DecaySchedule;
use crate::params::Params;
use radio_sim::model::PacketBits;
use radio_sim::{Action, Observation, Protocol, Wake};
use rand::rngs::SmallRng;

/// The content-free "beep" packet of the collision wave.
///
/// Any packet works: receivers only use *signal vs. silence*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Beep;

impl PacketBits for Beep {
    fn packet_bits(&self) -> usize {
        1
    }
}

/// The collision-wave layering (with collision detection): after `D` rounds,
/// every node's [`level`](CollisionWaveLayering::level) is its BFS distance
/// from the source.
#[derive(Clone, Debug)]
pub struct CollisionWaveLayering {
    is_source: bool,
    /// Round (1-based) of the first observed signal = the BFS level.
    level: Option<u32>,
}

impl CollisionWaveLayering {
    /// A node of the wave; exactly one node must be the source.
    pub fn new(is_source: bool) -> Self {
        CollisionWaveLayering { is_source, level: is_source.then_some(0) }
    }

    /// The learned BFS level (0 at the source), or `None` if the wave has not
    /// arrived yet.
    pub fn level(&self) -> Option<u32> {
        self.level
    }
}

impl Protocol for CollisionWaveLayering {
    type Msg = Beep;

    /// Unlayered nodes are inert until the wave's first signal reaches them
    /// (which re-wakes them); a node layered `l` beeps from round `l` on.
    fn next_wake(&self, round: u64) -> Wake {
        match self.level {
            Some(l) if u64::from(l) <= round => Wake::Now,
            Some(l) => Wake::At(u64::from(l)),
            None => Wake::Idle,
        }
    }

    fn act(&mut self, round: u64, _rng: &mut SmallRng) -> Action<Beep> {
        match self.level {
            // The source transmits in all rounds [1, D]; a node with level l
            // transmits in all rounds [l + 1, D] (it heard the wave at round
            // l, 1-based). `round` here is 0-based: round r is paper round
            // r + 1.
            Some(l) if round >= u64::from(l) => Action::Transmit(Beep),
            _ => Action::Listen,
        }
    }

    fn observe(&mut self, round: u64, obs: Observation<Beep>, _rng: &mut SmallRng) {
        if self.level.is_none() && obs.is_signal() {
            // First signal in 0-based round r = paper round r + 1 = level.
            self.level = Some(u32::try_from(round + 1).expect("level fits u32"));
        }
        let _ = self.is_source;
    }
}

/// Packet of the Decay-based layering: a content-free wave token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaveToken;

impl PacketBits for WaveToken {
    fn packet_bits(&self) -> usize {
        1
    }
}

/// The Decay-epoch layering (no collision detection needed):
/// epochs of `Θ(log^2 n)` rounds; a node that first receives the token in
/// epoch `e` has BFS level `e + 1` and participates from epoch `e + 1` on.
#[derive(Clone, Debug)]
pub struct DecayLayering {
    schedule: DecaySchedule,
    epoch_rounds: u64,
    /// Epoch from which this node participates (0 for the source).
    active_from_epoch: Option<u64>,
    level: Option<u32>,
}

impl DecayLayering {
    /// A node of the layering; exactly one node must be the source.
    pub fn new(params: &Params, is_source: bool) -> Self {
        DecayLayering {
            schedule: DecaySchedule::from_params(params),
            epoch_rounds: u64::from(params.decay_step_rounds()),
            active_from_epoch: is_source.then_some(0),
            level: is_source.then_some(0),
        }
    }

    /// The learned BFS level, or `None` while the wave has not arrived.
    pub fn level(&self) -> Option<u32> {
        self.level
    }

    /// Rounds needed to layer a graph of diameter at most `d_bound`.
    pub fn rounds_required(params: &Params, d_bound: u32) -> u64 {
        u64::from(d_bound) * u64::from(params.decay_step_rounds())
    }
}

impl Protocol for DecayLayering {
    type Msg = WaveToken;

    /// A node samples the Decay pattern from the first round of its joining
    /// epoch on; before that (or before the token arrives) it is inert.
    fn next_wake(&self, round: u64) -> Wake {
        match self.active_from_epoch {
            Some(e) => {
                let start = e * self.epoch_rounds;
                if start <= round {
                    Wake::Now
                } else {
                    Wake::At(start)
                }
            }
            None => Wake::Idle,
        }
    }

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<WaveToken> {
        let epoch = round / self.epoch_rounds;
        match self.active_from_epoch {
            Some(e) if epoch >= e && self.schedule.fires(round % self.epoch_rounds, rng) => {
                Action::Transmit(WaveToken)
            }
            _ => Action::Listen,
        }
    }

    fn observe(&mut self, round: u64, obs: Observation<WaveToken>, _rng: &mut SmallRng) {
        if self.level.is_none() && obs.is_message() {
            let epoch = round / self.epoch_rounds;
            self.level = Some(u32::try_from(epoch + 1).expect("level fits u32"));
            self.active_from_epoch = Some(epoch + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::graph::{generators, Traversal};
    use radio_sim::{CollisionMode, NodeId, Simulator};

    fn check_collision_wave(g: radio_sim::Graph, seed: u64) {
        let truth = g.bfs(NodeId::new(0));
        let d = u64::from(truth.max_level());
        let mut sim = Simulator::new(g, CollisionMode::Detection, seed, |id| {
            CollisionWaveLayering::new(id.index() == 0)
        });
        sim.run(d); // exactly D rounds, as the paper promises
        for (i, node) in sim.nodes().iter().enumerate() {
            assert_eq!(node.level(), Some(truth.level(NodeId::new(i))), "node {i} mislabelled");
        }
    }

    #[test]
    fn collision_wave_on_path() {
        check_collision_wave(generators::path(40), 0);
    }

    #[test]
    fn collision_wave_on_grid() {
        check_collision_wave(generators::grid(8, 8), 1);
    }

    #[test]
    fn collision_wave_on_cluster_chain() {
        check_collision_wave(generators::cluster_chain(7, 5), 2);
    }

    #[test]
    fn collision_wave_on_random_graph() {
        for seed in 0..5 {
            let mut rng = radio_sim::rng::stream_rng(seed, 0);
            check_collision_wave(generators::gnp_connected(80, 0.06, &mut rng), seed);
        }
    }

    #[test]
    fn collision_wave_needs_detection() {
        // Without CD, collisions look like silence and the wave stalls on
        // dense graphs where every frontier is jammed. On a clique of >= 3
        // informed... actually with a single source the first round is a
        // clean message; use a diamond where two nodes jam the sink.
        let g = radio_sim::Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let truth_d = 2u64;
        let mut sim = Simulator::new(g, CollisionMode::NoDetection, 0, |id| {
            CollisionWaveLayering::new(id.index() == 0)
        });
        sim.run(truth_d);
        // Node 3 hears only collisions (1 and 2 transmit together) => never
        // layered under NoDetection.
        assert_eq!(sim.node(NodeId::new(3)).level(), None);
    }

    fn check_decay_layering(g: radio_sim::Graph, seed: u64) {
        let truth = g.bfs(NodeId::new(0));
        let params = Params::scaled(g.node_count());
        let rounds = DecayLayering::rounds_required(&params, truth.max_level() + 1);
        let mut sim = Simulator::new(g, CollisionMode::NoDetection, seed, |id| {
            DecayLayering::new(&params, id.index() == 0)
        });
        sim.run(rounds);
        let mut mislabelled = 0usize;
        for (i, node) in sim.nodes().iter().enumerate() {
            if node.level() != Some(truth.level(NodeId::new(i))) {
                mislabelled += 1;
            }
        }
        // Decay layering is whp-correct; with scaled constants allow a tiny
        // miss rate (a missed node gets a *larger* level, never smaller).
        assert!(
            mislabelled * 50 <= sim.nodes().len(),
            "{mislabelled}/{} mislabelled",
            sim.nodes().len()
        );
    }

    #[test]
    fn decay_layering_on_path() {
        check_decay_layering(generators::path(24), 3);
    }

    #[test]
    fn decay_layering_on_cluster_chain() {
        check_decay_layering(generators::cluster_chain(6, 5), 4);
    }

    #[test]
    fn decay_layering_levels_never_too_small() {
        // A node can only receive the token after a neighbor has it, so the
        // learned level can never undershoot the true distance.
        let g = generators::cluster_chain(5, 4);
        let truth = g.bfs(NodeId::new(0));
        let params = Params::scaled(g.node_count());
        let rounds = DecayLayering::rounds_required(&params, truth.max_level() + 1);
        let mut sim = Simulator::new(g, CollisionMode::NoDetection, 5, |id| {
            DecayLayering::new(&params, id.index() == 0)
        });
        sim.run(rounds);
        for (i, node) in sim.nodes().iter().enumerate() {
            if let Some(l) = node.level() {
                assert!(l >= truth.level(NodeId::new(i)), "node {i} undershot");
            }
        }
    }

    #[test]
    fn beep_packets_are_tiny() {
        assert_eq!(Beep.packet_bits(), 1);
        assert_eq!(WaveToken.packet_bits(), 1);
    }
}
