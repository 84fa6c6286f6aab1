//! Property tests for streamed (implicit) topologies.
//!
//! Four laws, over sampled families, sizes and seeds:
//!
//! * streamed neighborhoods are **bit-identical** to a materialized build of
//!   the same family: `ImplicitGraph::grid` matches `generators::grid`
//!   edge-for-edge, and the hashed families match their own
//!   [`ImplicitGraph::materialize`] (an independent brute-force pair scan,
//!   not the streaming recomputation path);
//! * repeat queries (direct-mapped **cache hits**) return the same slices as
//!   cold queries;
//! * an engine run over a streamed topology produces the **same trace and
//!   statistics** as the identical run over its materialization;
//! * streamed runs are **deterministic**: same (family, graph seed, run
//!   seed) gives the same full trace on every rerun.

use proptest::prelude::*;
use radio_sim::graph::generators;
use radio_sim::model::{Action, CollisionMode, Observation};
use radio_sim::{ImplicitGraph, NodeId, Protocol, RunStats, Simulator, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

/// Collects every neighborhood of `t`, querying each node twice so the
/// second pass exercises the neighborhood cache's hit path.
fn neighborhoods<T: Topology>(t: &T) -> Vec<Vec<NodeId>> {
    let query = |i: usize| t.with_neighbors(NodeId::new(i), |ns| ns.to_vec());
    let cold: Vec<Vec<NodeId>> = (0..t.node_count()).map(query).collect();
    let warm: Vec<Vec<NodeId>> = (0..t.node_count()).map(query).collect();
    assert_eq!(cold, warm, "a cache hit returned a different neighborhood than the cold query");
    cold
}

/// A protocol that exercises both the channel and its RNG stream: transmits
/// with probability 0.3 each round and tallies everything it hears.
#[derive(Debug)]
struct Chatter {
    heard: Vec<(u64, bool)>, // (round, was_message)
}

impl Protocol for Chatter {
    type Msg = u8;
    fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action<u8> {
        if rng.gen_bool(0.3) {
            Action::Transmit(1)
        } else {
            Action::Listen
        }
    }
    fn observe(&mut self, round: u64, obs: Observation<u8>, _rng: &mut SmallRng) {
        match obs {
            Observation::Message(_) => self.heard.push((round, true)),
            Observation::Collision => self.heard.push((round, false)),
            Observation::Silence => {}
        }
    }
}

/// Runs `Chatter` over any topology; returns the full reception trace and
/// run statistics.
fn run_chatter_on<T: Topology>(
    topology: T,
    seed: u64,
    rounds: u64,
) -> (Vec<Vec<(u64, bool)>>, RunStats) {
    let mut sim =
        Simulator::new(topology, CollisionMode::Detection, seed, |_| Chatter { heard: Vec::new() });
    sim.run(rounds);
    let stats = sim.stats().clone();
    (sim.into_nodes().into_iter().map(|n| n.heard).collect(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_grid_matches_generator(w in 1usize..12, h in 1usize..12) {
        let streamed = ImplicitGraph::grid(w, h);
        let dense = generators::grid(w, h);
        prop_assert_eq!(neighborhoods(&streamed), neighborhoods(&dense));
    }

    #[test]
    fn streamed_unit_disk_matches_materialization(
        n in 1usize..48,
        radius in 0.05f64..0.5,
        seed in 0u64..1_000_000,
    ) {
        let streamed = ImplicitGraph::unit_disk(n, radius, seed);
        let dense = streamed.materialize();
        prop_assert_eq!(neighborhoods(&streamed), neighborhoods(&dense));
    }

    #[test]
    fn streamed_gnp_matches_materialization(
        n in 1usize..48,
        p in 0.0f64..0.6,
        seed in 0u64..1_000_000,
    ) {
        let streamed = ImplicitGraph::gnp(n, p, seed);
        let dense = streamed.materialize();
        prop_assert_eq!(neighborhoods(&streamed), neighborhoods(&dense));
    }

    #[test]
    fn streamed_engine_run_matches_materialized(
        n in 2usize..32,
        radius in 0.1f64..0.6,
        graph_seed in 0u64..1_000_000,
        run_seed in 0u64..1_000_000,
    ) {
        let streamed = ImplicitGraph::unit_disk(n, radius, graph_seed);
        let dense = streamed.materialize();
        let a = run_chatter_on(streamed, run_seed, 40);
        let b = run_chatter_on(dense, run_seed, 40);
        prop_assert_eq!(a, b, "streamed and materialized runs diverged");
    }

    #[test]
    fn streamed_run_is_deterministic(
        p in 0.05f64..0.4,
        graph_seed in 0u64..1_000_000,
        run_seed in 0u64..1_000_000,
    ) {
        let a = run_chatter_on(ImplicitGraph::gnp(24, p, graph_seed), run_seed, 40);
        let b = run_chatter_on(ImplicitGraph::gnp(24, p, graph_seed), run_seed, 40);
        prop_assert_eq!(a, b, "a streamed rerun diverged from itself");
    }
}
