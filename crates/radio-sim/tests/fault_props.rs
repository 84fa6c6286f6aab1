//! Property tests for the adversarial fault layer.
//!
//! Three laws, over sampled plans and seeds:
//!
//! * fault application is **deterministic**: the same (plan, seed) yields the
//!   same full statistics (including fault counters) on every rerun;
//! * erasure at `p = 0` is a **no-op**: it draws (and discards) fault
//!   randomness, leaving the protocol trace identical to no plan at all;
//! * churned topologies stay **valid CSR**: node count fixed, adjacency
//!   symmetric, degrees consistent with the edge count.

use proptest::prelude::*;
use radio_sim::graph::{generators, Graph};
use radio_sim::model::{Action, CollisionMode, Observation};
use radio_sim::{FaultPlan, Protocol, RunStats, Simulator};
use rand::rngs::SmallRng;
use rand::Rng;

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

/// Runs `Chatter` over a cluster chain with the given plan; returns the full
/// reception trace and run statistics.
fn run_chatter(plan: FaultPlan, seed: u64, rounds: u64) -> (Vec<Vec<(u64, bool)>>, RunStats) {
    let g = generators::cluster_chain(4, 4);
    let mut sim = Simulator::new_with_faults(g, CollisionMode::Detection, seed, plan, |_| {
        Chatter { heard: Vec::new() }
    });
    sim.run(rounds);
    let stats = sim.stats().clone();
    (sim.into_nodes().into_iter().map(|n| n.heard).collect(), stats)
}

/// Asserts the CSR invariants churn must preserve: fixed node count,
/// symmetric sorted adjacency, and a degree sum of twice the edge count.
fn assert_valid_csr(g: &Graph, n: usize) {
    assert_eq!(g.node_count(), n);
    let mut degree_sum = 0usize;
    for u in g.node_ids() {
        let neigh = g.neighbors(u);
        degree_sum += neigh.len();
        for w in neigh.windows(2) {
            assert!(w[0] < w[1], "unsorted/duplicate adjacency at {u:?}");
        }
        for &v in neigh {
            assert!(v.index() < n, "dangling edge {u:?}-{v:?}");
            assert!(g.has_edge(v, u), "asymmetric edge {u:?}-{v:?}");
        }
    }
    assert_eq!(degree_sum, 2 * g.edge_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fault_application_is_deterministic(
        seed in 0u64..1_000_000,
        erasure in 0.0f64..0.5,
        jam_node in 0u32..16,
        jam_period in 1u64..20,
        churn_period in 1u64..12,
        churn_p in 0.0f64..0.2,
    ) {
        let plan = FaultPlan::none()
            .with_erasure(erasure)
            .with_jammer(jam_node, jam_period, jam_period - 1)
            .with_churn(churn_period, churn_p, churn_p);
        let a = run_chatter(plan.clone(), seed, 60);
        let b = run_chatter(plan, seed, 60);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn zero_probability_erasure_is_a_noop(seed in 0u64..1_000_000) {
        let clean = run_chatter(FaultPlan::none(), seed, 60);
        let zeroed = run_chatter(FaultPlan::none().with_erasure(0.0), seed, 60);
        prop_assert_eq!(clean.0, zeroed.0, "p = 0 erasure perturbed the trace");
        prop_assert_eq!(zeroed.1.erased, 0);
        prop_assert_eq!(
            (clean.1.transmissions, clean.1.deliveries, clean.1.collisions),
            (zeroed.1.transmissions, zeroed.1.deliveries, zeroed.1.collisions)
        );
    }

    #[test]
    fn churned_graphs_stay_valid_csr(
        seed in 0u64..1_000_000,
        node_p in 0.0f64..0.3,
        edge_p in 0.0f64..0.3,
    ) {
        let n = generators::cluster_chain(4, 4).node_count();
        let plan = FaultPlan::none().with_churn(1, node_p, edge_p);
        let mut sim = Simulator::new_with_faults(
            generators::cluster_chain(4, 4),
            CollisionMode::Detection,
            seed,
            plan,
            |_| Chatter { heard: Vec::new() },
        );
        for _ in 0..40 {
            sim.step();
            assert_valid_csr(sim.graph(), n);
        }
    }

    #[test]
    fn mobile_graphs_stay_valid_csr(seed in 0u64..1_000_000, radius in 0.2f64..0.6) {
        let n = 20usize;
        let plan = FaultPlan::none().with_mobility(radius, 5);
        let mut sim = Simulator::new_with_faults(
            generators::path(n),
            CollisionMode::Detection,
            seed,
            plan,
            |_| Chatter { heard: Vec::new() },
        );
        for _ in 0..25 {
            sim.step();
            assert_valid_csr(sim.graph(), n);
        }
    }
}
