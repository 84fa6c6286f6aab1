//! Workspace-health smoke test: the simulator must be bit-for-bit
//! deterministic, including through the vendored `rand` stand-in. Two runs
//! with identical seeds must agree on every statistic and every per-node
//! outcome; a different seed must diverge.

use radio_sim::model::{Action, Observation};
use radio_sim::{graph::generators, CollisionMode, Protocol, RunStats, Simulator};
use rand::rngs::SmallRng;
use rand::Rng;

/// A chatty protocol that exercises transmission, delivery, collision and
/// silence paths, and accumulates an order-sensitive digest of what it saw.
struct Gossip {
    holds: bool,
    digest: u64,
}

impl Protocol for Gossip {
    type Msg = u64;

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<u64> {
        if self.holds && rng.gen_bool(0.25) {
            Action::Transmit(round ^ self.digest)
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, round: u64, obs: Observation<u64>, _rng: &mut SmallRng) {
        let tag = match obs {
            Observation::Message(m) => {
                self.holds = true;
                m.wrapping_mul(3)
            }
            Observation::Collision => 1,
            Observation::Silence => 2,
        };
        self.digest = self.digest.rotate_left(7) ^ tag ^ round;
    }
}

fn run(seed: u64) -> (RunStats, Vec<u64>) {
    let g = generators::grid(8, 8);
    let mut sim = Simulator::new(g, CollisionMode::Detection, seed, |id| Gossip {
        holds: id.index() == 0,
        digest: 0,
    });
    sim.run(500);
    let stats = sim.stats().clone();
    let digests = sim.into_nodes().iter().map(|n| n.digest).collect();
    (stats, digests)
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let (stats_a, digests_a) = run(42);
    let (stats_b, digests_b) = run(42);
    assert_eq!(stats_a, stats_b, "run statistics diverged across identical seeded runs");
    assert_eq!(digests_a, digests_b, "per-node observations diverged across identical seeds");
    assert!(stats_a.transmissions > 0, "smoke run produced no traffic");
    assert!(stats_a.deliveries > 0, "smoke run delivered nothing");
}

#[test]
fn different_seeds_diverge() {
    let (stats_a, digests_a) = run(42);
    let (stats_c, digests_c) = run(43);
    assert!(
        stats_a != stats_c || digests_a != digests_c,
        "seeds 42 and 43 produced identical runs; seeding is broken"
    );
}
