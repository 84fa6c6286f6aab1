//! Quickstart: declare a scenario, run it. One message crosses an
//! unknown-topology radio network with collision detection (Theorem 1.1),
//! through the `Scenario` facade — the front door to every pipeline and
//! baseline in this repo.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use broadcast::{Detail, Scenario, TopologySpec, Workload};
use radio_sim::graph::Traversal;
use radio_sim::NodeId;

fn main() {
    // A 150-node unit-disk deployment — the classical physical radio model.
    // The spec *describes* the network; the graph is built lazily at run
    // time (swap the spec to change topology, nothing else moves).
    let deployment = TopologySpec::UnitDisk { n: 150, radius: 0.16, graph_seed: 2024 };
    let graph = deployment.build();
    let d = graph.bfs(NodeId::new(0)).max_level();
    println!("network: {} nodes, {} links, diameter {}", graph.node_count(), graph.edge_count(), d);

    let outcome = Scenario::new(deployment, Workload::Single { payload: 0xC0FFEE }).seed(7).run();
    let Detail::Single { plan, .. } = &outcome.detail else { unreachable!() };
    match outcome.completion_round {
        Some(round) => println!(
            "message delivered to all {} nodes in {} rounds \
             ({} rings, worst-case cap {}, {} in-stretch fast collisions)",
            graph.node_count(),
            round,
            plan.front.ring_count,
            outcome.cap,
            outcome.audit.fast_collisions_in_stretch,
        ),
        None => println!("broadcast did not finish within the worst-case cap"),
    }
}
