//! Telemetry backhaul: a gateway streams k sensor frames through a network
//! it has no map of — Theorem 1.3 end to end (collision-wave layering,
//! distributed GST, distributed virtual labels, batched RLNC, FEC handoffs),
//! run **adaptively**: every phase window closes via in-model status beeps
//! as soon as its work is done, with the plan's `total_rounds()` kept as the
//! worst-case cap. Declared through the `Scenario` facade.
//!
//! ```sh
//! cargo run --release --example telemetry_backhaul
//! ```

use broadcast::{BatchMode, Scenario, TopologySpec, Workload};
use radio_sim::graph::Traversal;
use radio_sim::NodeId;
use rlnc::gf2::BitVec;

fn main() {
    let frames: Vec<BitVec> = (0..8u64).map(|i| BitVec::from_u64(0xBEE0 + i, 32)).collect();
    let backhaul = TopologySpec::ClusterChain { clusters: 6, size: 6 };
    let graph = backhaul.build();
    let d = graph.bfs(NodeId::new(0)).max_level();
    println!(
        "gateway streaming {} frames across {} unknown-topology nodes (D = {d})",
        frames.len(),
        graph.node_count()
    );

    let out = Scenario::new(
        backhaul,
        Workload::MultiUnknown { messages: frames.clone(), batch: BatchMode::FullK },
    )
    .seed(11)
    .run();
    match out.completion_round {
        Some(r) => {
            println!(
                "all frames decoded everywhere after {r} rounds \
                 (worst-case cap {}, {:.0}x headroom)",
                out.cap,
                out.cap as f64 / r.max(1) as f64
            );
            println!("  phase breakdown: {:?}", out.phases);
            println!("  channel: {}", out.stats);
        }
        None => println!("streaming failed within {} rounds", out.cap),
    }
}
