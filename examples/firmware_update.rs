//! Firmware update: push a k-packet image to every sensor (Theorem 1.2,
//! known topology), and see what network coding buys over plain routing.
//! The coded run goes through the `Scenario` facade; the routing baseline
//! reuses the identical schedule labels on the same graph.
//!
//! ```sh
//! cargo run --release --example firmware_update
//! ```

use baselines::routing::RoutingNode;
use broadcast::schedule::{SchedLabels, ScheduleConfig};
use broadcast::{EmptyBehavior, Params, Scenario, SlowKey, TopologySpec, Workload};
use radio_sim::rng::stream_rng;
use radio_sim::{CollisionMode, NodeId, Simulator};
use rlnc::gf2::BitVec;

fn main() {
    let warehouse = TopologySpec::Grid { w: 8, h: 8 }; // a warehouse sensor grid
    let k = 16; // firmware split into 16 packets
    let image: Vec<BitVec> = (0..k as u64).map(|i| BitVec::from_u64(0xF00D + i * 7, 32)).collect();

    let graph = warehouse.build();
    println!("pushing a {k}-packet image to {} sensors", graph.node_count());

    let coded = Scenario::new(
        warehouse,
        Workload::MultiKnown {
            messages: image,
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        },
    )
    .seed(3)
    .round_cap(4_000_000)
    .run();
    println!("RLNC over the MMV schedule: {:?} rounds", coded.completion_round.unwrap());

    // Routing baseline on the identical schedule.
    let params = Params::scaled(graph.node_count());
    let mut rng = stream_rng(3, 777);
    let (tree, _) = gst::build_gst(
        &graph,
        &[NodeId::new(0)],
        &mut rng,
        &gst::BuildConfig::for_nodes(graph.node_count()),
    );
    let vd = gst::VirtualDistances::compute(&graph, &tree);
    let cfg = ScheduleConfig::from_params(&params);
    let words: Vec<u64> = (0..k as u64).collect();
    let mut sim = Simulator::new(graph.clone(), CollisionMode::NoDetection, 3, |id| {
        let node = RoutingNode::new(cfg, SchedLabels::from_gst(&tree, &vd, id), k);
        if id.index() == 0 {
            node.with_messages(&words)
        } else {
            node
        }
    });
    // Routing completion only advances on packet receptions, so
    // `run_until`'s reception-gated check is exact and skips the O(n)
    // predicate scan in silent rounds.
    let routing = sim
        .run_until(4_000_000, |ns| ns.iter().all(RoutingNode::is_complete))
        .expect("routing completes");
    println!("plain routing, same schedule: {routing} rounds");
}
