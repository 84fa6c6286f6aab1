//! Streamed topologies through the `Scenario` facade: a run over a streamed
//! spec is bit-identical to the same run over its materialization (also
//! under erasure and jammer faults on unit disks, whose streamed
//! neighborhoods are not listed by id), streamed million-node headers replay
//! deterministically on the wake fast path with a tiny resident topology,
//! and the clamps (MultiKnown, churn/mobility) panic with actionable
//! messages instead of silently materializing.

use broadcast::{Algo, BatchMode, Params, Scenario, TopologySpec, Workload};
use radio_sim::model::{Action, Observation};
use radio_sim::{
    CollisionMode, FaultPlan, ImplicitGraph, NodeId, Protocol, Simulator, Topology, Wake,
};
use rand::rngs::SmallRng;
use rlnc::gf2::BitVec;

fn payloads(k: usize) -> Vec<BitVec> {
    (0..k as u64).map(|i| BitVec::from_u64(i * 5 + 2, 16)).collect()
}

fn streamed_specs() -> Vec<TopologySpec> {
    vec![
        TopologySpec::StreamedGrid { w: 6, h: 5 },
        TopologySpec::StreamedUnitDisk { n: 24, radius: 0.45, graph_seed: 7 },
        TopologySpec::StreamedGnp { n: 20, p: 0.25, graph_seed: 7 },
    ]
}

/// Asserts the workload under `faults` over a streamed spec and over that
/// spec's explicit materialization produce the same semantic outcome.
/// `peak_state_bytes` is deliberately excluded: the topology term differs by
/// design.
fn assert_same_outcome(spec: TopologySpec, workload: &Workload, faults: FaultPlan, seed: u64) {
    let label = format!("{}+{}/seed {seed}", spec.label(), faults.label());
    let materialized = Scenario::new(TopologySpec::custom(spec.build()), workload.clone())
        .faults(faults.clone())
        .seed(seed);
    let streamed = Scenario::new(spec, workload.clone()).faults(faults).seed(seed);
    let a = streamed.run();
    let b = materialized.run();
    assert_eq!(a.completion_round, b.completion_round, "{label}: completion diverged");
    assert_eq!(a.cap, b.cap, "{label}: cap diverged");
    assert_eq!(a.phases, b.phases, "{label}: phases diverged");
    assert_eq!(a.stats, b.stats, "{label}: trace diverged");
    assert_eq!(a.audit, b.audit, "{label}: audit diverged");
    assert_eq!(format!("{:?}", a.detail), format!("{:?}", b.detail), "{label}: detail diverged");
    assert!(a.peak_state_bytes > 0 && b.peak_state_bytes > 0, "{label}: peak accounting missing");
}

/// Runs `workload` over streamed unit disks against their materializations
/// under no faults, erasure and a jammer, seeds 0..3. A streamed disk lists
/// its neighbors in cell-scan order and its materialization by id, so these
/// runs agree only if erasure (one coin per receiver, drawn in ascending id
/// order) and jamming do not read the topology's order. Each disk must have
/// an out-of-order list, or the runs would prove nothing.
fn assert_faulted_disks_match(workload: &Workload) {
    for spec in [
        TopologySpec::StreamedUnitDisk { n: 24, radius: 0.45, graph_seed: 7 },
        TopologySpec::StreamedUnitDisk { n: 48, radius: 0.3, graph_seed: 11 },
    ] {
        let disk = spec.streamed().expect("a streamed spec");
        let out_of_order = (0..disk.node_count())
            .filter(|&v| !disk.with_neighbors(NodeId::new(v), <[NodeId]>::is_sorted))
            .count();
        assert!(out_of_order > 0, "{}: every neighborhood is ascending", spec.label());
        for plan in [
            FaultPlan::none(),
            FaultPlan::none().with_erasure(0.05),
            FaultPlan::none().with_jammer(1, 8, 0),
        ] {
            for seed in 0..3 {
                assert_same_outcome(spec.clone(), workload, plan.clone(), seed);
            }
        }
    }
}

#[test]
fn streamed_single_matches_materialized() {
    let workload = Workload::Single { payload: 0xFACE };
    for spec in streamed_specs() {
        assert_same_outcome(spec, &workload, FaultPlan::none(), 3);
    }
    assert_faulted_disks_match(&workload);
}

#[test]
fn streamed_multi_unknown_matches_materialized() {
    let workload = Workload::MultiUnknown { messages: payloads(3), batch: BatchMode::FullK };
    for spec in streamed_specs() {
        assert_same_outcome(spec, &workload, FaultPlan::none(), 1);
    }
    assert_faulted_disks_match(&workload);
}

#[test]
fn streamed_baseline_matches_materialized() {
    assert_same_outcome(
        TopologySpec::StreamedGrid { w: 5, h: 5 },
        &Workload::Baseline(Algo::Decay { payload: 0xD3 }),
        FaultPlan::none(),
        2,
    );
}

#[test]
fn streamed_grid_is_edge_identical_to_dense_grid_spec() {
    // Grid is the one family whose streamed form matches the sequential
    // generator edge-for-edge, so the dense `Grid` spec must replay it too.
    let streamed =
        Scenario::new(TopologySpec::StreamedGrid { w: 6, h: 4 }, Workload::Single { payload: 11 })
            .seed(5)
            .run();
    let dense = Scenario::new(TopologySpec::Grid { w: 6, h: 4 }, Workload::Single { payload: 11 })
        .seed(5)
        .run();
    assert_eq!(streamed.completion_round, dense.completion_round);
    assert_eq!(streamed.stats, dense.stats);
}

#[test]
fn streamed_erasure_faults_work_and_label_pins() {
    // Erasure (and jammer) plans never touch the topology, so they compose
    // with streamed specs; only churn/mobility are clamped.
    let matrix = Scenario::new(
        TopologySpec::StreamedGrid { w: 4, h: 4 },
        Workload::Single { payload: 0xE1 },
    )
    .faults(FaultPlan::none().with_erasure(0.02))
    .seeds(0..3);
    assert!(matrix.label.starts_with("stream:grid(4x4)/"), "label drifted: {}", matrix.label);
    assert!(matrix.label.ends_with("+erase(0.02)"), "fault label drifted: {}", matrix.label);
    assert!(matrix.all_completed(), "lossy streamed runs failed on seeds {:?}", matrix.failures());
}

#[test]
fn dense_streamed_disk_pins_its_rounds_and_transmissions() {
    // Theorem 1.1 on a 5,000-node streamed disk at the million-node run's
    // mean degree (~452) and params: the density where each transmission's
    // neighborhood work, not polling, sets the cost.
    let n = 5_000;
    let mut params = Params::scaled(n);
    params.recruit_iterations = 2 * params.log_n;
    let out = Scenario::new(
        TopologySpec::StreamedUnitDisk { n, radius: 0.1696, graph_seed: 2026 },
        Workload::Single { payload: 0xFEED },
    )
    .params(params)
    .seed(1)
    .run();
    assert_eq!(out.completion_round, Some(9_017), "the dense streamed round pin moved");
    assert_eq!(out.stats.transmissions, 327_149, "the dense streamed transmissions moved");
}

/// A wake-hinted flood: informed nodes transmit every round, everyone else
/// is idle until an observation arrives — so on a million-node graph the
/// engine polls only the active frontier.
#[derive(Debug)]
struct Pulse {
    informed: bool,
}

impl Protocol for Pulse {
    type Msg = u32;
    fn next_wake(&self, _round: u64) -> Wake {
        if self.informed {
            Wake::Now
        } else {
            Wake::Idle
        }
    }
    fn act(&mut self, _round: u64, _rng: &mut SmallRng) -> Action<u32> {
        if self.informed {
            Action::Transmit(0xBEEF)
        } else {
            Action::Listen
        }
    }
    fn observe(&mut self, _round: u64, obs: Observation<u32>, _rng: &mut SmallRng) {
        if matches!(obs, Observation::Message(_)) {
            self.informed = true;
        }
    }
}

fn million_header(rounds: u64) -> radio_sim::RunStats {
    let grid = ImplicitGraph::grid(1000, 1000);
    // The streamed grid must stay orders of magnitude below its CSR cost
    // ((n + 1) * 4 + 2m * 4 ≈ 20 MB for this grid).
    let csr_estimate = (grid.node_count() + 1) * 4 + 2 * 1_998_000 * 4;
    assert!(
        grid.resident_bytes() * 100 < csr_estimate,
        "streamed grid resident {} is not well below the {} byte CSR",
        grid.resident_bytes(),
        csr_estimate
    );
    let mut sim =
        Simulator::new(grid, CollisionMode::Detection, 9, |id| Pulse { informed: id.index() == 0 });
    sim.run(rounds);
    sim.stats().clone()
}

#[test]
fn million_node_streamed_header_replays_bit_identically() {
    // The first rounds of a 1,000,000-node streamed run: deterministic
    // across reruns, and the wake fast path must be doing the work (the
    // sleeping sea of uninformed nodes shows up as act skips).
    let a = million_header(8);
    let b = million_header(8);
    assert_eq!(a, b, "million-node streamed header diverged across reruns");
    assert!(a.act_skips > 0, "wake fast path never engaged: {a:?}");
    assert!(a.deliveries > 0, "the pulse never spread: {a:?}");
}

#[test]
#[should_panic(expected = "needs a materialized graph")]
fn multi_known_on_streamed_panics() {
    use broadcast::{EmptyBehavior, SlowKey};
    let _ = Scenario::new(
        TopologySpec::StreamedGrid { w: 4, h: 4 },
        Workload::MultiKnown {
            messages: payloads(2),
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        },
    )
    .run();
}

#[test]
#[should_panic(expected = "streamed topologies support erasure")]
fn churn_on_streamed_panics() {
    let _ =
        Scenario::new(TopologySpec::StreamedGrid { w: 4, h: 4 }, Workload::Single { payload: 1 })
            .faults(FaultPlan::none().with_churn(4, 0.05, 0.05))
            .run();
}
