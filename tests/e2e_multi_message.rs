//! End-to-end Theorems 1.2/1.3 through the `Scenario` facade, swept over a
//! seed × topology matrix (failures name the exact cell). The per-node
//! payload checks of the adaptive Theorem 1.3 driver live in
//! `multi_message`'s unit tests, which can reach the nodes.

use broadcast::multi_message::BatchMode;
use broadcast::{EmptyBehavior, Scenario, SlowKey, TopologySpec, Workload};
use rlnc::gf2::BitVec;

fn payloads(k: usize) -> Vec<BitVec> {
    (0..k as u64).map(|i| BitVec::from_u64(i * 11 + 3, 24)).collect()
}

fn known_topologies() -> Vec<(&'static str, TopologySpec)> {
    vec![
        ("grid", TopologySpec::Grid { w: 5, h: 5 }),
        ("cluster_chain", TopologySpec::ClusterChain { clusters: 4, size: 5 }),
    ]
}

#[test]
fn known_topology_decodes_exact_payloads() {
    for (name, spec) in known_topologies() {
        let matrix = Scenario::new(
            spec,
            Workload::MultiKnown {
                messages: payloads(6),
                slow_key: SlowKey::VirtualDistance,
                empty: EmptyBehavior::Silent,
            },
        )
        .seeds(0..3);
        for run in &matrix.runs {
            assert!(
                run.outcome.completion_round.is_some(),
                "topology {name} seed {}: timed out",
                run.seed
            );
        }
    }
}

#[test]
fn unknown_topology_with_generations_decodes() {
    let matrix = Scenario::new(
        TopologySpec::Grid { w: 4, h: 4 },
        Workload::MultiUnknown { messages: payloads(6), batch: BatchMode::Generations(2) },
    )
    .seeds(0..3);
    assert!(matrix.all_completed(), "generations runs timed out on seeds {:?}", matrix.failures());
}

#[test]
fn mmv_noise_mode_still_completes() {
    // Lemma 3.3 stress: empty-decoder nodes transmit noise.
    let scenario = Scenario::new(
        TopologySpec::ClusterChain { clusters: 4, size: 4 },
        Workload::MultiKnown {
            messages: payloads(4),
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Noise,
        },
    );
    for seed in [4u64, 7] {
        let out = scenario.clone().seed(seed).run();
        assert!(out.completion_round.is_some(), "seed {seed}: noise-mode run timed out");
    }
}
