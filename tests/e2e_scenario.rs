//! The `Scenario` facade: cap compliance across a topology × workload × seed
//! matrix, the Decay baseline replaying a hand-rolled simulator loop on both
//! collision modes, the emergency-alert corridor staying at exactly 677
//! rounds, and the pacing knob reaching the drivers.

use broadcast::decay::{DecayBroadcast, DecayMsg};
use broadcast::{
    Algo, BatchMode, EmptyBehavior, Pacing, Params, Scenario, SlowKey, TopologySpec, Workload,
};
use radio_sim::{CollisionMode, DoneCheck, Simulator};
use rlnc::gf2::BitVec;

fn payloads(k: usize) -> Vec<BitVec> {
    (0..k as u64).map(|i| BitVec::from_u64(i * 5 + 2, 16)).collect()
}

fn matrix_topologies() -> Vec<TopologySpec> {
    vec![
        TopologySpec::Path { n: 12 },
        TopologySpec::Grid { w: 4, h: 4 },
        TopologySpec::Star { n: 10 },
        TopologySpec::ClusterChain { clusters: 3, size: 4 },
        TopologySpec::BinaryTree { n: 15 },
        TopologySpec::Gnp { n: 20, p: 0.25, graph_seed: 7 },
        TopologySpec::UnitDisk { n: 24, radius: 0.45, graph_seed: 7 },
    ]
}

fn matrix_workloads() -> Vec<Workload> {
    vec![
        Workload::Single { payload: 0xFACE },
        Workload::MultiKnown {
            messages: payloads(3),
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        },
        Workload::MultiUnknown { messages: payloads(3), batch: BatchMode::FullK },
        Workload::Baseline(Algo::Decay { payload: 0xFACE }),
        Workload::Baseline(Algo::MmvDecay { payload: 0xFACE, noise: true }),
    ]
}

#[test]
fn matrix_completes_within_caps() {
    // Every (topology, workload, seed) cell must complete and respect its
    // worst-case cap; a failure names the exact cell.
    for spec in matrix_topologies() {
        for workload in matrix_workloads() {
            let scenario = Scenario::new(spec.clone(), workload);
            let matrix = scenario.seeds(0..2);
            for run in &matrix.runs {
                assert!(
                    run.outcome.completed_within_cap(),
                    "{} seed {}: completion {:?} vs cap {} (phases {:?})",
                    matrix.label,
                    run.seed,
                    run.outcome.completion_round,
                    run.outcome.cap,
                    run.outcome.phases
                );
                assert_eq!(
                    run.outcome.phases.total(),
                    run.outcome.stats.rounds,
                    "{} seed {}: phase accounting must cover every executed round",
                    matrix.label,
                    run.seed
                );
            }
        }
    }
}

#[test]
fn baseline_decay_matches_hand_rolled_loop_on_both_modes() {
    let spec = TopologySpec::ClusterChain { clusters: 5, size: 4 };
    let g = spec.build();
    let params = Params::scaled(g.node_count());
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in [0u64, 5] {
            let mut sim = Simulator::new(g.clone(), mode, seed, |id| {
                DecayBroadcast::new(&params, (id.index() == 0).then_some(DecayMsg(3)))
            });
            let legacy = sim.run_until_with(5_000_000, DoneCheck::OnDelivery, |ns| {
                ns.iter().all(DecayBroadcast::is_informed)
            });
            let facade =
                Scenario::new(spec.clone(), Workload::Baseline(Algo::Decay { payload: 3 }))
                    .collision_mode(mode)
                    .seed(seed)
                    .run();
            assert_eq!(
                facade.completion_round, legacy,
                "completion diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(facade.stats, sim.stats().clone(), "trace diverged ({mode:?}, seed {seed})");
        }
    }
}

#[test]
fn corridor_pin_stays_exactly_677() {
    // The emergency-alert corridor at seed 1 has completed in exactly 677
    // rounds since PR 2; the facade must not perturb a single round.
    let out = Scenario::new(
        TopologySpec::ClusterChain { clusters: 20, size: 6 },
        Workload::Single { payload: 0xA1E57 },
    )
    .seed(1)
    .run();
    assert_eq!(
        out.completion_round,
        Some(677),
        "the corridor round sequence changed (phases {:?})",
        out.phases
    );
}

#[test]
fn pacing_knob_reaches_the_drivers() {
    // Per-step pacing must replay the segment-paced run exactly while
    // polling every node (no act skips) — through the facade.
    let spec = TopologySpec::ClusterChain { clusters: 3, size: 4 };
    let seg = Scenario::new(spec.clone(), Workload::Single { payload: 2 }).seed(4).run();
    let step =
        Scenario::new(spec, Workload::Single { payload: 2 }).pacing(Pacing::PerStep).seed(4).run();
    assert_eq!(seg.completion_round, step.completion_round);
    assert_eq!(seg.phases, step.phases);
    assert!(seg.stats.act_skips > 0, "segment pacing never skipped");
    assert_eq!(step.stats.act_skips, 0, "per-step pacing must poll everyone");
}
