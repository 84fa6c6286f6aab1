//! The `Scenario` facade: cap compliance across a topology × workload × seed
//! matrix, and bit-identity against the legacy free functions on both
//! collision modes (the facade is a front door, not a different run —
//! including the emergency-alert corridor staying at exactly 677 rounds).

use broadcast::decay::{DecayBroadcast, DecayMsg};
use broadcast::multi_message::{
    broadcast_known, broadcast_unknown_with, BatchMode, KnownRunOpts, MultiRunOpts,
};
use broadcast::single_message::broadcast_single_with;
use broadcast::{
    Algo, Detail, EmptyBehavior, Pacing, Params, Scenario, SlowKey, TopologySpec, Workload,
};
use radio_sim::{CollisionMode, DoneCheck, NodeId, Simulator};
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
fn single_matches_legacy_on_both_modes() {
    let spec = TopologySpec::ClusterChain { clusters: 4, size: 5 };
    let g = spec.build();
    let params = Params::scaled(g.node_count());
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in [0u64, 3] {
            let legacy =
                broadcast_single_with(&g, NodeId::new(0), 9, &params, seed, mode, Pacing::Segment);
            let facade = Scenario::new(spec.clone(), Workload::Single { payload: 9 })
                .collision_mode(mode)
                .seed(seed)
                .run();
            assert_eq!(
                facade.completion_round, legacy.completion_round,
                "completion diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(facade.stats, legacy.stats, "trace diverged ({mode:?}, seed {seed})");
            assert_eq!(facade.audit, legacy.audit, "audit diverged ({mode:?}, seed {seed})");
            assert_eq!(facade.cap, legacy.cap);
            assert_eq!(facade.phases, legacy.phases);
            let (
                Detail::Single { plan, fallbacks, fallback_entry },
                Detail::Single { plan: l_plan, fallbacks: l_fallbacks, fallback_entry: l_entry },
            ) = (facade.detail, legacy.detail)
            else {
                panic!("wrong detail arm")
            };
            assert_eq!(facade.cap, plan.total_rounds());
            assert_eq!(plan, l_plan);
            assert_eq!(fallbacks, l_fallbacks);
            assert_eq!(fallback_entry, l_entry);
        }
    }
}

#[test]
fn multi_unknown_matches_legacy_on_both_modes() {
    let spec = TopologySpec::ClusterChain { clusters: 4, size: 4 };
    let g = spec.build();
    let params = Params::scaled(g.node_count());
    let msgs = payloads(3);
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in [1u64, 4] {
            let legacy = broadcast_unknown_with(
                &g,
                NodeId::new(0),
                &msgs,
                &params,
                seed,
                MultiRunOpts::new(BatchMode::FullK).with_mode(mode),
            );
            let facade = Scenario::new(
                spec.clone(),
                Workload::MultiUnknown { messages: msgs.clone(), batch: BatchMode::FullK },
            )
            .collision_mode(mode)
            .seed(seed)
            .run();
            assert_eq!(
                facade.completion_round, legacy.completion_round,
                "completion diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(facade.stats, legacy.stats, "trace diverged ({mode:?}, seed {seed})");
            assert_eq!(facade.audit, legacy.audit, "audit diverged ({mode:?}, seed {seed})");
            assert_eq!(facade.cap, legacy.cap);
            assert_eq!(facade.phases, legacy.phases);
        }
    }
}

#[test]
fn multi_known_matches_legacy_on_both_modes() {
    let spec = TopologySpec::Grid { w: 4, h: 4 };
    let g = spec.build();
    let params = Params::scaled(g.node_count());
    let msgs = payloads(4);
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in [2u64, 6] {
            let legacy = broadcast_known(
                &g,
                NodeId::new(0),
                &msgs,
                &params,
                seed,
                KnownRunOpts::new().with_mode(mode),
            );
            let facade = Scenario::new(
                spec.clone(),
                Workload::MultiKnown {
                    messages: msgs.clone(),
                    slow_key: SlowKey::VirtualDistance,
                    empty: EmptyBehavior::Silent,
                },
            )
            .collision_mode(mode)
            .seed(seed)
            .run();
            assert_eq!(
                facade.completion_round, legacy.completion_round,
                "completion diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(facade.stats, legacy.stats, "trace diverged ({mode:?}, seed {seed})");
            assert_eq!(facade.audit, legacy.audit, "audit diverged ({mode:?}, seed {seed})");
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
