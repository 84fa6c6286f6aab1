//! The `Scenario` facade: cap compliance across a topology × workload × seed
//! matrix, one digest pinning the adaptive pipelines' traces across a
//! topology × workload × fault-plan × collision-mode × seed matrix, the Decay
//! baseline replaying a hand-rolled simulator loop on both collision modes,
//! the emergency-alert corridor staying at exactly 677 rounds, and the pacing
//! knob reaching the drivers.

use broadcast::decay::{DecayBroadcast, DecayMsg};
use broadcast::{
    Algo, BatchMode, Detail, EmptyBehavior, Outcome, Pacing, Params, Scenario, SlowKey,
    TopologySpec, Workload,
};
use radio_sim::{CollisionMode, FaultPlan, Simulator};
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

/// FNV-1a over the little-endian bytes of `v`.
fn fnv1a(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds the trace-defining fields of an adaptive run into `hash`: the
/// completion round, the cap, every phase count, the schedule audit, the
/// rung-3 fallback entry and the channel statistics. Left out are the
/// host-side wake-hint counters (`act_skips`, `idle_fastforward`), the
/// struct-size-dependent `peak_state_bytes`, and the plan and construction
/// fallback count of `Detail`.
fn digest_outcome(hash: &mut u64, out: &Outcome) {
    let opt = |r: Option<u64>| r.map_or(0, |r| r + 1);
    let fallback_entry = match &out.detail {
        Detail::Single { fallback_entry, .. } | Detail::MultiUnknown { fallback_entry, .. } => {
            *fallback_entry
        }
        other => panic!("not an adaptive outcome: {other:?}"),
    };
    let p = &out.phases;
    let a = &out.audit;
    let s = &out.stats;
    for v in [
        opt(out.completion_round),
        out.cap,
        p.wave,
        p.construct,
        p.label,
        p.disseminate,
        p.handoff,
        p.repair,
        p.fallback,
        p.status,
        a.fast_collisions_bystander,
        a.fast_collisions_in_stretch,
        a.slow_collisions,
        opt(fallback_entry),
        s.rounds,
        s.transmissions,
        s.deliveries,
        s.collisions,
        s.observe_skips,
        s.erased,
        s.jammed,
        s.churn_events,
        s.retries,
        s.votes_overturned,
        s.fallback_rounds,
        s.ring_repairs,
        s.regional_repairs,
    ] {
        fnv1a(hash, v);
    }
}

#[test]
fn adaptive_traces_match_the_pinned_digest() {
    // Theorems 1.1 and 1.3 over every matrix topology plus a streamed grid,
    // clean and under each fault class, on both collision modes: one digest
    // pins every run's round sequence, so a refactor of the adaptive
    // pipelines that moves a single round, transmission or repair fails
    // here (in debug builds `hint_checked_act` also checks the wake hints).
    // Every cell also completes within its cap, the fault-free
    // no-detection ones through the recovery ladder.
    let messages: Vec<BitVec> =
        (0..4u64).map(|i| BitVec::from_u64(0x9E37_79B9u64.wrapping_mul(i + 1) >> 32, 32)).collect();
    let workloads = [
        Workload::Single { payload: 0xFACE },
        Workload::MultiUnknown { messages: messages.clone(), batch: BatchMode::FullK },
        Workload::MultiUnknown { messages, batch: BatchMode::Generations(2) },
    ];
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().with_erasure(0.2),
        FaultPlan::none().with_jammer(1, 3, 0),
        FaultPlan::none().with_mobility(0.5, 16),
    ];
    let mut topologies = matrix_topologies();
    topologies.push(TopologySpec::StreamedGrid { w: 12, h: 10 });
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut runs = 0;
    for spec in &topologies {
        for workload in &workloads {
            for plan in &plans {
                for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
                    for seed in 0..2 {
                        let scenario = Scenario::new(spec.clone(), workload.clone())
                            .faults(plan.clone())
                            .collision_mode(mode)
                            .seed(seed);
                        if scenario.validate().is_err() {
                            continue;
                        }
                        let out = scenario.run();
                        assert!(
                            out.completed_within_cap(),
                            "{} {mode:?} seed {seed}: completion {:?} vs cap {}",
                            scenario.label(),
                            out.completion_round,
                            out.cap
                        );
                        digest_outcome(&mut hash, &out);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 372, "the matrix lost or gained cells");
    assert_eq!(hash, 0x7cd8_764a_7aa3_5d37, "an adaptive trace changed");
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
            let legacy = sim.run_until(5_000_000, |ns| ns.iter().all(DecayBroadcast::is_informed));
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
