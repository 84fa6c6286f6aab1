//! A run is a pure function of (graph, protocol, master seed) — and the
//! engine's wake-list fast path is a faithful replay of the dense sweep:
//! identical observations, statistics and per-node RNG draws.

use broadcast::adaptive::Pacing;
use broadcast::decay::{DecayBroadcast, DecayMsg, MmvDecayBroadcast};
use broadcast::multi_message::{
    broadcast_known, broadcast_unknown, broadcast_unknown_faulted, broadcast_unknown_with,
    BatchMode, KnownRunOpts, MultiRunOpts,
};
use broadcast::single_message::{
    broadcast_single, broadcast_single_faulted, broadcast_single_in_mode, broadcast_single_with,
};
use broadcast::{Params, Scenario, TopologySpec, Workload};
use radio_sim::graph::{generators, Traversal};
use radio_sim::{CollisionMode, DenseWrap, FaultPlan, NodeId, Protocol, RunStats, Simulator};
use rlnc::gf2::BitVec;

/// Runs `make`'s protocol through both engine paths (wake-list vs dense
/// sweep) for `rounds`, returning the per-node extracts and channel stats of
/// each. Any RNG-draw divergence between the paths shows up as a
/// transmission/observation difference, so equal extracts + stats pin the
/// full trace.
fn both_paths<P, S>(
    g: &radio_sim::Graph,
    mode: CollisionMode,
    seed: u64,
    rounds: u64,
    make: impl Fn(NodeId) -> P + Copy,
    extract: impl Fn(&P) -> S,
) -> ((Vec<S>, RunStats), (Vec<S>, RunStats))
where
    P: Protocol,
{
    let mut wake = Simulator::new(g.clone(), mode, seed, make);
    wake.run(rounds);
    let w = (wake.nodes().iter().map(&extract).collect(), wake.stats().clone());
    let mut dense = Simulator::new(g.clone(), mode, seed, |id| DenseWrap(make(id)));
    dense.run(rounds);
    let d = (dense.nodes().iter().map(|n| extract(&n.0)).collect(), dense.stats().clone());
    (w, d)
}

/// Semantic fields of [`RunStats`] (the skip counters differ between paths
/// by design).
fn semantic(s: &RunStats) -> (u64, u64, u64, u64) {
    (s.rounds, s.transmissions, s.deliveries, s.collisions)
}

#[test]
fn decay_wake_list_equals_dense_across_modes_and_seeds() {
    let g = generators::cluster_chain(5, 4);
    let params = Params::scaled(g.node_count());
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in 0..4u64 {
            let ((wn, ws), (dn, ds)) = both_paths(
                &g,
                mode,
                seed,
                1_500,
                |id| DecayBroadcast::new(&params, (id.index() == 0).then_some(DecayMsg(7))),
                DecayBroadcast::informed_at,
            );
            assert_eq!(wn, dn, "informed rounds diverged ({mode:?}, seed {seed})");
            assert_eq!(semantic(&ws), semantic(&ds), "stats diverged ({mode:?}, seed {seed})");
            assert!(ws.act_skips > 0 && ds.act_skips == 0);
        }
    }
}

#[test]
fn mmv_decay_wake_list_equals_dense_across_modes_and_seeds() {
    let g = generators::cluster_chain(4, 4);
    let levels: Vec<u32> = {
        let l = g.bfs(NodeId::new(0));
        g.node_ids().map(|v| l.level(v)).collect()
    };
    let params = Params::scaled(g.node_count());
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in 0..4u64 {
            let ((wn, ws), (dn, ds)) = both_paths(
                &g,
                mode,
                seed,
                2_000,
                |id| {
                    MmvDecayBroadcast::new(
                        &params,
                        levels[id.index()],
                        true,
                        (id.index() == 0).then_some(5),
                    )
                },
                MmvDecayBroadcast::informed_at,
            );
            assert_eq!(wn, dn, "informed rounds diverged ({mode:?}, seed {seed})");
            assert_eq!(semantic(&ws), semantic(&ds), "stats diverged ({mode:?}, seed {seed})");
        }
    }
}

#[test]
fn unknown_topology_adaptive_full_trace_deterministic() {
    // The adaptive driver's phase decisions feed off channel-level
    // quiescence, so completion, phase accounting and the full RunStats must
    // replay exactly.
    let g = generators::cluster_chain(4, 5);
    let params = Params::scaled(20);
    let msgs: Vec<BitVec> = (0..3u64).map(|i| BitVec::from_u64(i, 16)).collect();
    for seed in 0..4u64 {
        let a = broadcast_unknown(&g, NodeId::new(0), &msgs, &params, seed, BatchMode::FullK);
        let b = broadcast_unknown(&g, NodeId::new(0), &msgs, &params, seed, BatchMode::FullK);
        assert_eq!(a.completion_round, b.completion_round, "completion diverged (seed {seed})");
        assert_eq!(a.stats, b.stats, "RunStats diverged (seed {seed})");
        assert_eq!(a.phases, b.phases, "phase accounting diverged (seed {seed})");
        assert!(a.completion_round.is_some(), "seed {seed} failed");
    }
}

/// The sparse-path fields of [`RunStats`] that must agree between segment
/// and per-step pacing (everything except the wake-path skip counters,
/// which differ by design: per-step pacing never skips an act).
fn paced_semantic(s: &RunStats) -> (u64, u64, u64, u64, u64) {
    (s.rounds, s.transmissions, s.deliveries, s.collisions, s.observe_skips)
}

#[test]
fn single_segment_pacing_equals_per_step_across_modes_and_seeds() {
    // The tentpole invariant of the segment scheduler: publishing batched
    // work segments through the wake-hint fast path must replay the
    // per-round-stepped run bit for bit — same completion round, same phase
    // accounting, same channel trace — while actually skipping acts.
    let g = generators::cluster_chain(4, 5);
    let params = Params::scaled(20);
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in 0..4u64 {
            let seg =
                broadcast_single_with(&g, NodeId::new(0), 9, &params, seed, mode, Pacing::Segment);
            let step =
                broadcast_single_with(&g, NodeId::new(0), 9, &params, seed, mode, Pacing::PerStep);
            assert_eq!(
                seg.completion_round, step.completion_round,
                "completion diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(
                paced_semantic(&seg.stats),
                paced_semantic(&step.stats),
                "trace diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(
                seg.phases, step.phases,
                "phase accounting diverged ({mode:?}, seed {seed})"
            );
            assert!(
                seg.stats.act_skips > 0,
                "segment pacing never skipped ({mode:?}, seed {seed})"
            );
            assert_eq!(step.stats.act_skips, 0, "per-step pacing must poll everyone");
            assert_eq!(step.stats.idle_fastforward, 0);
        }
    }
}

#[test]
fn multi_segment_pacing_equals_per_step_across_modes_and_seeds() {
    let g = generators::cluster_chain(4, 5);
    let params = Params::scaled(20);
    let msgs: Vec<BitVec> = (0..3u64).map(|i| BitVec::from_u64(i * 7 + 1, 16)).collect();
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in 0..4u64 {
            let opts = MultiRunOpts::new(BatchMode::FullK).with_mode(mode);
            let seg = broadcast_unknown_with(&g, NodeId::new(0), &msgs, &params, seed, opts);
            let step = broadcast_unknown_with(
                &g,
                NodeId::new(0),
                &msgs,
                &params,
                seed,
                opts.with_pacing(Pacing::PerStep),
            );
            assert_eq!(
                seg.completion_round, step.completion_round,
                "completion diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(
                paced_semantic(&seg.stats),
                paced_semantic(&step.stats),
                "trace diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(
                seg.phases, step.phases,
                "phase accounting diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(seg.audit, step.audit, "schedule audit diverged ({mode:?}, seed {seed})");
            assert!(
                seg.stats.act_skips > 0,
                "segment pacing never skipped ({mode:?}, seed {seed})"
            );
            assert_eq!(step.stats.act_skips, 0, "per-step pacing must poll everyone");
        }
    }
}

#[test]
fn faulted_runs_replay_identically_across_modes_and_seeds() {
    // Fault randomness comes from its own salted streams of the master
    // seed, so a faulted run is as pure a function of (scenario, seed) as a
    // clean one: the full RunStats — channel trace, the erased / jammed /
    // churn_events fault counters, *and* the driver-recorded recovery
    // counters (retries, votes_overturned, ring_repairs, regional_repairs,
    // fallback_rounds) — must replay exactly, for both collision modes,
    // under each fault class.
    let spec = TopologySpec::ClusterChain { clusters: 4, size: 4 };
    let plans = [
        ("erasure", FaultPlan::none().with_erasure(0.15)),
        ("jammer", FaultPlan::none().with_jammer(5, 3, 1)),
        ("churn", FaultPlan::none().with_churn(2, 0.01, 0.05)),
    ];
    let mut recovery_fired = false;
    for (class, plan) in &plans {
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            for seed in 0..4u64 {
                let run = || {
                    Scenario::new(spec.clone(), Workload::Single { payload: 3 })
                        .collision_mode(mode)
                        .seed(seed)
                        .faults(plan.clone())
                        .run()
                };
                let (a, b) = (run(), run());
                assert_eq!(
                    a.completion_round, b.completion_round,
                    "completion diverged ({class}, {mode:?}, seed {seed})"
                );
                assert_eq!(a.stats, b.stats, "RunStats diverged ({class}, {mode:?}, seed {seed})");
                assert_eq!(
                    a.phases, b.phases,
                    "phase accounting diverged ({class}, {mode:?}, seed {seed})"
                );
                let fired = match *class {
                    "erasure" => a.stats.erased,
                    "jammer" => a.stats.jammed,
                    _ => a.stats.churn_events,
                };
                assert!(fired > 0, "{class} never fired ({mode:?}, seed {seed}): {:?}", a.stats);
                recovery_fired |= a.stats.retries
                    + a.stats.votes_overturned
                    + a.stats.ring_repairs
                    + a.stats.regional_repairs
                    + a.stats.fallback_rounds
                    > 0;
            }
        }
    }
    assert!(recovery_fired, "no run in the sweep exercised the recovery machinery");
}

#[test]
fn single_recovery_segment_pacing_equals_per_step() {
    // The recovery machinery (status-beep voting, handoff retries, the
    // no-knowledge fallback) runs through the same segment scheduler as the
    // clean pipeline, so the wake fast path must replay the per-step faulted
    // run exactly — through the fallback transition — with identical
    // recovery counters.
    let g = generators::cluster_chain(4, 5);
    let params = Params::scaled(20);
    let plan = FaultPlan::none().with_jammer(5, 3, 1).with_erasure(0.15);
    let mut recovery_fired = false;
    for seed in 0..4u64 {
        let run = |pacing| {
            broadcast_single_faulted(
                &g,
                NodeId::new(0),
                9,
                &params,
                seed,
                CollisionMode::Detection,
                pacing,
                &plan,
            )
        };
        let (seg, step) = (run(Pacing::Segment), run(Pacing::PerStep));
        assert_eq!(
            seg.completion_round, step.completion_round,
            "completion diverged (seed {seed})"
        );
        assert_eq!(
            paced_semantic(&seg.stats),
            paced_semantic(&step.stats),
            "trace diverged (seed {seed})"
        );
        assert_eq!(seg.phases, step.phases, "phase accounting diverged (seed {seed})");
        assert_eq!(
            recovery_tuple(&seg.stats),
            recovery_tuple(&step.stats),
            "recovery counters diverged (seed {seed})"
        );
        recovery_fired |= recovery_tuple(&seg.stats) != (0, 0, 0, 0, 0);
    }
    assert!(recovery_fired, "no seed exercised the recovery machinery");
}

/// Every driver-recorded recovery counter, as one comparable tuple:
/// (retries, votes_overturned, ring_repairs, regional_repairs,
/// fallback_rounds).
fn recovery_tuple(stats: &radio_sim::RunStats) -> (u64, u64, u64, u64, u64) {
    (
        stats.retries,
        stats.votes_overturned,
        stats.ring_repairs,
        stats.regional_repairs,
        stats.fallback_rounds,
    )
}

#[test]
fn multi_recovery_segment_pacing_equals_per_step() {
    // Same invariant for the Theorem 1.3 pipeline, with the measured-erasure
    // fec-repair adaptation active on a lossy channel.
    let g = generators::cluster_chain(4, 5);
    let params = Params::scaled(20);
    let msgs: Vec<BitVec> = (0..3u64).map(|i| BitVec::from_u64(i * 7 + 1, 16)).collect();
    let plan = FaultPlan::none().with_erasure(0.15);
    let opts = MultiRunOpts::new(BatchMode::FullK).with_fec_repair(2);
    let mut recovery_fired = false;
    for seed in 0..4u64 {
        let run = |pacing| {
            broadcast_unknown_faulted(
                &g,
                NodeId::new(0),
                &msgs,
                &params,
                seed,
                opts.with_pacing(pacing),
                &plan,
            )
        };
        let (seg, step) = (run(Pacing::Segment), run(Pacing::PerStep));
        assert_eq!(
            seg.completion_round, step.completion_round,
            "completion diverged (seed {seed})"
        );
        assert_eq!(
            paced_semantic(&seg.stats),
            paced_semantic(&step.stats),
            "trace diverged (seed {seed})"
        );
        assert_eq!(seg.phases, step.phases, "phase accounting diverged (seed {seed})");
        assert_eq!(
            recovery_tuple(&seg.stats),
            recovery_tuple(&step.stats),
            "recovery counters diverged (seed {seed})"
        );
        recovery_fired |= recovery_tuple(&seg.stats) != (0, 0, 0, 0, 0);
    }
    assert!(recovery_fired, "no seed exercised the recovery machinery");
}

#[test]
fn single_message_deterministic() {
    let g = generators::cluster_chain(4, 5);
    let params = Params::scaled(20);
    let a = broadcast_single(&g, NodeId::new(0), 5, &params, 42).completion_round;
    let b = broadcast_single(&g, NodeId::new(0), 5, &params, 42).completion_round;
    let c = broadcast_single(&g, NodeId::new(0), 5, &params, 43).completion_round;
    assert_eq!(a, b);
    assert!(a.is_some() && c.is_some());
}

#[test]
fn single_message_deterministic_across_modes_and_seeds() {
    // The adaptive driver's phase decisions feed off channel-level
    // quiescence, so the *entire trace* — completion round and the full
    // RunStats (rounds, transmissions, deliveries, collisions, skips) — must
    // be a pure function of (graph, params, mode, master seed). Without CD
    // the wave can jam (completion None); the trace must still replay.
    let g = generators::cluster_chain(4, 5);
    let params = Params::scaled(20);
    for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
        for seed in 0..8u64 {
            let a = broadcast_single_in_mode(&g, NodeId::new(0), 9, &params, seed, mode);
            let b = broadcast_single_in_mode(&g, NodeId::new(0), 9, &params, seed, mode);
            assert_eq!(
                a.completion_round, b.completion_round,
                "completion diverged ({mode:?}, seed {seed})"
            );
            assert_eq!(a.stats, b.stats, "RunStats diverged ({mode:?}, seed {seed})");
            assert_eq!(a.phases, b.phases, "phase accounting diverged ({mode:?}, seed {seed})");
            if mode == CollisionMode::Detection {
                assert!(a.completion_round.is_some(), "seed {seed} failed under CD");
            }
        }
    }
}

#[test]
fn single_message_seeds_differ_somewhere() {
    // Different master seeds must actually produce different traces (the
    // streams are split per node, so this guards against seed plumbing bugs).
    let g = generators::cluster_chain(4, 5);
    let params = Params::scaled(20);
    let traces: Vec<_> = (0..8u64)
        .map(|seed| broadcast_single(&g, NodeId::new(0), 9, &params, seed).stats)
        .collect();
    assert!(traces.windows(2).any(|w| w[0] != w[1]), "all 8 seeds produced identical traces");
}

#[test]
fn known_topology_deterministic() {
    let g = generators::grid(5, 4);
    let params = Params::scaled(20);
    let msgs: Vec<BitVec> = (0..4u64).map(|i| BitVec::from_u64(i, 16)).collect();
    let run = |seed| {
        broadcast_known(
            &g,
            NodeId::new(0),
            &msgs,
            &params,
            seed,
            KnownRunOpts::new().with_max_rounds(500_000),
        )
        .completion_round
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn unknown_topology_deterministic() {
    let g = generators::grid(4, 4);
    let params = Params::scaled(16);
    let msgs: Vec<BitVec> = (0..3u64).map(|i| BitVec::from_u64(i, 16)).collect();
    let run = |seed| {
        broadcast_unknown(&g, NodeId::new(0), &msgs, &params, seed, BatchMode::FullK)
            .completion_round
    };
    assert_eq!(run(9), run(9));
}
