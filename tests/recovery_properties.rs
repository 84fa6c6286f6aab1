//! Property tests for the staged recovery ladder's counter invariants
//! (`RunStats::{ring_repairs, regional_repairs, fallback_rounds}` and the
//! rung-3 entry round in `Detail`), over randomized topologies, seeds and
//! fault plans:
//!
//! * **Clean runs complete within their cap.** A fault-free run follows the
//!   same failure rule as a faulted one (a handoff that runs out is retried
//!   and repaired, a run that ends incomplete climbs the ladder), so it
//!   completes within its worst-case cap with every round accounted to a
//!   phase, never overturns a status vote (every clean read decides
//!   itself), and climbs any rungs it needs in order.
//! * **Rungs are monotone.** The ladder escalates strictly in order:
//!   nonzero `fallback_rounds` implies a rung-2 regional repair was
//!   attempted, which implies a rung-1 ring repair was attempted. A run
//!   that flooded without first trying local repair is the regression this
//!   property exists to catch.
//! * **Counters replay bit-identically.** A faulted run is a pure function
//!   of (scenario, seed): re-running it must reproduce the full `RunStats`
//!   including every recovery counter, for randomly drawn fault plans (the
//!   fixed-plan matrix lives in `tests/determinism.rs`).

use broadcast::multi_message::BatchMode;
use broadcast::{Detail, Outcome, Scenario, TopologySpec, Workload};
use proptest::prelude::*;
use radio_sim::{FaultPlan, RunStats};
use rlnc::gf2::BitVec;

/// A small random topology: cluster chains and grids cover deep and
/// shallow diameter regimes without making proptest cases expensive.
fn topology(pick: u8, a: usize, b: usize) -> TopologySpec {
    if pick % 2 == 0 {
        TopologySpec::ClusterChain { clusters: 2 + a % 4, size: 3 + b % 3 }
    } else {
        TopologySpec::Grid { w: 3 + a % 3, h: 3 + b % 3 }
    }
}

/// A random single-class fault plan harsh enough to exercise the ladder on
/// some draws (jammers sit near the middle of every generated topology).
fn random_plan(pick: u8, p: f64, period: u64) -> FaultPlan {
    match pick % 4 {
        0 => FaultPlan::none().with_erasure(0.05 + p * 0.25),
        1 => FaultPlan::none().with_jammer(4, 1 + period % 3, 0),
        2 => FaultPlan::none().with_churn(1 + period % 2, 0.0, 0.005 + p * 0.02),
        _ => FaultPlan::none().with_erasure(0.1 + p * 0.2).with_jammer(4, 2, 0),
    }
}

/// The ladder/fallback counters of a run.
fn rungs(stats: &RunStats) -> (u64, u64, u64) {
    (stats.ring_repairs, stats.regional_repairs, stats.fallback_rounds)
}

/// The rung-3 entry round recorded in the typed detail (`None` for
/// workloads without a recovery ladder).
fn fallback_entry(detail: &Detail) -> Option<u64> {
    match detail {
        Detail::Single { fallback_entry, .. } => *fallback_entry,
        Detail::MultiUnknown { fallback_entry, .. } => *fallback_entry,
        _ => None,
    }
}

/// The ladder's order, which every run keeps: the global flood only after a
/// regional attempt, regional only after a ring-local attempt, and the
/// rung-3 entry round recorded exactly when the flood ran, never after
/// completion.
fn assert_rungs_in_order(out: &Outcome) {
    let (ring, regional, fallback) = rungs(&out.stats);
    if fallback > 0 {
        assert!(regional > 0, "fallback without a rung-2 attempt: {:?}", out.stats);
    }
    if regional > 0 {
        assert!(ring > 0, "rung 2 without a rung-1 attempt: {:?}", out.stats);
    }
    let entry = fallback_entry(&out.detail);
    assert_eq!(entry.is_some(), fallback > 0, "fallback_entry out of sync");
    if let (Some(entry), Some(done)) = (entry, out.completion_round) {
        assert!(entry <= done, "rung 3 armed after completion");
    }
}

/// What every fault-free run holds: completion within the cap, every
/// executed round in the phase accounting, no overturned vote, and any
/// rungs climbed in order.
fn assert_clean_run_completes(out: &Outcome) {
    assert!(
        out.completed_within_cap(),
        "clean run: completion {:?} vs cap {} (phases {:?}, stats {:?})",
        out.completion_round,
        out.cap,
        out.phases,
        out.stats
    );
    assert_eq!(out.phases.total(), out.stats.rounds, "phase accounting missed rounds");
    assert_eq!(out.stats.votes_overturned, 0, "a clean status read was overturned");
    assert_rungs_in_order(out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn clean_runs_complete_within_their_cap(
        pick in 0u8..4, a in 0usize..8, b in 0usize..8, seed in 0u64..500,
    ) {
        let out = Scenario::new(topology(pick, a, b), Workload::Single { payload: 7 })
            .seed(seed)
            .run();
        assert_clean_run_completes(&out);
    }

    #[test]
    fn clean_multi_runs_complete_within_their_cap(
        pick in 0u8..4, a in 0usize..8, seed in 0u64..500,
    ) {
        let msgs: Vec<BitVec> = (0..3u64).map(|i| BitVec::from_u64(i * 5 + 1, 16)).collect();
        let out = Scenario::new(
            topology(pick, a, a),
            Workload::MultiUnknown { messages: msgs, batch: BatchMode::FullK },
        )
        .seed(seed)
        .run();
        assert_clean_run_completes(&out);
    }

    #[test]
    fn ladder_rungs_are_monotone_and_replay_exactly(
        tpick in 0u8..4, a in 0usize..8, b in 0usize..8,
        fpick in 0u8..4, p in 0.0f64..1.0, period in 1u64..4,
        seed in 0u64..500,
    ) {
        let scenario = Scenario::new(topology(tpick, a, b), Workload::Single { payload: 7 })
            .faults(random_plan(fpick, p, period))
            .seed(seed);
        let out = scenario.clone().run();
        assert_rungs_in_order(&out);
        // Faulted runs are pure functions of (scenario, seed).
        let replay = scenario.run();
        prop_assert_eq!(out.completion_round, replay.completion_round, "completion diverged");
        prop_assert_eq!(&out.stats, &replay.stats, "recovery counters diverged on replay");
    }
}
