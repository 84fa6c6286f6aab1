//! Fault-free Theorem 1.3 runs that stall. A node at the outer level of a
//! width-2 ring can miss a batch when its GF(2) decoder stops one rank
//! short: its window's probe keeps beeping until the budget runs out. The
//! driver's failure rule does not depend on a fault plan, so such a run
//! retries a handoff that ran out and climbs the recovery ladder (ring-local
//! repair, regional re-dissemination, the no-knowledge flood) instead of
//! ending incomplete.
//!
//! Every pinned input ends incomplete if the ladder is armed only under a
//! fault plan. The sweep covers the seeds over which such stalls were
//! counted (0..300); a debug build sweeps a prefix that still holds a
//! stalling seed of every grid case.

use broadcast::{BatchMode, Scenario, TopologySpec, Workload};
use rlnc::gf2::BitVec;
use sweep::{SweepPool, SweepProduct};

/// A `MultiUnknown` scenario of `k` 32-bit messages `0xBEE0 + i`.
fn scenario(topology: TopologySpec, k: u64, batch: BatchMode) -> Scenario {
    let messages = (0..k).map(|i| BitVec::from_u64(0xBEE0 + i, 32)).collect();
    Scenario::new(topology, Workload::MultiUnknown { messages, batch })
}

fn gnp() -> TopologySpec {
    TopologySpec::Gnp { n: 60, p: 0.1, graph_seed: 5 }
}

/// The swept cases: each stalled on some seeds of `0..300`.
fn stall_cases() -> Vec<Scenario> {
    let grid = |w, h| TopologySpec::Grid { w, h };
    vec![
        scenario(grid(8, 8), 16, BatchMode::Generations(4)),
        scenario(grid(8, 8), 8, BatchMode::FullK),
        scenario(grid(6, 6), 8, BatchMode::FullK),
        scenario(grid(6, 6), 8, BatchMode::Generations(4)),
        scenario(grid(4, 16), 8, BatchMode::FullK),
        scenario(grid(4, 16), 16, BatchMode::Generations(4)),
        scenario(gnp(), 8, BatchMode::FullK),
        scenario(gnp(), 16, BatchMode::Generations(4)),
    ]
}

#[test]
fn formerly_stalled_runs_complete_at_their_pinned_rounds() {
    // (scenario, seed, completion round, handoff retries). Every run reaches
    // rung 1. The two that retry ran a handoff out and finish on rung 1; the
    // others end their last window incomplete and finish on the rung-3
    // flood. The last input (three 16-bit messages on `grid(4x4)`) is a
    // stall that the clean multi property of `tests/recovery_properties.rs`
    // found.
    let cases = stall_cases();
    let chain = TopologySpec::ClusterChain { clusters: 12, size: 6 };
    let small = (0..3u64).map(|i| BitVec::from_u64(i * 5 + 1, 16)).collect();
    let grid4 = Scenario::new(
        TopologySpec::Grid { w: 4, h: 4 },
        Workload::MultiUnknown { messages: small, batch: BatchMode::FullK },
    );
    let pins = [
        (cases[0].clone(), 1, 9_951, 0),
        (cases[1].clone(), 7, 7_664, 0),
        (cases[2].clone(), 12, 6_487, 1),
        (cases[3].clone(), 10, 4_347, 0),
        (cases[4].clone(), 8, 7_598, 0),
        (cases[5].clone(), 0, 7_844, 0),
        (cases[6].clone(), 73, 3_330, 0),
        (cases[7].clone(), 64, 4_337, 0),
        (scenario(chain, 16, BatchMode::Generations(4)), 1_000_343, 7_368, 1),
        (grid4, 34, 1_197, 0),
    ];
    for (scenario, seed, rounds, retries) in pins {
        let out = scenario.clone().seed(seed).run();
        let label = scenario.label();
        assert_eq!(out.completion_round, Some(rounds), "{label} seed {seed}: {:?}", out.stats);
        assert!(out.completed_within_cap(), "{label} seed {seed}: cap {}", out.cap);
        assert_eq!(out.phases.total(), out.stats.rounds, "{label} seed {seed}: phase accounting");
        let s = &out.stats;
        assert_eq!((s.retries, s.ring_repairs), (retries, 1), "{label} seed {seed}: {s:?}");
        assert_eq!(s.fallback_rounds > 0, retries == 0, "{label} seed {seed}: {s:?}");
    }
}

#[test]
fn stall_cases_complete_on_every_swept_seed() {
    // 2,400 runs take seconds optimized. The debug prefix holds stalling
    // seeds 1, 7, 12, 10, 8 and 0 of the six grid cases; the gnp cases'
    // stalling seeds are pinned above.
    let seeds = if cfg!(debug_assertions) { 0..20 } else { 0..300 };
    let product = SweepProduct::new().scenarios(stall_cases()).seeds(seeds);
    // Labels do not name k or the batch mode, so failures name the case.
    for (case, matrix) in SweepPool::new().run(&product).iter().enumerate() {
        for run in &matrix.runs {
            assert!(
                run.outcome.completed_within_cap(),
                "case {case} ({}) seed {}: completion {:?} vs cap {} (stats {:?})",
                matrix.label,
                run.seed,
                run.outcome.completion_round,
                run.outcome.cap,
                run.outcome.stats
            );
        }
    }
}
