//! Round-count regression pins for the adaptive pipelines, declared through
//! the `Scenario` facade.
//!
//! Each scenario pins its workload to an explicit round *budget* (roughly 2x
//! the worst completion round observed over 10 master seeds at the time the
//! budget was set), so a future change that silently degrades the adaptive
//! pipeline's constants fails tier-1 instead of passing. The budgets are
//! orders of magnitude below the worst-case caps — that gap *is* the
//! adaptivity win — and every run is also asserted against the cap itself
//! (`Outcome::cap`, the plan's `total_rounds()`), which the paper
//! guarantees.

use broadcast::multi_message::BatchMode;
use broadcast::{Algo, Scenario, TopologySpec, Workload};
use rlnc::gf2::BitVec;

/// Runs the Theorem 1.1 pipeline over the seed range and enforces both the
/// regression budget and the worst-case cap, reporting the failing seed.
fn assert_within_budget(name: &str, spec: TopologySpec, seeds: std::ops::Range<u64>, budget: u64) {
    let matrix = Scenario::new(spec, Workload::Single { payload: 0xBEEF }).seeds(seeds);
    for run in &matrix.runs {
        let (seed, out) = (run.seed, &run.outcome);
        let done = out
            .completion_round
            .unwrap_or_else(|| panic!("{name} seed {seed}: no completion within cap {}", out.cap));
        assert!(
            done <= budget,
            "{name} seed {seed}: {done} rounds exceeds the regression budget {budget} \
             (phases: {:?})",
            out.phases
        );
        assert!(
            done <= out.cap,
            "{name} seed {seed}: {done} rounds exceeds the worst-case cap {}",
            out.cap
        );
        assert!(
            out.stats.act_skips > 0,
            "{name} seed {seed}: the segment scheduler never skipped an act \
             (wake-hint fast path disengaged; stats: {:?})",
            out.stats
        );
    }
}

#[test]
fn corridor_mesh_budget() {
    // The emergency-alert scenario: 20 blocks of 6 radios, diameter 39.
    // Fixed windows used to need ~5.8M rounds here; adaptive worst observed
    // over seeds 0..10 was 1073.
    assert_within_budget(
        "corridor",
        TopologySpec::ClusterChain { clusters: 20, size: 6 },
        0..5,
        2_200,
    );
}

#[test]
fn geometric_deployment_budget() {
    // A dense unit-disk deployment (n = 80, D = 8). Worst observed: 2474.
    assert_within_budget(
        "unit_disk",
        TopologySpec::UnitDisk { n: 80, radius: 0.18, graph_seed: 2024 },
        0..5,
        4_800,
    );
}

#[test]
fn cluster_chain_budget() {
    // A small cluster chain (n = 30, D = 11). Worst observed: 515.
    assert_within_budget(
        "cluster_chain",
        TopologySpec::ClusterChain { clusters: 6, size: 5 },
        0..5,
        1_100,
    );
}

/// The completion round of one BGI Decay run (the baseline all pins are
/// phrased against), through the same facade.
fn decay_rounds(spec: TopologySpec, seed: u64) -> u64 {
    Scenario::new(spec, Workload::Baseline(Algo::Decay { payload: 1 }))
        .seed(seed)
        .run()
        .completion_round
        .expect("Decay completes")
}

#[test]
fn corridor_ghk_within_10x_of_decay() {
    // The headline acceptance bound: on the corridor mesh, collision
    // detection plus the adaptive pipeline must land within a small constant
    // factor of the Decay baseline (it used to be ~40,000x slower).
    let spec = TopologySpec::ClusterChain { clusters: 20, size: 6 };
    for seed in 0..3u64 {
        let ghk = Scenario::new(spec.clone(), Workload::Single { payload: 0xA1E57 })
            .seed(seed)
            .run()
            .completion_round
            .expect("GHK completes");
        let decay = decay_rounds(spec.clone(), seed);
        assert!(
            ghk <= decay * 10,
            "seed {seed}: GHK-CD took {ghk} rounds vs Decay's {decay} (> 10x)"
        );
    }
}

/// Pins the adaptive Theorem 1.3 pipeline to a round budget (≈2x the worst
/// completion observed over 8 seeds when the budget was set), to a multiple
/// of the single-message Decay baseline, and to the plan's worst-case cap.
fn assert_multi_within_budget(
    name: &str,
    spec: TopologySpec,
    k: usize,
    batch: BatchMode,
    seeds: std::ops::Range<u64>,
    budget: u64,
    decay_multiple: u64,
) {
    let msgs: Vec<BitVec> = (0..k as u64).map(|i| BitVec::from_u64(0xBEE0 + i, 32)).collect();
    let matrix =
        Scenario::new(spec.clone(), Workload::MultiUnknown { messages: msgs, batch }).seeds(seeds);
    for run in &matrix.runs {
        let (seed, out) = (run.seed, &run.outcome);
        let done = out
            .completion_round
            .unwrap_or_else(|| panic!("{name} seed {seed}: no completion within cap {}", out.cap));
        assert!(
            done <= budget,
            "{name} seed {seed}: {done} rounds exceeds the regression budget {budget} \
             (phases: {:?})",
            out.phases
        );
        assert!(
            done <= out.cap,
            "{name} seed {seed}: {done} rounds exceeds the worst-case cap {}",
            out.cap
        );
        assert!(
            out.stats.act_skips > 0,
            "{name} seed {seed}: the segment scheduler never skipped an act \
             (wake-hint fast path disengaged; stats: {:?})",
            out.stats
        );
        let decay = decay_rounds(spec.clone(), seed);
        assert!(
            done <= decay * decay_multiple,
            "{name} seed {seed}: {done} rounds vs Decay's {decay} (> {decay_multiple}x)"
        );
    }
}

#[test]
fn telemetry_backhaul_multi_budget() {
    // The telemetry-backhaul scenario: 8 frames, FullK, across a 36-node
    // cluster chain. Fixed windows used to need ~585k rounds here (the
    // construction phase executed verbatim); adaptive worst observed over
    // seeds 0..8 was 3569.
    assert_multi_within_budget(
        "telemetry",
        TopologySpec::ClusterChain { clusters: 6, size: 6 },
        8,
        BatchMode::FullK,
        0..3,
        7_000,
        250,
    );
}

#[test]
fn firmware_grid_multi_budget() {
    // The firmware-update topology: a warehouse grid with generation-sized
    // batches pipelined across narrow rings. Worst observed over seeds 0..8
    // was 6311.
    assert_multi_within_budget(
        "firmware_grid",
        TopologySpec::Grid { w: 6, h: 6 },
        8,
        BatchMode::Generations(4),
        0..3,
        12_500,
        600,
    );
}

#[test]
fn fallback_rounds_stay_on_the_wake_fast_path() {
    // The rung-3 Decay fallback runs as one `run_until` segment: its
    // completion scan is gated on a reception having happened, so fallback
    // rounds ride the same wake-hint fast path as the clean pipeline rather
    // than polling every node every round. Pin a
    // fallback-heavy faulted run (corridor churn, seed 1 spends ~470 rounds
    // in rung 3) and require the segment scheduler to keep skipping acts
    // while the ladder and fallback execute.
    let out = Scenario::new(
        TopologySpec::ClusterChain { clusters: 20, size: 6 },
        Workload::Single { payload: 0xA1E57 },
    )
    .faults(radio_sim::FaultPlan::none().with_churn(1, 0.0, 0.01))
    .seed(1)
    .run();
    assert!(
        out.stats.fallback_rounds > 0,
        "scenario no longer reaches the rung-3 fallback (stats: {:?})",
        out.stats
    );
    assert!(
        out.completion_round.is_some(),
        "fallback must still complete the broadcast (cap {})",
        out.cap
    );
    assert!(
        out.stats.act_skips > 0,
        "fallback fell off the wake-hint fast path: act_skips == 0 with \
         {} fallback rounds (dense per-round completion scanning)",
        out.stats.fallback_rounds
    );
}

#[test]
fn adaptive_caps_stay_polylog_above_diameter() {
    // The cap itself must keep the O(D + polylog) shape: doubling D at fixed
    // n must grow the cap by ~O(D), not multiply it.
    let params = broadcast::Params::scaled(128);
    let short = broadcast::single_message::Ghk1Plan::new(&params, 20).total_rounds();
    let long = broadcast::single_message::Ghk1Plan::new(&params, 40).total_rounds();
    assert!(long <= short * 3, "cap explodes with D: {short} -> {long}");
}

#[test]
fn recruiting_hints_pin_the_disk_skip_counts() {
    // Construction hints follow the recruiting machines: a red is polled at
    // its beacon and echo rounds only, a blue at iteration starts and while
    // a beacon awaits its response, and a non-participating red never. On
    // a streamed 600-node disk under the benchmark's leaned `2·log n`
    // recruiting, most recruiting parts are full of such sleepers. The
    // host-side skip counters are exact functions of the hints, so pinning
    // them catches a hint that coarsens (fewer skips) or a schedule change;
    // the round count pins the simulated trace itself.
    let n = 600;
    let mut params = broadcast::Params::scaled(n);
    params.recruit_iterations = 2 * params.log_n;
    let out = Scenario::new(
        TopologySpec::StreamedUnitDisk { n, radius: 0.1, graph_seed: 2026 },
        Workload::Single { payload: 9 },
    )
    .params(params)
    .seed(1)
    .run();
    let counts = (out.completion_round, out.stats.act_skips, out.stats.idle_fastforward);
    assert_eq!(counts, (Some(4_784), 2_533_626, 3_018), "stats: {:?}", out.stats);
}
