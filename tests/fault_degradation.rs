//! Degradation suite: how the adaptive GHK pipelines hold up against the
//! Decay baseline under seeded adversarial channels (ROADMAP item 3 — the
//! paper's robustness story, exercised for the first time).
//!
//! Two halves:
//!
//! * **Bit-identity.** `FaultPlan::none()` must keep every historical round
//!   pin — corridor 677, unit-disk 2146, telemetry 3308, firmware 5011 —
//!   and the full channel trace, so the fault layer is provably invisible
//!   when disabled.
//! * **Degradation pins.** GHK-vs-Decay completion under erasure
//!   p ∈ {0.05, 0.2}, one scheduled jammer, 1% per-round edge churn,
//!   unit-disk mobility at two epoch lengths, and a combined
//!   erasure+jammer plan on the corridor and grid specs. Exact per-seed
//!   completion rounds are pinned (runs are deterministic, so any drift is
//!   a semantic change); cap-outs are recorded as `None` through the
//!   [`SeedMatrix`].
//!
//! The finding these pins freeze: with the staged recovery ladder
//! (status-beep majority voting, one handoff retry, then ring-local
//! repair → regional re-dissemination → no-knowledge Decay fallback) the
//! adaptive Theorem 1.1 pipeline completes on **every** seed of **every**
//! fault class on both topologies, within its worst-case cap. Faults still
//! corrupt the collision/silence signals the phase machinery feeds on —
//! which is why the faulted runs land one to two orders of magnitude above
//! Decay (which merely slows down) — but they no longer strand the run,
//! and the ladder keeps the tail local: on the deep corridor, where the
//! recovery PR's retry-then-flood scheme landed up to 250× Decay, repairing
//! only the failed ring before escalating holds every seed within 60×.
//! (The shallow grid keeps the 250× bound: its paired Decay runs finish in
//! tens of rounds, so the ratio is dominated by Decay's head start rather
//! than by recovery cost.) Collision detection's clean-channel
//! round-complexity still costs resilience; the recovery ladder caps that
//! cost at degradation instead of failure.

use broadcast::multi_message::BatchMode;
use broadcast::{Algo, Scenario, SeedMatrix, TopologySpec, Workload};
use radio_sim::FaultPlan;
use rlnc::gf2::BitVec;

/// The emergency-alert corridor (E1): 20 cliques of 6, diameter-dominated.
fn corridor() -> TopologySpec {
    TopologySpec::ClusterChain { clusters: 20, size: 6 }
}

/// The firmware-update grid (E3 family): shallow, well-connected.
fn grid() -> TopologySpec {
    TopologySpec::Grid { w: 6, h: 6 }
}

/// The bench's multi-message payloads.
fn payloads(k: usize) -> Vec<BitVec> {
    (0..k as u64).map(|i| BitVec::from_u64(0xBEE0 + i, 32)).collect()
}

/// Per-seed completion rounds of a matrix, in sweep order.
fn completions(m: &SeedMatrix) -> Vec<Option<u64>> {
    m.runs.iter().map(|r| r.outcome.completion_round).collect()
}

/// Pins one GHK-vs-Decay degradation scenario: both algorithms swept over
/// seeds 1..4 under the same fault plan, exact completion rounds asserted.
/// Completed GHK runs must also stay within the theorem's worst-case cap,
/// and every GHK run must stay on the wake-hint fast path while the ladder
/// works (`act_skips > 0`). Returns the GHK matrix.
fn pin_degradation(
    spec: TopologySpec,
    plan: FaultPlan,
    ghk_expected: [Option<u64>; 3],
    decay_expected: [Option<u64>; 3],
) -> SeedMatrix {
    let ghk = Scenario::new(spec.clone(), Workload::Single { payload: 0xA1E57 })
        .faults(plan.clone())
        .seeds(1..4);
    let decay = Scenario::new(spec, Workload::Baseline(Algo::Decay { payload: 0xA1E57 }))
        .round_cap(100_000)
        .faults(plan)
        .seeds(1..4);
    assert_eq!(completions(&ghk), ghk_expected, "GHK drifted: {}", ghk.report());
    assert_eq!(completions(&decay), decay_expected, "Decay drifted: {}", decay.report());
    for run in &ghk.runs {
        if run.outcome.completion_round.is_some() {
            assert!(
                run.outcome.completed_within_cap(),
                "seed {} completed beyond the worst-case cap",
                run.seed
            );
        }
        assert!(
            run.outcome.stats.act_skips > 0,
            "seed {}: the faulted run fell off the wake-hint fast path (stats: {:?})",
            run.seed,
            run.outcome.stats
        );
    }
    ghk
}

/// 5% Bernoulli packet erasure per (transmitter, receiver) copy.
fn erase05() -> FaultPlan {
    FaultPlan::none().with_erasure(0.05)
}

/// 20% erasure — a heavily lossy channel.
fn erase20() -> FaultPlan {
    FaultPlan::none().with_erasure(0.2)
}

/// One jammer parked on node 30, injecting collisions every other round.
fn one_jammer() -> FaultPlan {
    FaultPlan::none().with_jammer(30, 2, 0)
}

/// 1% per-round edge churn (links flap independently each round).
fn churn1pct() -> FaultPlan {
    FaultPlan::none().with_churn(1, 0.0, 0.01)
}

/// The combined adversary: lossy channel *and* a scheduled jammer at once,
/// so erased signal and fabricated collisions corrupt the status reads in
/// both directions simultaneously — the plan most likely to need the
/// ladder's structural rungs rather than voting alone.
fn erase05_plus_jammer() -> FaultPlan {
    FaultPlan::none().with_erasure(0.05).with_jammer(30, 2, 0)
}

/// Unit-disk mobility on the 120-node corridor: positions re-sampled every
/// `epoch` rounds at radius 0.4 (well above the ~0.11 connectivity
/// threshold for 120 uniform nodes), so the chain the pipeline constructed
/// over is repeatedly replaced by a fresh random deployment.
fn corridor_mobility(epoch: u64) -> FaultPlan {
    FaultPlan::none().with_mobility(0.4, epoch)
}

/// Unit-disk mobility for the 36-node grid (radius 0.35 vs its ~0.18
/// connectivity threshold).
fn grid_mobility(epoch: u64) -> FaultPlan {
    FaultPlan::none().with_mobility(0.35, epoch)
}

// ---------------------------------------------------------------------------
// Corridor: before the recovery layer, every fault class capped the deep
// 20-cluster pipeline out (all pins were `None`); now voting, handoff
// retries and the Decay fallback carry every seed to bounded completion.
// ---------------------------------------------------------------------------

#[test]
fn corridor_recovers_under_light_erasure() {
    pin_degradation(
        corridor(),
        erase05(),
        [Some(2241), Some(4313), Some(2572)],
        [Some(157), Some(157), Some(163)],
    );
}

#[test]
fn corridor_recovers_under_heavy_erasure() {
    let ghk = pin_degradation(
        corridor(),
        erase20(),
        [Some(6183), Some(6180), Some(6224)],
        [Some(199), Some(169), Some(169)],
    );
    // Seed 1 climbs the whole ladder: one handoff retry, then rung-1 ring
    // repairs and rung-2 regional repairs before 24 rounds of fallback.
    let stats = &ghk.runs[0].outcome.stats;
    assert_eq!(
        (stats.retries, stats.ring_repairs, stats.regional_repairs, stats.fallback_rounds),
        (1, 3, 3, 24),
        "seed 1's recovery path changed (stats: {stats:?})"
    );
}

#[test]
fn corridor_recovers_under_one_jammer() {
    pin_degradation(
        corridor(),
        one_jammer(),
        [Some(3494), Some(3551), Some(3514)],
        [Some(149), Some(148), Some(148)],
    );
}

#[test]
fn corridor_recovers_under_churn() {
    pin_degradation(
        corridor(),
        churn1pct(),
        [Some(4485), Some(3822), Some(3810)],
        [Some(627), Some(218), Some(1255)],
    );
}

#[test]
fn corridor_recovers_under_fast_mobility() {
    // Epoch 8: the deployment re-samples faster than any single phase
    // window, so the pipeline effectively runs over a time-averaged dense
    // graph — construction completes at near-clean speed.
    pin_degradation(
        corridor(),
        corridor_mobility(8),
        [Some(1010), Some(986), Some(982)],
        [Some(34), Some(20), Some(34)],
    );
}

#[test]
fn corridor_recovers_under_slow_mobility() {
    // Epoch 128: each deployment lives long enough for real phase progress,
    // then is yanked away — the worst cadence for structure-carrying
    // pipelines (re-learn per epoch) while structure-free Decay just rides
    // each fresh small-diameter unit disk.
    pin_degradation(
        corridor(),
        corridor_mobility(128),
        [Some(5444), Some(5266), Some(4724)],
        [Some(154), Some(152), Some(139)],
    );
}

/// The combined adversary runs corridor recovery end to end: every seed
/// climbs the ladder (rung-1 ring repair observed on all three), which is
/// the `ring_repairs > 0` acceptance pin for this PR.
#[test]
fn corridor_recovers_under_combined_erasure_and_jamming() {
    let ghk = pin_degradation(
        corridor(),
        erase05_plus_jammer(),
        [Some(4724), Some(5333), Some(3507)],
        [Some(149), Some(155), Some(148)],
    );
    for run in &ghk.runs {
        assert!(
            run.outcome.stats.ring_repairs > 0,
            "seed {}: combined faults must push recovery through rung 1 \
             (stats: {:?})",
            run.seed,
            run.outcome.stats
        );
    }
}

// ---------------------------------------------------------------------------
// Grid: erasure and churn already mostly spared the shallow grid; the
// recovery layer closes the remaining gaps (the churn seed that used to cap
// out, and the every-other-round jammer that used to break the pipeline).
// ---------------------------------------------------------------------------

#[test]
fn grid_recovers_under_light_erasure() {
    pin_degradation(
        grid(),
        erase05(),
        [Some(964), Some(4007), Some(2401)],
        [Some(29), Some(20), Some(32)],
    );
}

#[test]
fn grid_recovers_under_heavy_erasure() {
    pin_degradation(
        grid(),
        erase20(),
        [Some(2196), Some(2475), Some(3853)],
        [Some(26), Some(32), Some(31)],
    );
}

#[test]
fn grid_recovers_under_one_jammer() {
    pin_degradation(
        grid(),
        one_jammer(),
        [Some(3349), Some(3396), Some(3051)],
        [Some(44), Some(22), Some(44)],
    );
}

#[test]
fn grid_recovers_under_churn() {
    pin_degradation(
        grid(),
        churn1pct(),
        [Some(2566), Some(3407), Some(2422)],
        [Some(25), Some(28), Some(38)],
    );
}

#[test]
fn grid_recovers_under_fast_mobility() {
    pin_degradation(
        grid(),
        grid_mobility(8),
        [Some(1617), Some(1555), Some(1307)],
        [Some(16), Some(32), Some(18)],
    );
}

#[test]
fn grid_recovers_under_slow_mobility() {
    pin_degradation(
        grid(),
        grid_mobility(128),
        [Some(2876), Some(3843), Some(6223)],
        [Some(32), Some(27), Some(44)],
    );
}

/// The grid under 32-round mobility epochs, at seed 1: the fault class that
/// exercises the ladder's global rungs hardest on the shallow grid.
#[test]
fn mobile_grid_pin_stays_at_1955() {
    let out = Scenario::new(grid(), Workload::Single { payload: 0xFEED })
        .faults(grid_mobility(32))
        .seed(1)
        .run();
    assert_eq!(
        out.completion_round,
        Some(1955),
        "the mobile grid drifted (phases {:?})",
        out.phases
    );
    assert!(out.stats.churn_events > 0, "mobility never re-sampled: {:?}", out.stats);
    assert!(out.stats.act_skips > 0, "fell off the wake-hint fast path: {:?}", out.stats);
}

#[test]
fn grid_recovers_under_combined_erasure_and_jamming() {
    pin_degradation(
        grid(),
        erase05_plus_jammer(),
        [Some(3784), Some(3785), Some(4309)],
        [Some(44), Some(27), Some(32)],
    );
}

/// The acceptance headline in executable form: under **each** fault class on
/// **both** topologies, the adaptive pipeline completes on every seed where
/// Decay completes (same fault plan, same master seeds), within its
/// worst-case cap, and within a bounded multiple of the paired Decay run —
/// degradation with a bounded constant, not failure. The corridor bound is
/// 60× (the recovery ladder's headline win — it was 250× when the only
/// recovery was retry-then-global-flood); the shallow grid keeps 250×
/// because its paired Decay runs finish in tens of rounds, making the
/// ratio mostly Decay's head start.
/// A (topology, Decay-ratio bound, mobility-plan builder) row of the
/// headline matrix below.
type RatioSpec = (TopologySpec, u64, fn(u64) -> FaultPlan);

#[test]
fn adaptive_pipeline_completes_within_bounded_decay_ratio_under_every_fault_class() {
    let specs: [RatioSpec; 2] = [(corridor(), 60, corridor_mobility), (grid(), 250, grid_mobility)];
    for (spec, ratio, mobility) in specs {
        for plan in [
            erase05(),
            erase20(),
            one_jammer(),
            churn1pct(),
            erase05_plus_jammer(),
            mobility(8),
            mobility(128),
        ] {
            let ghk = Scenario::new(spec.clone(), Workload::Single { payload: 0xA1E57 })
                .faults(plan.clone())
                .seeds(1..4);
            let decay =
                Scenario::new(spec.clone(), Workload::Baseline(Algo::Decay { payload: 0xA1E57 }))
                    .round_cap(100_000)
                    .faults(plan.clone())
                    .seeds(1..4);
            assert!(
                decay.all_completed(),
                "Decay failed under {}: {}",
                plan.label(),
                decay.report()
            );
            assert!(ghk.all_completed(), "GHK failed under {}: {}", plan.label(), ghk.report());
            assert!(ghk.all_within_caps(), "a GHK run exceeded its cap under {}", plan.label());
            for (g, d) in ghk.runs.iter().zip(&decay.runs) {
                let (g_done, d_done) = (
                    g.outcome.completion_round.expect("checked"),
                    d.outcome.completion_round.expect("checked"),
                );
                assert!(
                    g_done <= ratio * d_done,
                    "seed {} under {}: GHK took {g_done} rounds vs Decay {d_done} (> {ratio}x)",
                    g.seed,
                    plan.label()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-identity: a `FaultPlan::none()` scenario is byte-for-byte the run the
// repo has pinned since before the fault layer existed.
// ---------------------------------------------------------------------------

/// Runs a scenario plain and with an explicit empty plan; asserts the full
/// trace (completion + every `RunStats` field) is identical and returns the
/// completion round.
fn none_plan_is_invisible(scenario: Scenario) -> Option<u64> {
    let plain = scenario.clone().run();
    let none = scenario.faults(FaultPlan::none()).run();
    assert_eq!(plain.completion_round, none.completion_round, "completion diverged");
    assert_eq!(plain.stats, none.stats, "channel trace diverged");
    assert_eq!(plain.phases, none.phases, "phase accounting diverged");
    none.completion_round
}

#[test]
fn none_plan_keeps_the_corridor_pin_at_677() {
    let done = none_plan_is_invisible(
        Scenario::new(corridor(), Workload::Single { payload: 0xA1E57 }).seed(1),
    );
    assert_eq!(done, Some(677));
}

#[test]
fn none_plan_keeps_the_unit_disk_pin_at_2146() {
    let done = none_plan_is_invisible(
        Scenario::new(
            TopologySpec::UnitDisk { n: 80, radius: 0.18, graph_seed: 2024 },
            Workload::Single { payload: 0xFEED },
        )
        .seed(1),
    );
    assert_eq!(done, Some(2146));
}

#[test]
fn none_plan_keeps_the_telemetry_pin_at_3308() {
    let done = none_plan_is_invisible(
        Scenario::new(
            TopologySpec::ClusterChain { clusters: 6, size: 6 },
            Workload::MultiUnknown { messages: payloads(8), batch: BatchMode::FullK },
        )
        .seed(11),
    );
    assert_eq!(done, Some(3308));
}

#[test]
fn none_plan_keeps_the_firmware_pin_at_5011() {
    let done = none_plan_is_invisible(
        Scenario::new(
            grid(),
            Workload::MultiUnknown { messages: payloads(8), batch: BatchMode::Generations(4) },
        )
        .seed(3),
    );
    assert_eq!(done, Some(5011));
}

/// The telemetry backhaul (Theorem 1.3) over a lossy channel with the
/// ring-handoff FEC repair engaged: the pin of the measured-erasure repair
/// adaptation (down from 3,366 rounds before it), and erasure must fire.
#[test]
fn lossy_telemetry_pin_stays_at_3267() {
    let out = Scenario::new(
        TopologySpec::ClusterChain { clusters: 6, size: 6 },
        Workload::MultiUnknown { messages: payloads(8), batch: BatchMode::FullK },
    )
    .faults(erase05())
    .fec_repair(2)
    .seed(11)
    .run();
    assert_eq!(
        out.completion_round,
        Some(3267),
        "the lossy backhaul drifted (phases {:?})",
        out.phases
    );
    assert!(out.stats.erased > 0, "erasure never fired: {:?}", out.stats);
    assert!(out.stats.act_skips > 0, "fell off the wake-hint fast path: {:?}", out.stats);
}
