//! Acceptance pin for the sharded sweep executor: a parallel corridor seed
//! sweep is **bit-identical** to the serial sweep at every worker count.
//!
//! "Bit-identical" is checked as full `Debug` equality of the pool's
//! [`SeedMatrix`]es — the debug string covers every field of every
//! [`broadcast::Outcome`] transitively (completion round, cap, per-phase
//! rounds, channel stats, audit counters, peak state, detail), so a single
//! diverging bit anywhere in any run fails the test.

use broadcast::{Scenario, SeedMatrix, TopologySpec, Workload};
use radio_sim::FaultPlan;
use sweep::{SweepPool, SweepProduct};

/// The corridor scenario of the bench pipeline: 20 six-node clusters in a
/// chain, single-message broadcast with collision detection.
fn corridor() -> Scenario {
    Scenario::new(
        TopologySpec::ClusterChain { clusters: 20, size: 6 },
        Workload::Single { payload: 0xC0FFEE },
    )
}

fn assert_identical(parallel: &[SeedMatrix], serial: &[SeedMatrix]) {
    assert_eq!(format!("{parallel:?}"), format!("{serial:?}"));
}

/// The ISSUE's acceptance bar: ≥64 seeds, workers 1, 2, 4 and the machine
/// default, all bit-identical to the serial sweep.
#[test]
fn corridor_sweep_is_bit_identical_across_worker_counts() {
    let product = SweepProduct::new().scenario(corridor()).seeds(0..64);
    let serial = vec![corridor().seeds(0..64)];
    // The sweep's extremes are exact pins like any other round count.
    assert_eq!((serial[0].best_rounds(), serial[0].worst_rounds()), (Some(582), Some(1168)));
    let machine = SweepPool::new().worker_count();
    for workers in [1, 2, 4, machine] {
        let parallel = SweepPool::new().workers(workers).run(&product);
        assert_identical(&parallel, &serial);
    }
}

/// Multi-scenario products (including a faulted scenario, whose fault RNG
/// streams are part of the outcome) come out identical too.
#[test]
fn mixed_product_with_faults_is_bit_identical() {
    let faulted = corridor().faults(FaultPlan::none().with_erasure(0.1));
    let product = SweepProduct::new().scenario(corridor()).scenario(faulted.clone()).seeds(0..16);
    let serial = vec![corridor().seeds(0..16), faulted.seeds(0..16)];
    for workers in [2, 3] {
        let parallel = SweepPool::new().workers(workers).run(&product);
        assert_identical(&parallel, &serial);
    }
}

/// `Scenario::seeds` takes any `IntoIterator<Item = u64>`: ranges, explicit
/// vectors, iterator adapters — and the executor reproduces each shape.
#[test]
fn seed_iterators_of_every_shape_sweep_identically() {
    let evens: Vec<u64> = (0..10).map(|s| 2 * s).collect();
    let serial_range = corridor().seeds(0..10u64);
    let serial_list = corridor().seeds(evens.clone());
    let serial_adapter = corridor().seeds((0..20u64).filter(|s| s % 2 == 0));
    assert_eq!(format!("{serial_list:?}"), format!("{serial_adapter:?}"));
    assert_ne!(format!("{serial_range:?}"), format!("{serial_list:?}"));

    let product = SweepProduct::new().scenario(corridor()).seeds(evens);
    let parallel = SweepPool::new().workers(4).run(&product);
    assert_identical(&parallel, &[serial_list]);
}
