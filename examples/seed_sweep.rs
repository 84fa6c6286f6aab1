//! Seed sweep: declarative scenarios, aggregated over a seed range — now
//! fanned out on the [`sweep::SweepPool`]. One `SweepProduct`
//! carries every scenario; the pool's workers claim its jobs one at a time,
//! and the pool files each finished job by its index into exactly the
//! serial `SeedMatrix`es (the example asserts that, recomputing one sweep
//! serially).
//!
//! ```sh
//! cargo run --release --example seed_sweep             # machine-sized pool
//! cargo run --release --example seed_sweep -- --workers 4
//! SWEEP_WORKERS=1 cargo run --release --example seed_sweep   # serial
//! ```
//!
//! The calling thread is always the pool's worker 0, so `--workers 1`
//! spawns no helper thread — same claim loop, same matrices.

use broadcast::{Algo, Scenario, SeedMatrix, TopologySpec, Workload};
use radio_sim::FaultPlan;
use sweep::{SweepPool, SweepProduct};

/// Worker count: `--workers N` beats `SWEEP_WORKERS=N` beats the machine.
fn worker_flag() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--workers" {
            let n = args.next().and_then(|v| v.parse().ok());
            return Some(n.expect("--workers needs a number"));
        }
    }
    std::env::var("SWEEP_WORKERS").ok().and_then(|v| v.parse().ok())
}

fn main() {
    let corridor = TopologySpec::ClusterChain { clusters: 20, size: 6 };
    let payload = 0xA1E57;

    // The whole bake-off is one product: three scenarios × 5 shared seeds.
    let scenarios = vec![
        Scenario::new(corridor.clone(), Workload::Single { payload }),
        Scenario::new(corridor.clone(), Workload::Baseline(Algo::Decay { payload })),
        Scenario::new(corridor, Workload::Baseline(Algo::Decay { payload }))
            .faults(FaultPlan::none().with_erasure(0.05))
            .round_cap(100_000),
    ];
    let product = SweepProduct::new().scenarios(scenarios.clone()).seeds(0..5);

    let pool = match worker_flag() {
        Some(n) => SweepPool::new().workers(n),
        None => SweepPool::new(),
    };
    println!("sweeping {} jobs on {} worker(s)", product.job_count(), pool.worker_count());
    let matrices: Vec<SeedMatrix> = pool.run(&product);
    let [ghk, decay, lossy] = <[SeedMatrix; 3]>::try_from(matrices).expect("three matrices");

    println!("{}", ghk.report());
    assert!(ghk.all_completed(), "T1.1 failed on seeds {:?}", ghk.failures());
    assert!(ghk.all_within_caps(), "a run exceeded its worst-case cap");

    println!("{}", decay.report());
    assert!(decay.all_completed(), "Decay failed on seeds {:?}", decay.failures());

    let ratio = ghk.mean_rounds().unwrap() / decay.mean_rounds().unwrap().max(1.0);
    println!("mean GHK-CD / mean Decay = {ratio:.1}x over 5 shared seeds");

    // Median and tail views of the same sweeps: the median is robust to one
    // slow seed, and p95 is the tail the paper's w.h.p. bounds speak to.
    let (med, p95) = (ghk.median_rounds().unwrap(), ghk.p95_rounds().unwrap());
    println!("GHK-CD rounds median/p95 = {med}/{p95}");
    assert!(med <= p95, "median cannot exceed p95");
    assert!(
        ghk.best_rounds().unwrap() <= med && p95 <= ghk.worst_rounds().unwrap(),
        "quantiles must sit inside the min..max envelope"
    );

    // Adversarial smoke: the same corridor under 5% packet erasure. Decay
    // degrades gracefully and must still complete on every seed; the sweep
    // label records the fault plan.
    println!("{}", lossy.report());
    assert!(lossy.label.ends_with("+erase(0.05)"), "fault label drifted: {}", lossy.label);
    assert!(lossy.all_completed(), "lossy Decay failed on seeds {:?}", lossy.failures());

    // The executor's contract, checked live: the pool's GHK matrix is
    // bit-identical to the serial sweep (full Debug equality).
    let serial = scenarios[0].seeds(0..5);
    assert_eq!(format!("{ghk:?}"), format!("{serial:?}"), "parallel sweep diverged from serial");
    println!("parallel == serial: OK");
}
