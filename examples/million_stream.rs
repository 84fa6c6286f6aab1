//! Million-node streamed broadcast: Theorem 1.1 over a hashed unit-disk
//! deployment of 1,000,000 nodes whose CSR (~1.8 GB) is never built — the
//! engine computes each neighborhood on demand from the `StreamedUnitDisk`
//! spec (only the spatial bucket index, `O(n)`, stays resident) while
//! `peak_state_bytes` stays a quarter of the materialized cost.
//!
//! Recruiting runs the leaned `2·log n` iterations instead of the default
//! `4·log n`: at this scale the default doubles the round count without
//! changing the outcome at the pinned seed. Expect a run of the order of
//! forty minutes on one core (~90M transmissions at mean degree ~452). The
//! example asserts the exact round count (44,940), that the wake fast path
//! engaged, and that peak state stays under a quarter of the materialized
//! cost; it is too slow for CI, so run it by hand when a change could move
//! the streamed pipeline.
//!
//! ```sh
//! cargo run --release --example million_stream
//! ```

use broadcast::{Params, Scenario, TopologySpec, Workload};
use std::time::Instant;

fn main() {
    let (n, radius) = (1_000_000usize, 0.012f64);
    let mut params = Params::scaled(n);
    params.recruit_iterations = 2 * params.log_n;
    let scenario = Scenario::new(
        TopologySpec::StreamedUnitDisk { n, radius, graph_seed: 2026 },
        Workload::Single { payload: 0xFEED },
    )
    .params(params)
    .seed(1);
    println!("streaming {n} nodes (disk r={radius}) — no CSR is ever materialized...");

    let t = Instant::now();
    let out = scenario.run();
    let wall = t.elapsed().as_secs_f64();

    // What the same run would pin resident if the disk were materialized:
    // the expected CSR bytes ((n+1)·4 + 2m·4, m = n²·π·r²/2) on top of the
    // identical node state.
    let est_m = (n as f64 * n as f64 * std::f64::consts::PI * radius * radius / 2.0) as usize;
    let csr_bytes = (n + 1) * 4 + 2 * est_m * 4;
    println!(
        "completed: {:?} rounds (cap {}) in {wall:.1}s; peak state {:.0} MB \
         (a materialized CSR alone would add {:.0} MB); act skips {}; transmissions {}",
        out.completion_round,
        out.cap,
        out.peak_state_bytes as f64 / 1e6,
        csr_bytes as f64 / 1e6,
        out.stats.act_skips,
        out.stats.transmissions,
    );
    assert_eq!(out.completion_round, Some(44_940), "the streamed million-node round pin moved");
    assert!(out.stats.act_skips > 0, "the wake fast path never engaged");
    assert!(
        4 * out.peak_state_bytes < csr_bytes + out.peak_state_bytes,
        "peak state {} is not well below the materialized cost {}",
        out.peak_state_bytes,
        csr_bytes + out.peak_state_bytes,
    );
}
