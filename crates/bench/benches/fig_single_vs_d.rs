//! E1 — Theorem 1.1: single-message rounds vs diameter at (roughly) fixed n.
//!
//! Paper-predicted shape: Decay grows like D·log n and CR-style like
//! D·log(n/D). With *adaptive* phase termination the GHK pipeline's setup
//! (wave + parallel per-ring GST construction) costs what it actually uses
//! rather than its worst-case windows, so the end-to-end column is now
//! competitive at simulation scale; the worst-case cap column shows the
//! guarantee the run never exceeds.

use bench::*;
use broadcast::single_message::broadcast_single;
use radio_sim::NodeId;

fn main() {
    header(
        "E1: single-message rounds vs D (cluster chains, n ~ 72)",
        &["D", "GHK end-to-end", "GHK setup", "GHK cap", "Decay (BGI)", "CR-style", "GPX known"],
    );
    for clusters in [4usize, 8, 16] {
        let g = chain_with_n(clusters, 72);
        let params = bench_params(g.node_count());
        let d = diameter(&g);
        let mut e2e: Vec<Option<u64>> = Vec::new();
        let mut setup: Vec<Option<u64>> = Vec::new();
        let mut cap = 0u64;
        for s in 0..SEEDS {
            let out = broadcast_single(&g, NodeId::new(0), 1, &params, s);
            e2e.push(out.completion_round);
            setup.push(Some(out.phases.wave + out.phases.construct));
            cap = out.cap;
        }
        let decay: Vec<_> = (0..SEEDS).map(|s| run_decay(&g, &params, s)).collect();
        let cr: Vec<_> = (0..SEEDS).map(|s| run_cr(&g, &params, s)).collect();
        let gpx: Vec<_> = (0..SEEDS).map(|s| run_gpx_known(&g, &params, s)).collect();
        row(
            &format!("{clusters}cl/D={d}"),
            &[
                format!("{d}"),
                cell(mean_std(&e2e)),
                cell(mean_std(&setup)),
                format!("{cap}"),
                cell(mean_std(&decay)),
                cell(mean_std(&cr)),
                cell(mean_std(&gpx)),
            ],
        );
    }
    println!("(expect: adaptive end-to-end within a small factor of Decay; the cap column");
    println!(" keeps the O(D + polylog) worst-case shape the theorem guarantees)");
}
