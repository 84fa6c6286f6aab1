//! High-diameter / high-density hybrid families.
//!
//! Broadcast algorithms differ in how their round complexity splits between
//! the diameter term and the contention (log) terms. These families let
//! experiments control both independently:
//!
//! * [`cluster_chain`] — a chain of cliques: diameter `Θ(clusters)` with heavy
//!   local contention; the canonical graph where `O(D + polylog)` algorithms
//!   separate from `O(D · log)` ones;
//! * [`caterpillar`] — a path with leaf bundles: large diameter, bursty
//!   degree.

use crate::graph::{Graph, GraphBuilder};

/// A chain of `clusters` cliques of size `cluster_size`; consecutive cliques
/// are joined by a single bridge edge between dedicated port nodes.
///
/// Nodes of clique `c` are `c * cluster_size .. (c+1) * cluster_size`; the
/// bridge joins the last node of clique `c` to the first node of clique
/// `c + 1`. Diameter is `2 * clusters - 1` for `cluster_size >= 2` (one hop
/// across each clique plus one bridge hop per boundary).
///
/// # Panics
///
/// Panics if `clusters == 0` or `cluster_size == 0`.
pub fn cluster_chain(clusters: usize, cluster_size: usize) -> Graph {
    assert!(clusters >= 1, "need at least one cluster");
    assert!(cluster_size >= 1, "clusters must be non-empty");
    let n = clusters * cluster_size;
    let mut b = GraphBuilder::new(n);
    for c in 0..clusters {
        let base = c * cluster_size;
        for i in 0..cluster_size {
            for j in (i + 1)..cluster_size {
                b.add_edge_raw(base + i, base + j).expect("valid clique edge");
            }
        }
        if c + 1 < clusters {
            b.add_edge_raw(base + cluster_size - 1, base + cluster_size)
                .expect("valid bridge edge");
        }
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` nodes, each carrying `legs` leaves.
///
/// Spine nodes are `0..spine`; the leaves of spine node `s` are
/// `spine + s*legs .. spine + (s+1)*legs`.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1, "caterpillar requires a spine");
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for s in 0..spine.saturating_sub(1) {
        b.add_edge_raw(s, s + 1).expect("valid spine edge");
    }
    for s in 0..spine {
        for l in 0..legs {
            b.add_edge_raw(s, spine + s * legs + l).expect("valid leg edge");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Traversal;

    #[test]
    fn cluster_chain_shape() {
        let g = cluster_chain(5, 4);
        assert_eq!(g.node_count(), 20);
        assert!(g.is_connected());
        // 5 cliques of 6 edges + 4 bridges.
        assert_eq!(g.edge_count(), 5 * 6 + 4);
        assert_eq!(g.diameter(), Some(2 * 5 - 1));
    }

    #[test]
    fn cluster_chain_single_cluster_is_clique() {
        let g = cluster_chain(1, 5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.diameter(), Some(1));
    }

    #[test]
    fn cluster_chain_unit_clusters_is_path() {
        let g = cluster_chain(6, 1);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.diameter(), Some(5));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 3);
        assert_eq!(g.node_count(), 16);
        assert!(g.is_connected());
        // Leaf on first spine to leaf on last spine.
        assert_eq!(g.diameter(), Some(1 + 3 + 1));
    }

    #[test]
    fn caterpillar_no_legs_is_path() {
        let g = caterpillar(5, 0);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.diameter(), Some(4));
    }
}
