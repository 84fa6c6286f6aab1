//! Seeded random graph families.

use crate::graph::{Graph, GraphBuilder};
use crate::ids::NodeId;
use rand::Rng;

/// Connected Erdős–Rényi graph: samples `G(n, p)` and then links the
/// connected components with uniformly random inter-component edges, so the
/// result is always connected while staying distributionally close to
/// `G(n, p)` for `p` above the connectivity threshold.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn gnp_connected(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    assert!(n >= 1, "gnp requires at least one node");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge_raw(i, j).expect("valid gnp edge");
            }
        }
    }
    connect_components(b, rng)
}

/// Uniform random attachment tree: node `i > 0` attaches to a uniformly
/// random node `< i`. Expected diameter `Θ(log n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    assert!(n >= 1, "tree requires at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge_raw(i, parent).expect("valid tree edge");
    }
    b.build()
}

/// A bipartite graph together with its two sides, as produced by
/// [`random_bipartite`].
///
/// The paper's Recruiting protocol (Lemma 2.3) and Bipartite Assignment
/// Problem (Section 2.2.2) operate on exactly this structure: *red* nodes on
/// one side, *blue* nodes on the other.
#[derive(Clone, Debug)]
pub struct Bipartite {
    /// The underlying graph; reds come first, blues after.
    pub graph: Graph,
    /// Number of red nodes (ids `0..reds`).
    pub reds: usize,
    /// Number of blue nodes (ids `reds..reds+blues`).
    pub blues: usize,
}

impl Bipartite {
    /// Whether `v` is red.
    pub fn is_red(&self, v: NodeId) -> bool {
        v.index() < self.reds
    }
}

/// Random bipartite graph with `reds × blues` nodes and edge probability `p`;
/// every blue node is guaranteed at least one red neighbor (a uniformly random
/// one is added when the `G(n,p)` sample leaves it isolated), matching the
/// precondition of the Bipartite Assignment Problem.
///
/// # Panics
///
/// Panics if either side is empty or `p` is not in `[0, 1]`.
pub fn random_bipartite(reds: usize, blues: usize, p: f64, rng: &mut impl Rng) -> Bipartite {
    assert!(reds >= 1 && blues >= 1, "both sides must be non-empty");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let n = reds + blues;
    let mut b = GraphBuilder::new(n);
    for blue in 0..blues {
        let blue_id = reds + blue;
        let mut has_red = false;
        for red in 0..reds {
            if rng.gen_bool(p) {
                b.add_edge_raw(red, blue_id).expect("valid bipartite edge");
                has_red = true;
            }
        }
        if !has_red {
            let red = rng.gen_range(0..reds);
            b.add_edge_raw(red, blue_id).expect("valid fallback edge");
        }
    }
    Bipartite { graph: b.build(), reds, blues }
}

/// Links the connected components of the graph under construction with random
/// cross-component edges until the graph is connected.
pub(crate) fn connect_components(b: GraphBuilder, rng: &mut impl Rng) -> Graph {
    let g = b.build();
    let n = g.node_count();
    if n <= 1 {
        return g;
    }
    // Union-find over current components.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    let mut components = n;
    let mut extra: Vec<(u32, u32)> = Vec::new();
    for (u, v) in g.edges() {
        let (ru, rv) = (find(&mut parent, u.index()), find(&mut parent, v.index()));
        if ru != rv {
            parent[ru] = rv;
            components -= 1;
        }
    }
    while components > 1 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru] = rv;
            components -= 1;
            extra.push((u as u32, v as u32));
        }
    }
    if extra.is_empty() {
        return g;
    }
    let mut b = GraphBuilder::new(n);
    for (u, v) in g.edges() {
        b.add_edge(u, v).expect("existing edge is valid");
    }
    for (u, v) in extra {
        b.add_edge_raw(u as usize, v as usize).expect("joining edge is valid");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Traversal;
    use crate::rng::stream_rng;

    #[test]
    fn gnp_is_connected_even_when_sparse() {
        for seed in 0..5 {
            let mut rng = stream_rng(seed, 0);
            let g = gnp_connected(64, 0.01, &mut rng);
            assert!(g.is_connected(), "seed {seed}");
            assert_eq!(g.node_count(), 64);
        }
    }

    #[test]
    fn gnp_dense_has_many_edges() {
        let mut rng = stream_rng(1, 0);
        let g = gnp_connected(50, 0.5, &mut rng);
        let expected = 0.5 * (50.0 * 49.0 / 2.0);
        assert!((g.edge_count() as f64) > expected * 0.7);
        assert!((g.edge_count() as f64) < expected * 1.3);
    }

    #[test]
    fn gnp_deterministic_per_seed() {
        let a = gnp_connected(40, 0.1, &mut stream_rng(9, 0));
        let b = gnp_connected(40, 0.1, &mut stream_rng(9, 0));
        assert_eq!(a, b);
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = stream_rng(3, 0);
        let g = random_tree(100, &mut rng);
        assert_eq!(g.edge_count(), 99);
        assert!(g.is_connected());
    }

    #[test]
    fn bipartite_every_blue_has_red_neighbor() {
        for seed in 0..5 {
            let mut rng = stream_rng(seed, 1);
            let bp = random_bipartite(10, 40, 0.05, &mut rng);
            for blue in bp.graph.node_ids().filter(|&v| !bp.is_red(v)) {
                assert!(
                    bp.graph.neighbors(blue).iter().any(|&r| bp.is_red(r)),
                    "blue {blue} isolated at seed {seed}"
                );
            }
        }
    }

    #[test]
    fn bipartite_no_same_side_edges() {
        let mut rng = stream_rng(0, 2);
        let bp = random_bipartite(8, 8, 0.5, &mut rng);
        for (u, v) in bp.graph.edges() {
            assert_ne!(bp.is_red(u), bp.is_red(v));
        }
    }

    #[test]
    fn bipartite_sides_split_at_reds() {
        let mut rng = stream_rng(0, 3);
        let bp = random_bipartite(3, 4, 0.5, &mut rng);
        assert_eq!((bp.reds, bp.blues, bp.graph.node_count()), (3, 4, 7));
        assert!(bp.is_red(NodeId::new(2)));
        assert!(!bp.is_red(NodeId::new(3)));
    }
}
