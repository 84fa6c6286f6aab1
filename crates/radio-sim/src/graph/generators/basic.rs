//! Deterministic graph families.

use crate::graph::{Graph, GraphBuilder};

/// Path `v0 - v1 - … - v(n-1)`. Diameter `n - 1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "path requires at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 0..n.saturating_sub(1) {
        b.add_edge_raw(i, i + 1).expect("valid path edge");
    }
    b.build()
}

/// Cycle on `n >= 3` nodes. Diameter `⌊n/2⌋`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires at least three nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge_raw(i, (i + 1) % n).expect("valid cycle edge");
    }
    b.build()
}

/// Star: node 0 is the hub, nodes `1..n` are leaves. Diameter 2 (`star(1)`
/// is the lone hub, `star(2)` one edge).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "star requires at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge_raw(0, i).expect("valid star edge");
    }
    b.build()
}

/// Complete graph `K_n`. Diameter 1.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "complete graph requires at least two nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge_raw(i, j).expect("valid clique edge");
        }
    }
    b.build()
}

/// `w × h` grid. Node `(x, y)` has index `y * w + x`. Diameter `w + h - 2`.
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
pub fn grid(w: usize, h: usize) -> Graph {
    assert!(w >= 1 && h >= 1, "grid requires positive dimensions");
    let mut b = GraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                b.add_edge_raw(v, v + 1).expect("valid grid edge");
            }
            if y + 1 < h {
                b.add_edge_raw(v, v + w).expect("valid grid edge");
            }
        }
    }
    b.build()
}

/// Balanced binary tree with `n` nodes; node `i` has children `2i+1`, `2i+2`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> Graph {
    assert!(n >= 1, "binary tree requires at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge_raw(i, (i - 1) / 2).expect("valid tree edge");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Traversal;
    use crate::NodeId;

    #[test]
    fn path_shape() {
        let g = path(10);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.diameter(), Some(9));
    }

    #[test]
    fn single_node_path() {
        let g = path(1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn single_node_star_is_the_lone_hub() {
        let g = star(1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(8);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.diameter(), Some(4));
        assert!(g.node_ids().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(NodeId::new(0)), 5);
        assert_eq!(g.diameter(), Some(2));
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.diameter(), Some(1));
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 3);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 4 * 2 + 3 * 3); // vertical rows + horizontal cols
        assert_eq!(g.diameter(), Some(5));
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.diameter(), Some(4));
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "cycle requires at least three nodes")]
    fn tiny_cycle_panics() {
        let _ = cycle(2);
    }
}
