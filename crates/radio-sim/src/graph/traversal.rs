//! BFS layerings, eccentricities and diameter computations.

use super::{Graph, Topology};
use crate::ids::NodeId;
use std::collections::VecDeque;

/// Distance value marking unreachable nodes in a [`BfsLayering`].
pub const UNREACHABLE: u32 = u32::MAX;

/// A BFS layering of a graph from one or more sources.
///
/// Layer (level) `ℓ(v)` is the hop distance from the closest source — the
/// quantity the paper's algorithms attach to every node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsLayering {
    dist: Vec<u32>,
    max_level: u32,
}

impl BfsLayering {
    /// Level of `v`, or [`UNREACHABLE`].
    #[inline]
    pub fn level(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }

    /// Whether `v` is reachable from a source.
    #[inline]
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.dist[v.index()] != UNREACHABLE
    }

    /// The largest finite level (the source eccentricity), 0 if no node is
    /// reachable beyond the sources.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Levels indexed by node.
    #[inline]
    pub fn levels(&self) -> &[u32] {
        &self.dist
    }

    /// Groups nodes by level: `result[l]` lists the nodes at level `l`.
    pub fn layers(&self) -> Vec<Vec<NodeId>> {
        let mut layers = vec![Vec::new(); self.max_level as usize + 1];
        for (i, &d) in self.dist.iter().enumerate() {
            if d != UNREACHABLE {
                layers[d as usize].push(NodeId::new(i));
            }
        }
        layers
    }

    /// Number of reachable nodes (including sources).
    pub fn reachable_count(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHABLE).count()
    }
}

/// Traversal algorithms on [`Graph`].
///
/// These are provided as an extension trait so that `Graph` stays a plain
/// data structure while call sites read naturally:
/// `g.bfs(source)`, `g.diameter()`, …
pub trait Traversal {
    /// BFS layering from a single source.
    fn bfs(&self, source: NodeId) -> BfsLayering;

    /// BFS layering from multiple sources (all at level 0).
    fn bfs_multi(&self, sources: &[NodeId]) -> BfsLayering;

    /// Eccentricity of `v`: the largest distance from `v` to any reachable
    /// node.
    fn eccentricity(&self, v: NodeId) -> u32;

    /// Exact diameter via BFS from every node. `O(n·m)` — intended for the
    /// graph sizes used in tests and experiments.
    ///
    /// Returns `None` for an empty or disconnected graph.
    fn diameter(&self) -> Option<u32>;

    /// Whether the graph is connected (vacuously true for `n <= 1`).
    fn is_connected(&self) -> bool;
}

/// BFS layering over any [`Topology`] — the streamed-capable twin of
/// [`Traversal::bfs_multi`]. Distances are order-independent facts of the
/// graph, so for a materialized topology this produces the exact same
/// [`BfsLayering`] as the `Graph` implementation.
pub fn bfs_layering<T: Topology>(topo: &T, sources: &[NodeId]) -> BfsLayering {
    let mut dist = vec![UNREACHABLE; topo.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] == UNREACHABLE {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    let mut max_level = 0;
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        queue.extend(topo.with_neighbors(u, |nbrs| {
            let mut fresh = Vec::new();
            for &v in nbrs {
                if dist[v.index()] == UNREACHABLE {
                    dist[v.index()] = du + 1;
                    max_level = max_level.max(du + 1);
                    fresh.push(v);
                }
            }
            fresh
        }));
    }
    BfsLayering { dist, max_level }
}

impl Traversal for Graph {
    fn bfs(&self, source: NodeId) -> BfsLayering {
        self.bfs_multi(std::slice::from_ref(&source))
    }

    fn bfs_multi(&self, sources: &[NodeId]) -> BfsLayering {
        bfs_layering(self, sources)
    }

    fn eccentricity(&self, v: NodeId) -> u32 {
        self.bfs(v).max_level()
    }

    fn diameter(&self) -> Option<u32> {
        if self.node_count() == 0 || !self.is_connected() {
            return None;
        }
        Some(self.node_ids().map(|v| self.eccentricity(v)).max().unwrap_or(0))
    }

    fn is_connected(&self) -> bool {
        if self.node_count() <= 1 {
            return true;
        }
        self.bfs(NodeId(0)).reachable_count() == self.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let l = g.bfs(NodeId(0));
        assert_eq!(l.levels(), &[0, 1, 2, 3, 4]);
        assert_eq!(l.max_level(), 4);
        assert!(l.is_reachable(NodeId(4)));
    }

    #[test]
    fn bfs_from_middle() {
        let g = path(5);
        let l = g.bfs(NodeId(2));
        assert_eq!(l.levels(), &[2, 1, 0, 1, 2]);
        assert_eq!(l.max_level(), 2);
    }

    #[test]
    fn multi_source_bfs() {
        let g = path(5);
        let l = g.bfs_multi(&[NodeId(0), NodeId(4)]);
        assert_eq!(l.levels(), &[0, 1, 2, 1, 0]);
        assert_eq!(l.max_level(), 2);
    }

    #[test]
    fn layers_grouping() {
        let g = path(4);
        let layers = g.bfs(NodeId(0)).layers();
        assert_eq!(layers.len(), 4);
        assert_eq!(layers[3], vec![NodeId(3)]);
    }

    #[test]
    fn unreachable_nodes() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let l = g.bfs(NodeId(0));
        assert!(!l.is_reachable(NodeId(2)));
        assert_eq!(l.reachable_count(), 2);
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(path(10).diameter(), Some(9));
        let cycle = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        assert_eq!(cycle.diameter(), Some(3));
    }

    #[test]
    fn eccentricity_center_vs_end() {
        let g = path(9);
        assert_eq!(g.eccentricity(NodeId(4)), 4);
        assert_eq!(g.eccentricity(NodeId(0)), 8);
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_edges(1, []).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(0));
    }

    #[test]
    fn generic_layering_matches_graph_layering() {
        let implicit = crate::graph::ImplicitGraph::grid(7, 5);
        let dense = crate::graph::generators::grid(7, 5);
        for s in [0u32, 17, 34] {
            let a = bfs_layering(&implicit, &[NodeId(s)]);
            let b = dense.bfs(NodeId(s));
            assert_eq!(a, b, "source {s}");
        }
    }

    #[test]
    fn duplicate_sources_ignored() {
        let g = path(3);
        let l = g.bfs_multi(&[NodeId(0), NodeId(0)]);
        assert_eq!(l.levels(), &[0, 1, 2]);
    }
}
