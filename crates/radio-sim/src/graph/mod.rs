//! Undirected graphs in compressed sparse row (CSR) form.
//!
//! Radio networks in the paper are connected, undirected, simple graphs
//! `G = (V, E)`. [`Graph`] stores the adjacency structure immutably in CSR
//! form: cache-friendly neighbor scans are the hot loop of the simulator.

mod builder;
pub mod generators;
mod implicit;
mod topology;
mod traversal;

pub use builder::{GraphBuilder, GraphError};
pub use implicit::ImplicitGraph;
pub use topology::Topology;
pub use traversal::{bfs_layering, BfsLayering, Traversal, UNREACHABLE};

use crate::ids::NodeId;
use std::fmt;

/// An immutable, undirected, simple graph in CSR form.
///
/// Construct one with [`Graph::from_edges`], a [`GraphBuilder`], or the
/// [`generators`] library.
///
/// ```
/// use radio_sim::{Graph, NodeId};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `adj` with the neighbors of `v`.
    offsets: Vec<u32>,
    /// Concatenated, per-node-sorted adjacency lists.
    adj: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Edges are undirected; duplicates are merged.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on self-loops or endpoints `>= n`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v))?;
        }
        Ok(b.build())
    }

    pub(crate) fn from_parts(offsets: Vec<u32>, adj: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, adj.len());
        Graph { offsets, adj }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// The neighbors of `v`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Whether `{u, v}` is an edge. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all node ids `0..n`.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Maximum degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.node_ids().map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

/// `⌈log2 x⌉` for `x ≥ 1`.
pub fn ceil_log2(x: usize) -> u32 {
    debug_assert!(x >= 1);
    (usize::BITS - x.saturating_sub(1).leading_zeros()).max(1)
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_basic() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(3)]);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert!(matches!(Graph::from_edges(3, [(1, 1)]), Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn out_of_bounds_rejected() {
        assert!(matches!(Graph::from_edges(3, [(0, 3)]), Err(GraphError::NodeOutOfBounds { .. })));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn degree_stats() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        assert!(format!("{g:?}").contains("Graph"));
    }
}
