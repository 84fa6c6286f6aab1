//! The topology abstraction behind the simulator.
//!
//! [`Topology`] is the minimal interface the round engine needs from a
//! network: a node count and per-node neighborhoods. A materialized
//! [`Graph`] implements it by slicing its CSR arrays; an
//! [`ImplicitGraph`](super::ImplicitGraph) implements it by *computing* each
//! neighborhood on demand, so million-node deployments never pay for `O(m)`
//! adjacency storage. `Arc<Graph>` implements it too, so a facade can hand
//! the same materialized topology to many runs without cloning the CSR.
//!
//! Neighborhoods are exposed through a small-buffer callback
//! ([`Topology::with_neighbors`]) rather than an iterator: the implicit
//! implementation computes each queried neighborhood into one reusable
//! buffer and lends it out as a plain `&[NodeId]`, which keeps the engine's
//! hot resolution loop identical on both paths.

use super::Graph;
use crate::ids::NodeId;
use std::sync::Arc;

/// A network topology the round engine can simulate.
///
/// Nodes are `0..node_count()`, and the neighborhood of `v` is a set: free
/// of duplicates and self-loops, and symmetric (`u ∈ N(v)` iff
/// `v ∈ N(u)`). Its order is unspecified ([`Graph`]'s CSR lists are
/// ascending; a streamed unit disk lists cells in scan order), but
/// implementations must be deterministic: the same topology value always
/// reports the same neighborhoods in the same order, so simulation runs stay
/// reproducible bit-for-bit.
pub trait Topology {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Calls `f` with the neighborhood of `v`, in this topology's
    /// deterministic order, and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R;

    /// The materialized CSR graph behind this topology, if there is one.
    ///
    /// Fault plans that rewrite the topology (churn, mobility) and
    /// algorithms that need global structure (e.g. centralized GST
    /// construction) require `Some`; streamed topologies return `None` and
    /// such callers must fail with a clear error instead of silently
    /// materializing.
    fn as_graph(&self) -> Option<&Graph> {
        None
    }

    /// Replaces the topology with a rebuilt materialized graph (churn or
    /// mobility rewrote the network).
    ///
    /// # Panics
    ///
    /// Panics for topologies that cannot be rebuilt; the engine clamps
    /// topology-rewriting fault plans to materialized graphs up front, so
    /// this is unreachable behind [`Simulator`](crate::Simulator).
    fn replace(&mut self, graph: Graph) {
        let _ = graph;
        panic!(
            "this topology cannot be rebuilt: churn/mobility fault plans \
             require a materialized `Graph`"
        );
    }

    /// Estimated resident bytes of the topology representation itself (CSR
    /// arrays, or a streamed topology's spatial index and neighborhood
    /// buffer) — the topology term of the `peak_state_bytes` accounting.
    fn resident_bytes(&self) -> usize;
}

impl Topology for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(self.neighbors(v))
    }

    fn as_graph(&self) -> Option<&Graph> {
        Some(self)
    }

    fn replace(&mut self, graph: Graph) {
        *self = graph;
    }

    fn resident_bytes(&self) -> usize {
        csr_bytes(self)
    }
}

impl Topology for Arc<Graph> {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(self.neighbors(v))
    }

    fn as_graph(&self) -> Option<&Graph> {
        Some(self)
    }

    fn replace(&mut self, graph: Graph) {
        // Rebuilds under faults are per-simulator: give this simulator its
        // own copy instead of mutating a topology shared across runs.
        *self = Arc::new(graph);
    }

    fn resident_bytes(&self) -> usize {
        csr_bytes(self)
    }
}

/// Resident bytes of a materialized CSR graph: the offsets array plus both
/// directions of every adjacency entry.
pub(crate) fn csr_bytes(g: &Graph) -> usize {
    (g.node_count() + 1) * std::mem::size_of::<u32>()
        + 2 * g.edge_count() * std::mem::size_of::<NodeId>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generators;

    fn collect<T: Topology>(t: &T, v: NodeId) -> Vec<NodeId> {
        t.with_neighbors(v, <[NodeId]>::to_vec)
    }

    #[test]
    fn graph_topology_matches_direct_access() {
        let g = generators::grid(4, 3);
        for v in g.node_ids() {
            assert_eq!(collect(&g, v), g.neighbors(v).to_vec());
            assert_eq!(g.with_neighbors(v, <[NodeId]>::len), g.degree(v));
        }
        assert_eq!(Topology::node_count(&g), 12);
        assert!(g.as_graph().is_some());
    }

    #[test]
    fn arc_graph_shares_without_cloning() {
        let g = Arc::new(generators::path(5));
        let h = Arc::clone(&g);
        assert_eq!(Topology::node_count(&h), 5);
        assert_eq!(collect(&h, NodeId::new(1)), vec![NodeId::new(0), NodeId::new(2)]);
        assert!(h.as_graph().is_some());
    }

    #[test]
    fn arc_replace_does_not_mutate_the_shared_graph() {
        let original = Arc::new(generators::path(4));
        let mut mine = Arc::clone(&original);
        mine.replace(generators::star(4));
        assert_eq!(original.degree(NodeId::new(0)), 1, "shared copy untouched");
        assert_eq!(mine.with_neighbors(NodeId::new(0), <[NodeId]>::len), 3);
    }

    #[test]
    fn csr_bytes_counts_offsets_and_adjacency() {
        let g = generators::path(4); // 3 edges
        assert_eq!(g.resident_bytes(), 5 * 4 + 6 * 4);
    }
}
