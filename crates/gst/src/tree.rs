//! The labelled GST structure.

use radio_sim::NodeId;
use std::error::Error;
use std::fmt;

/// Errors raised when assembling a [`Gst`] from per-node labels.
///
/// These are *shape* errors (inconsistent labels); semantic GST violations
/// (wrong ranks, collision-freeness breaches) are reported by
/// [`verify_gst`](crate::verify::verify_gst) instead, because constructions
/// under test must be able to produce structurally-sound but *invalid* trees
/// for the verifier to flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GstShapeError {
    /// Label arrays have inconsistent lengths.
    LengthMismatch,
    /// A root (no parent) has nonzero level, or a non-root has level 0.
    RootLevel {
        /// The offending node.
        node: NodeId,
    },
    /// `level(v) != level(parent(v)) + 1`.
    ParentLevel {
        /// The offending node.
        node: NodeId,
    },
    /// A parent pointer is out of bounds.
    ParentOutOfBounds {
        /// The offending node.
        node: NodeId,
    },
    /// A rank of 0 (ranks start at 1).
    ZeroRank {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for GstShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GstShapeError::LengthMismatch => write!(f, "label arrays have different lengths"),
            GstShapeError::RootLevel { node } => {
                write!(f, "root/level inconsistency at {node}")
            }
            GstShapeError::ParentLevel { node } => {
                write!(f, "parent level is not one less at {node}")
            }
            GstShapeError::ParentOutOfBounds { node } => {
                write!(f, "parent pointer out of bounds at {node}")
            }
            GstShapeError::ZeroRank { node } => write!(f, "rank 0 at {node}"),
        }
    }
}

impl Error for GstShapeError {}

/// One fast stretch: a maximal same-rank path down the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stretch {
    /// The common rank of all stretch nodes.
    pub rank: u32,
    /// The nodes of the stretch, from the top (closest to the root) down.
    /// Always non-empty; a trivial stretch has a single node.
    pub nodes: Vec<NodeId>,
}

impl Stretch {
    /// Number of nodes on the stretch.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Stretches are never empty; provided for `len`/`is_empty` symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first (topmost) node.
    pub fn head(&self) -> NodeId {
        self.nodes[0]
    }
}

/// A gathering spanning tree (or forest): per-node levels, ranks and parents.
///
/// A distributed GST construction must leave each node knowing four items
/// (Section 2.1): its level, its rank, its parent's id and its parent's rank.
/// `Gst` is exactly that knowledge, collected; [`Gst::parent_rank`] and
/// [`Gst::is_stretch_start`] derive the stretch structure from it.
#[derive(Clone, PartialEq, Eq)]
pub struct Gst {
    level: Vec<u32>,
    rank: Vec<u32>,
    parent: Vec<Option<u32>>,
    /// Children lists, derived from `parent`.
    children: Vec<Vec<NodeId>>,
}

impl Gst {
    /// Assembles a GST from per-node labels.
    ///
    /// # Errors
    ///
    /// Returns a [`GstShapeError`] when the labels are structurally
    /// inconsistent (see the enum's docs). Semantic validity against a graph
    /// is checked separately by [`verify_gst`](crate::verify::verify_gst).
    pub fn new(
        level: Vec<u32>,
        rank: Vec<u32>,
        parent: Vec<Option<u32>>,
    ) -> Result<Self, GstShapeError> {
        let n = level.len();
        if rank.len() != n || parent.len() != n {
            return Err(GstShapeError::LengthMismatch);
        }
        for v in 0..n {
            let node = NodeId::new(v);
            match parent[v] {
                None => {
                    if level[v] != 0 {
                        return Err(GstShapeError::RootLevel { node });
                    }
                }
                Some(p) => {
                    if p as usize >= n {
                        return Err(GstShapeError::ParentOutOfBounds { node });
                    }
                    if level[v] == 0 {
                        return Err(GstShapeError::RootLevel { node });
                    }
                    if level[p as usize] + 1 != level[v] {
                        return Err(GstShapeError::ParentLevel { node });
                    }
                }
            }
            if rank[v] == 0 {
                return Err(GstShapeError::ZeroRank { node });
            }
        }
        let mut children = vec![Vec::new(); n];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p as usize].push(NodeId::new(v));
            }
        }
        Ok(Gst { level, rank, parent, children })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.level.len()
    }

    /// BFS level of `v` (0 for roots).
    #[inline]
    pub fn level(&self, v: NodeId) -> u32 {
        self.level[v.index()]
    }

    /// Rank of `v` (at least 1).
    #[inline]
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v.index()]
    }

    /// Parent of `v` in the tree, `None` for roots.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()].map(NodeId::from)
    }

    /// Rank of `v`'s parent, `None` for roots.
    #[inline]
    pub fn parent_rank(&self, v: NodeId) -> Option<u32> {
        self.parent[v.index()].map(|p| self.rank[p as usize])
    }

    /// Children of `v`, in id order.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// The roots, in id order.
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.node_count()).filter(|&v| self.parent[v].is_none()).map(NodeId::new).collect()
    }

    /// The largest rank in the tree.
    pub fn max_rank(&self) -> u32 {
        self.rank.iter().copied().max().unwrap_or(0)
    }

    /// The largest level in the tree.
    pub fn max_level(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Whether `v` begins a fast stretch: it is a root or its parent has a
    /// different (necessarily larger) rank.
    #[inline]
    pub fn is_stretch_start(&self, v: NodeId) -> bool {
        self.parent_rank(v) != Some(self.rank(v))
    }

    /// The unique same-rank child of `v` (the next node of `v`'s stretch),
    /// if any.
    ///
    /// By the ranking rule a node can have at most one child of its own rank;
    /// if labels violate that rule (a construction bug), the lowest-id one is
    /// returned and [`verify_gst`](crate::verify::verify_gst) flags it.
    pub fn stretch_child(&self, v: NodeId) -> Option<NodeId> {
        self.children(v).iter().copied().find(|&c| self.rank(c) == self.rank(v))
    }

    /// Whether `v` performs *fast transmissions*: it has a same-rank child to
    /// pipeline waves to. See the crate docs for why end-of-stretch nodes
    /// must stay silent in fast rounds.
    #[inline]
    pub fn is_fast_transmitter(&self, v: NodeId) -> bool {
        self.stretch_child(v).is_some()
    }

    /// Extracts all fast stretches, each listed top-down. Every node appears
    /// in exactly one stretch (trivial stretches included).
    pub fn stretches(&self) -> Vec<Stretch> {
        let mut out = Vec::new();
        for v in 0..self.node_count() {
            let v = NodeId::new(v);
            if !self.is_stretch_start(v) {
                continue;
            }
            let mut nodes = vec![v];
            let mut cur = v;
            while let Some(next) = self.stretch_child(cur) {
                nodes.push(next);
                cur = next;
            }
            out.push(Stretch { rank: self.rank(v), nodes });
        }
        out
    }

    /// Per-node label views, exposed for serialization into protocols.
    pub fn levels(&self) -> &[u32] {
        &self.level
    }

    /// Ranks indexed by node.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// Raw parent pointers indexed by node.
    pub fn parents(&self) -> &[Option<u32>] {
        &self.parent
    }
}

impl fmt::Debug for Gst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gst")
            .field("nodes", &self.node_count())
            .field("roots", &self.roots().len())
            .field("max_level", &self.max_level())
            .field("max_rank", &self.max_rank())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 7-node example: path 0-1-2 plus star children on 1 and 2.
    ///
    /// ```text
    /// level:   0    1      2
    ///          0 -- 1 -- 2
    ///               |\     \
    ///               (none)  3,4   (children of 2 at level 2)
    /// ```
    fn sample() -> Gst {
        // 0 root; 1 child of 0; 2,3 children of 1; 4 child of 2.
        let level = vec![0, 1, 2, 2, 3];
        let parent = vec![None, Some(0), Some(1), Some(1), Some(2)];
        let rank = crate::ranking::compute_ranks(&parent);
        Gst::new(level, rank, parent).unwrap()
    }

    #[test]
    fn accessors() {
        let g = sample();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.roots(), vec![NodeId::new(0)]);
        assert_eq!(g.level(NodeId::new(4)), 3);
        assert_eq!(g.parent(NodeId::new(4)), Some(NodeId::new(2)));
        assert_eq!(g.parent(NodeId::new(0)), None);
        assert_eq!(g.children(NodeId::new(1)), &[NodeId::new(2), NodeId::new(3)]);
        assert_eq!(g.max_level(), 3);
    }

    #[test]
    fn ranks_and_stretches() {
        let g = sample();
        // 3, 4 leaves rank 1; 2 has one rank-1 child -> rank 1; 1 has children
        // ranks {1, 1} -> rank 2; 0 has one rank-2 child -> rank 2.
        assert_eq!(g.ranks(), &[2, 2, 1, 1, 1]);
        assert_eq!(g.max_rank(), 2);
        assert!(g.is_stretch_start(NodeId::new(0)));
        assert!(!g.is_stretch_start(NodeId::new(1)));
        assert!(g.is_stretch_start(NodeId::new(2)));
        assert!(!g.is_stretch_start(NodeId::new(4)));

        let stretches = g.stretches();
        assert_eq!(stretches.len(), 3);
        let total: usize = stretches.iter().map(Stretch::len).sum();
        assert_eq!(total, 5);
        let big = stretches.iter().find(|s| s.head() == NodeId::new(2)).unwrap();
        assert_eq!(big.nodes, vec![NodeId::new(2), NodeId::new(4)]);
    }

    #[test]
    fn fast_transmitter_requires_same_rank_child() {
        let g = sample();
        assert!(g.is_fast_transmitter(NodeId::new(0))); // child 1 has rank 2
        assert!(g.is_fast_transmitter(NodeId::new(2))); // child 4 has rank 1
        assert!(!g.is_fast_transmitter(NodeId::new(1))); // children rank 1 < 2
        assert!(!g.is_fast_transmitter(NodeId::new(3))); // leaf
        assert!(!g.is_fast_transmitter(NodeId::new(4))); // leaf
    }

    #[test]
    fn multi_root_forest() {
        let level = vec![0, 0, 1, 1];
        let parent = vec![None, None, Some(0), Some(1)];
        let rank = crate::ranking::compute_ranks(&parent);
        let g = Gst::new(level, rank, parent).unwrap();
        assert_eq!(g.roots(), vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn shape_errors() {
        assert_eq!(
            Gst::new(vec![0], vec![1, 1], vec![None]).unwrap_err(),
            GstShapeError::LengthMismatch
        );
        assert!(matches!(
            Gst::new(vec![1], vec![1], vec![None]).unwrap_err(),
            GstShapeError::RootLevel { .. }
        ));
        assert!(matches!(
            Gst::new(vec![0, 0], vec![1, 1], vec![None, Some(0)]).unwrap_err(),
            GstShapeError::RootLevel { .. }
        ));
        assert!(matches!(
            Gst::new(vec![0, 2], vec![1, 1], vec![None, Some(0)]).unwrap_err(),
            GstShapeError::ParentLevel { .. }
        ));
        assert!(matches!(
            Gst::new(vec![0, 1], vec![1, 1], vec![None, Some(9)]).unwrap_err(),
            GstShapeError::ParentOutOfBounds { .. }
        ));
        assert!(matches!(
            Gst::new(vec![0], vec![0], vec![None]).unwrap_err(),
            GstShapeError::ZeroRank { .. }
        ));
    }

    #[test]
    fn shape_error_display() {
        let e = GstShapeError::RootLevel { node: NodeId::new(3) };
        assert!(e.to_string().contains("v3"));
    }

    #[test]
    fn debug_nonempty() {
        assert!(format!("{:?}", sample()).contains("Gst"));
    }
}
