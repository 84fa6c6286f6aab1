//! Streamed topologies: neighborhoods computed on demand.
//!
//! An [`ImplicitGraph`] represents a deterministic graph family — Grid,
//! UnitDisk, or Gnp — *implicitly*: instead of materializing `O(m)` CSR
//! adjacency up front, it derives the neighborhood of a node when (and only
//! when) the engine asks for it. GHK's algorithm needs no global topology
//! knowledge, so neither does the simulator: a million-node pipeline run
//! keeps only the spatial index (UnitDisk) and one reusable neighborhood
//! buffer resident.
//!
//! Determinism: every family is a pure function of its parameters. UnitDisk
//! hashes node ids to positions in the unit square with SplitMix64
//! ([`rng::derive_seed`]); Gnp derives one SplitMix64 coin per canonical
//! node pair `(u < v)`. These are *hashed* families — deterministic per
//! `(n, parameter, seed)` and distributionally equivalent to the sequential
//! [`generators`](super::generators) families, but not edge-identical to
//! them (the sequential generators draw positions from a stream RNG and
//! stitch disconnected components, both inherently global operations).
//! [`ImplicitGraph::materialize`] builds the exact CSR graph of the family
//! by an independent (brute-force) construction, which the property suite
//! uses to verify streamed-vs-materialized neighborhood identity. The Grid
//! family *is* edge-identical to [`generators::grid`](super::generators::grid).

use super::topology::Topology;
use super::{generators, Graph};
use crate::ids::NodeId;
use crate::rng;
use std::cell::RefCell;

/// The graph family an [`ImplicitGraph`] streams.
#[derive(Clone, Debug)]
enum Family {
    /// `w × h` grid, node `(x, y)` at index `y * w + x` — edge-identical to
    /// [`generators::grid`].
    Grid { w: usize, h: usize },
    /// Hashed unit-disk deployment: position of node `i` is
    /// `(unit(derive_seed(seed, 2i)), unit(derive_seed(seed, 2i+1)))`, an
    /// edge whenever two positions are within `radius`.
    UnitDisk { radius: f64, seed: u64, cells_per_axis: usize, index: CellIndex },
    /// Hashed Erdős–Rényi `G(n, p)`: the pair `(u < v)` is an edge iff
    /// `unit(derive_seed(seed, (u << 32) | v)) < p`.
    Gnp { p: f64, seed: u64 },
}

/// CSR bucketing of node ids per spatial cell (UnitDisk only): `O(n)` ids
/// plus one offset per cell, and the hashed positions themselves in the same
/// cell order — all `x` coordinates, then all `y` coordinates, in one
/// allocation — so a 3×3-cell scan streams three contiguous row ranges
/// instead of re-deriving two SplitMix64 words (or chasing a by-id position)
/// per candidate. Positions stay `f64`: [`ImplicitGraph::materialize`]
/// brute-forces the same `f64` coordinates, and streamed-vs-materialized
/// identity is bit-exact only if both sides compare identical floats.
#[derive(Clone, Debug)]
struct CellIndex {
    offsets: Vec<u32>,
    nodes: Vec<u32>,
    coords: Vec<f64>,
}

impl CellIndex {
    /// The `x` and `y` coordinates of the nodes in cell order.
    fn coords(&self) -> (&[f64], &[f64]) {
        self.coords.split_at(self.nodes.len())
    }
}

/// Candidates one branch-free accept pass compacts on the stack.
const SCAN_CHUNK: usize = 64;

/// A streamed topology: Grid, UnitDisk or Gnp neighborhoods computed on
/// demand, on every query, into one reusable buffer.
///
/// Implements [`Topology`]; [`Topology::as_graph`] returns `None`, so fault
/// plans that rewrite the topology (churn, mobility) are rejected up front
/// rather than silently materializing.
#[derive(Clone, Debug)]
pub struct ImplicitGraph {
    n: usize,
    family: Family,
    scratch: RefCell<Vec<NodeId>>,
}

/// Maps a SplitMix64 word to `[0, 1)` with 53 bits of precision.
#[inline]
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Hashed position of node `i` in the unit square.
#[inline]
fn position(seed: u64, i: u64) -> (f64, f64) {
    (unit_f64(rng::derive_seed(seed, 2 * i)), unit_f64(rng::derive_seed(seed, 2 * i + 1)))
}

/// The SplitMix64 coin for the canonical pair `u < v`, in `[0, 1)`.
#[inline]
fn pair_coin(seed: u64, u: u32, v: u32) -> f64 {
    debug_assert!(u < v);
    unit_f64(rng::derive_seed(seed, (u64::from(u) << 32) | u64::from(v)))
}

impl ImplicitGraph {
    /// Streamed `w × h` grid — edge-identical to [`generators::grid`].
    ///
    /// # Panics
    ///
    /// Panics if `w == 0 || h == 0`.
    pub fn grid(w: usize, h: usize) -> Self {
        assert!(w >= 1 && h >= 1, "grid requires positive dimensions");
        Self::with_family(w * h, Family::Grid { w, h })
    }

    /// Streamed hashed unit-disk deployment: `n` SplitMix64-hashed positions
    /// in the unit square, an edge whenever two are within `radius`.
    ///
    /// Builds the spatial bucket index (`O(n)` ids, one offset per cell) so
    /// a neighborhood query scans 9 cells instead of all nodes. Unlike
    /// [`generators::unit_disk`] no connectivity stitching is applied — pick
    /// a radius above the connectivity threshold for broadcast workloads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `radius <= 0`.
    pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Self {
        assert!(n >= 1, "unit-disk graph requires at least one node");
        assert!(radius > 0.0, "radius must be positive");
        let cells_per_axis = generators::geometric::grid_cells_per_axis(n, radius);
        let cell_of = |x: f64, y: f64| -> usize {
            let cx = ((x * cells_per_axis as f64) as usize).min(cells_per_axis - 1);
            let cy = ((y * cells_per_axis as f64) as usize).min(cells_per_axis - 1);
            cy * cells_per_axis + cx
        };
        let positions: Vec<(f64, f64)> = (0..n as u64).map(|i| position(seed, i)).collect();
        let mut counts = vec![0u32; cells_per_axis * cells_per_axis + 1];
        for &(x, y) in &positions {
            counts[cell_of(x, y) + 1] += 1;
        }
        for c in 1..counts.len() {
            counts[c] += counts[c - 1];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut nodes = vec![0u32; n];
        let mut coords = vec![0f64; 2 * n];
        for (i, &(x, y)) in positions.iter().enumerate() {
            let c = cell_of(x, y);
            let at = cursor[c] as usize;
            (nodes[at], coords[at], coords[n + at]) = (i as u32, x, y);
            cursor[c] += 1;
        }
        let index = CellIndex { offsets, nodes, coords };
        Self::with_family(n, Family::UnitDisk { radius, seed, cells_per_axis, index })
    }

    /// Streamed hashed `G(n, p)`: one SplitMix64 coin per canonical pair.
    ///
    /// Every neighborhood query, repeats included, costs `O(n)` hash
    /// evaluations (nothing is cached), so a run pays `O(n)` per
    /// transmission. Where the CSR fits, [`ImplicitGraph::materialize`]
    /// builds the same graph once and answers in `O(degree)`; Grid and
    /// UnitDisk stream at million-node scale. Unlike
    /// [`generators::gnp_connected`] no connectivity stitching is applied.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `p` is not in `[0, 1]`.
    pub fn gnp(n: usize, p: f64, seed: u64) -> Self {
        assert!(n >= 1, "gnp requires at least one node");
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        Self::with_family(n, Family::Gnp { p, seed })
    }

    fn with_family(n: usize, family: Family) -> Self {
        ImplicitGraph { n, family, scratch: RefCell::default() }
    }

    /// Computes the neighborhood of `v` into `out`.
    ///
    /// Grid and Gnp neighborhoods come out ascending. UnitDisk ones come in
    /// cell-scan order (the 3×3 block row by row, each cell's nodes by id)
    /// and are left unsorted: the channel treats a neighborhood as a set,
    /// and the one reader that needs ascending ids (erasure's coins) sorts
    /// its own copy.
    fn compute_into(&self, v: u32, out: &mut Vec<NodeId>) {
        out.clear();
        match &self.family {
            Family::Grid { w, h } => {
                let (w, h) = (*w, *h);
                let (x, y) = (v as usize % w, v as usize / w);
                if y > 0 {
                    out.push(NodeId(v - w as u32));
                }
                if x > 0 {
                    out.push(NodeId(v - 1));
                }
                if x + 1 < w {
                    out.push(NodeId(v + 1));
                }
                if y + 1 < h {
                    out.push(NodeId(v + w as u32));
                }
            }
            Family::UnitDisk { radius, seed, cells_per_axis, index } => {
                let cpa = *cells_per_axis;
                let (x, y) = position(*seed, u64::from(v));
                let cx = ((x * cpa as f64) as usize).min(cpa - 1);
                let cy = ((y * cpa as f64) as usize).min(cpa - 1);
                let (x_lo, x_hi) = (cx.saturating_sub(1), (cx + 1).min(cpa - 1));
                let r2 = radius * radius;
                let (xs, ys) = index.coords();
                let mut hits = [NodeId(0); SCAN_CHUNK];
                // The three cells of one row are adjacent in cell order, so
                // each row of the 3×3 block is one contiguous range.
                for row in cy.saturating_sub(1)..=(cy + 1).min(cpa - 1) {
                    let lo = index.offsets[row * cpa + x_lo] as usize;
                    let hi = index.offsets[row * cpa + x_hi + 1] as usize;
                    for start in (lo..hi).step_by(SCAN_CHUNK) {
                        let end = (start + SCAN_CHUNK).min(hi);
                        let (ids, xs, ys) =
                            (&index.nodes[start..end], &xs[start..end], &ys[start..end]);
                        // Branch-free accept: always write, advance on a hit.
                        let mut kept = 0;
                        for ((&j, &px), &py) in ids.iter().zip(xs).zip(ys) {
                            let (ex, ey) = (px - x, py - y);
                            hits[kept] = NodeId(j);
                            kept += usize::from((ex * ex + ey * ey <= r2) & (j != v));
                        }
                        out.extend_from_slice(&hits[..kept]);
                    }
                }
            }
            Family::Gnp { p, seed } => {
                for u in 0..self.n as u32 {
                    if u == v {
                        continue;
                    }
                    let (a, b) = (u.min(v), u.max(v));
                    if pair_coin(*seed, a, b) < *p {
                        out.push(NodeId(u));
                    }
                }
            }
        }
    }

    /// Materializes the exact CSR graph of this family.
    ///
    /// Grid delegates to [`generators::grid`]; UnitDisk and Gnp rebuild the
    /// edge set by an independent brute-force scan over all pairs (`O(n²)` —
    /// intended for the test/verification sizes, not for streaming scale).
    /// The property suite asserts per-node neighborhood identity between
    /// this graph and the streamed queries.
    pub fn materialize(&self) -> Graph {
        match &self.family {
            Family::Grid { w, h } => generators::grid(*w, *h),
            Family::UnitDisk { radius, seed, .. } => {
                let r2 = radius * radius;
                let points: Vec<(f64, f64)> =
                    (0..self.n as u64).map(|i| position(*seed, i)).collect();
                Graph::from_edges(
                    self.n,
                    (0..self.n as u32).flat_map(|i| {
                        let points = &points;
                        ((i + 1)..self.n as u32).filter_map(move |j| {
                            let (ex, ey) = (
                                points[i as usize].0 - points[j as usize].0,
                                points[i as usize].1 - points[j as usize].1,
                            );
                            (ex * ex + ey * ey <= r2).then_some((i, j))
                        })
                    }),
                )
                .expect("hashed disk edges are valid")
            }
            Family::Gnp { p, seed } => Graph::from_edges(
                self.n,
                (0..self.n as u32).flat_map(|i| {
                    ((i + 1)..self.n as u32)
                        .filter(move |&j| pair_coin(*seed, i, j) < *p)
                        .map(move |j| (i, j))
                }),
            )
            .expect("hashed gnp edges are valid"),
        }
    }
}

impl Topology for ImplicitGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.n
    }

    /// Computes `v`'s neighborhood into the scratch buffer and lends it.
    /// `f` must not query this topology re-entrantly (the engine never
    /// does).
    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        assert!(v.index() < self.n, "node {v:?} out of bounds for {} nodes", self.n);
        let mut scratch = self.scratch.borrow_mut();
        self.compute_into(v.raw(), &mut scratch);
        f(&scratch)
    }

    fn resident_bytes(&self) -> usize {
        let index = match &self.family {
            Family::UnitDisk { index, .. } => {
                std::mem::size_of_val(&index.offsets[..])
                    + std::mem::size_of_val(&index.nodes[..])
                    + std::mem::size_of_val(&index.coords[..])
            }
            Family::Grid { .. } | Family::Gnp { .. } => 0,
        };
        let scratch = self.scratch.borrow().capacity() * std::mem::size_of::<NodeId>();
        std::mem::size_of::<Self>() + index + scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nbrs(t: &ImplicitGraph, v: u32) -> Vec<NodeId> {
        t.with_neighbors(NodeId(v), <[NodeId]>::to_vec)
    }

    /// `ns` sorted: a neighborhood as a set, for comparisons that must not
    /// depend on the order a topology lists it in.
    fn as_set(mut ns: Vec<NodeId>) -> Vec<NodeId> {
        ns.sort_unstable();
        ns
    }

    #[test]
    fn grid_is_edge_identical_to_the_materialized_generator() {
        for (w, h) in [(1, 1), (1, 7), (5, 1), (4, 3), (9, 9)] {
            let implicit = ImplicitGraph::grid(w, h);
            let dense = generators::grid(w, h);
            assert_eq!(implicit.node_count(), dense.node_count());
            for v in dense.node_ids() {
                assert_eq!(
                    nbrs(&implicit, v.raw()),
                    dense.neighbors(v),
                    "grid({w},{h}) node {v:?}"
                );
            }
        }
    }

    #[test]
    fn unit_disk_matches_its_materialization() {
        // The last input is dense like the benchmark's disk: ~20 nodes per
        // cell, mean degree ~60.
        for (n, radius, seed) in
            [(1, 0.5, 0), (40, 0.25, 7), (120, 0.1, 9), (200, 0.04, 3), (2_000, 0.1, 4)]
        {
            let implicit = ImplicitGraph::unit_disk(n, radius, seed);
            let dense = implicit.materialize();
            for v in dense.node_ids() {
                assert_eq!(
                    as_set(nbrs(&implicit, v.raw())),
                    as_set(dense.neighbors(v).to_vec()),
                    "unit_disk({n},{radius},{seed}) node {v:?}"
                );
            }
        }
    }

    #[test]
    fn gnp_matches_its_materialization() {
        for (n, p, seed) in [(1, 0.5, 0), (30, 0.0, 1), (30, 1.0, 1), (64, 0.12, 11)] {
            let implicit = ImplicitGraph::gnp(n, p, seed);
            let dense = implicit.materialize();
            for v in dense.node_ids() {
                assert_eq!(nbrs(&implicit, v.raw()), dense.neighbors(v), "gnp({n},{p}) node {v:?}");
            }
        }
    }

    #[test]
    fn neighborhoods_are_symmetric_sets() {
        let t = ImplicitGraph::unit_disk(150, 0.12, 42);
        for v in 0..150u32 {
            let ns = nbrs(&t, v);
            assert!(as_set(ns.clone()).windows(2).all(|w| w[0] < w[1]), "duplicate at {v}");
            assert!(!ns.contains(&NodeId(v)), "self-loop at {v}");
            for u in ns {
                assert!(nbrs(&t, u.raw()).contains(&NodeId(v)), "asymmetric {v}-{u:?}");
            }
        }
    }

    #[test]
    fn streamed_topology_has_no_materialized_graph() {
        assert!(ImplicitGraph::grid(3, 3).as_graph().is_none());
    }

    #[test]
    fn resident_bytes_stay_small() {
        let t = ImplicitGraph::unit_disk(10_000, 0.02, 5);
        let Family::UnitDisk { index, .. } = &t.family else { unreachable!() };
        let index_bytes = 4 * (index.offsets.len() + index.nodes.len()) + 8 * index.coords.len();
        // Query every node, so the buffer has held the largest neighborhood.
        let max_degree = (0..10_000).map(|v| nbrs(&t, v).len()).max().unwrap();
        // Spatial index (ids + 16 B/node positions) plus one neighborhood's
        // buffer, which grows by doubling, so to under twice the largest:
        // O(n), far below the ~16 B/edge CSR cost of a materialized build.
        let bound = std::mem::size_of::<ImplicitGraph>() + index_bytes + 2 * max_degree * 4;
        assert!(t.resident_bytes() <= bound, "{} > {bound}", t.resident_bytes());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_query_panics() {
        nbrs(&ImplicitGraph::grid(2, 2), 4);
    }
}
