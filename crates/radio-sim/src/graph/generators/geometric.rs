//! Geometric (unit-disk) radio deployments.

use super::random::connect_components;
use crate::graph::{Graph, GraphBuilder};
use rand::Rng;

/// Unit-disk graph: `n` points uniform in the unit square, an edge whenever
/// two points are within `radius`. Isolated components are stitched together
/// by connecting each leftover component to its geometrically closest
/// neighbor component, preserving the deployment's spatial character.
///
/// This is the classical abstraction of a physical radio deployment and the
/// workload behind the paper's practical motivation ("most practical radio
/// networks can detect collisions").
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0`.
pub fn unit_disk(n: usize, radius: f64, rng: &mut impl Rng) -> Graph {
    assert!(n >= 1, "unit-disk graph requires at least one node");
    assert!(radius > 0.0, "radius must be positive");

    let points: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();

    // Grid-bucket the points so neighbor scans are near-linear.
    let cells_per_axis = grid_cells_per_axis(n, radius);
    let key = |x: f64, y: f64| -> (usize, usize) {
        (
            ((x * cells_per_axis as f64) as usize).min(cells_per_axis - 1),
            ((y * cells_per_axis as f64) as usize).min(cells_per_axis - 1),
        )
    };
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); cells_per_axis * cells_per_axis];
    for (i, &(x, y)) in points.iter().enumerate() {
        let (cx, cy) = key(x, y);
        buckets[cy * cells_per_axis + cx].push(i);
    }

    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for (i, &(x, y)) in points.iter().enumerate() {
        let (cx, cy) = key(x, y);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= cells_per_axis as i64 || ny >= cells_per_axis as i64 {
                    continue;
                }
                for &j in &buckets[ny as usize * cells_per_axis + nx as usize] {
                    if j <= i {
                        continue;
                    }
                    let (px, py) = points[j];
                    let (ex, ey) = (px - x, py - y);
                    if ex * ex + ey * ey <= r2 {
                        b.add_edge_raw(i, j).expect("valid disk edge");
                    }
                }
            }
        }
    }
    // Deployments below the connectivity threshold are stitched; the stitch
    // edges are random rather than nearest-pair for simplicity — they are a
    // vanishing fraction of edges for any radius of practical interest.
    connect_components(b, rng)
}

/// Cells per axis of a unit-disk bucket grid over the unit square, for
/// [`unit_disk`] and the streamed `ImplicitGraph::unit_disk`. At most
/// `1 / radius`, so the cell side `1 / cells` of at least `radius` keeps the
/// 3x3 neighbor scan sound; at most `⌈√n⌉ + 1`, so the grid stays `O(n)`
/// cells however small the radius.
pub(crate) fn grid_cells_per_axis(n: usize, radius: f64) -> usize {
    let max_axis = (n as f64).sqrt().ceil() as usize + 1;
    ((1.0 / radius) as usize).clamp(1, max_axis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Traversal;
    use crate::rng::stream_rng;
    use crate::NodeId;

    #[test]
    fn udg_connected_across_radii() {
        for (seed, radius) in [(0u64, 0.05), (1, 0.15), (2, 0.4)] {
            let mut rng = stream_rng(seed, 0);
            let g = unit_disk(200, radius, &mut rng);
            assert!(g.is_connected(), "radius {radius}");
            assert_eq!(g.node_count(), 200);
        }
    }

    #[test]
    fn udg_density_grows_with_radius() {
        let sparse = unit_disk(300, 0.05, &mut stream_rng(7, 0));
        let dense = unit_disk(300, 0.25, &mut stream_rng(7, 0));
        assert!(dense.edge_count() > sparse.edge_count() * 4);
    }

    #[test]
    fn udg_deterministic_per_seed() {
        let a = unit_disk(100, 0.1, &mut stream_rng(5, 0));
        let b = unit_disk(100, 0.1, &mut stream_rng(5, 0));
        assert_eq!(a, b);
    }

    #[test]
    fn udg_matches_bruteforce_edges_for_connected_radius() {
        // With a radius this large the raw disk graph is already connected,
        // so no stitch edges are added and we can compare exactly.
        let mut rng = stream_rng(11, 0);
        let n = 60;
        let points: Vec<(f64, f64)> =
            (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        // Re-generate with the same stream: the generator draws the same
        // points first.
        let g = unit_disk(n, 0.5, &mut stream_rng(11, 0));
        let mut expected = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (points[i].0 - points[j].0, points[i].1 - points[j].1);
                if dx * dx + dy * dy <= 0.25 {
                    expected += 1;
                }
            }
        }
        assert_eq!(g.edge_count(), expected);
    }

    #[test]
    fn udg_with_capped_grid_keeps_every_pair_and_stitches_components() {
        // Radii below 1/(⌈√n⌉ + 1): the grid is capped, so its cells are
        // wider than the radius.
        for (seed, n, radius) in [(3u64, 400, 0.02), (4, 64, 1e-9)] {
            let mut rng = stream_rng(seed, 0);
            let points: Vec<(f64, f64)> =
                (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
            let g = unit_disk(n, radius, &mut stream_rng(seed, 0));
            let mut component: Vec<usize> = (0..n).collect();
            let (mut pairs, mut components) = (0, n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let (dx, dy) = (points[i].0 - points[j].0, points[i].1 - points[j].1);
                    if dx * dx + dy * dy <= radius * radius {
                        assert!(g.has_edge(NodeId::new(i), NodeId::new(j)), "missed {i}-{j}");
                        pairs += 1;
                        let (ci, cj) = (component[i], component[j]);
                        if ci != cj {
                            components -= 1;
                            component.iter_mut().filter(|c| **c == cj).for_each(|c| *c = ci);
                        }
                    }
                }
            }
            assert_eq!(g.edge_count(), pairs + components - 1, "({n}, {radius})");
            assert!(g.is_connected());
        }
    }
}
