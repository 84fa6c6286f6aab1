//! Workload graph generators.
//!
//! Every experiment in the reproduction sweeps over graphs from this library:
//!
//! * [`basic`] — deterministic families: paths, cycles, stars, cliques, grids,
//!   balanced binary trees;
//! * [`random`] — seeded random families: connected `G(n,p)`, random trees,
//!   random bipartite graphs;
//! * [`geometric`] — unit-disk graphs, the classical model of physical radio
//!   deployments;
//! * [`clustered`] — high-diameter/high-density hybrids (cluster chains,
//!   caterpillars) that separate the `D`-dependence of
//!   broadcast algorithms from their collision behaviour.
//!
//! All random generators take an explicit RNG so runs stay deterministic.

pub mod basic;
pub mod clustered;
pub mod geometric;
pub mod random;

pub use basic::{binary_tree, complete, cycle, grid, path, star};
pub use clustered::{caterpillar, cluster_chain};
pub use geometric::unit_disk;
pub use random::{gnp_connected, random_bipartite, random_tree, Bipartite};
