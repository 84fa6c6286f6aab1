//! # broadcast — the paper's algorithms
//!
//! Distributed algorithms from Ghaffari, Haeupler, Khabbazian, *"Randomized
//! Broadcast in Radio Networks with Collision Detection"* (PODC 2013):
//!
//! | module | paper reference | result |
//! |--------|-----------------|--------|
//! | [`decay`] | Section 2.2.1, Lemma 2.2, Lemma 3.2 | the BGI Decay primitive and its MMV framing |
//! | [`layering`] | Section 2.2.2 & proof of Thm 1.1 | BFS layering with and without collision detection |
//! | [`recruiting`] | Lemma 2.3 | the Recruiting protocol |
//! | [`construction`] | Theorem 2.1, Sections 2.2.2–2.2.4 | distributed GST construction (Bipartite Assignment) |
//! | [`virtual_labels`] | Lemma 3.10 | distributed virtual-distance labeling |
//! | [`schedule`] | Section 3.2 | the multi-message-viable GST schedule (and the level-keyed ablation) |
//! | [`single_message`] | Theorem 1.1 | single-message broadcast in `O(D + log^6 n)` with CD |
//! | [`multi_message`] | Theorems 1.2 & 1.3 | k-message broadcast with RLNC |
//! | [`params`] | all `Θ(·)` constants | one tunable home for every constant |
//! | [`run`] | — | the [`Scenario`] facade: one declarative front door over every pipeline and baseline |
//!
//! Start from [`run`]: declare a [`TopologySpec`] and a [`Workload`], let
//! [`Scenario`] wire the graph, parameters and driver, and read one unified
//! [`Outcome`]. The per-theorem free functions stay available for callers
//! that bring a pre-built graph or explicit knobs; they return the same
//! [`Outcome`].
//!
//! Every protocol is a per-node state machine implementing
//! [`radio_sim::Protocol`]; nodes act only on local knowledge (their id, their
//! labels once *they* learn them, and what they hear), exactly as the model
//! demands. The test harness assembles global structures (e.g. a
//! [`gst::Gst`]) from per-node states only to *verify* them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod construction;
pub mod decay;
pub mod layering;
pub mod multi_message;
pub mod params;
pub mod recruiting;
pub mod run;
pub mod schedule;
pub mod single_message;
pub mod virtual_labels;

pub use adaptive::Pacing;
pub use multi_message::{BatchMode, KnownRunOpts, MultiRunOpts};
pub use params::Params;
pub use run::{
    Algo, Detail, Outcome, Phases, PreparedTopology, Scenario, SeedMatrix, SeedRun, SweepJob,
    TopologySpec, Workload,
};
pub use schedule::{EmptyBehavior, SlowKey};
