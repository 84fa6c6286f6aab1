//! # radio-sim
//!
//! A synchronous radio-network simulator implementing the classical model of
//! Chlamtac–Kutten and Bar-Yehuda–Goldreich–Itai, as used by Ghaffari,
//! Haeupler and Khabbazian in *"Randomized Broadcast in Radio Networks with
//! Collision Detection"* (PODC 2013):
//!
//! * time proceeds in **synchronous rounds**;
//! * in each round every node either **transmits** one packet or **listens**;
//! * a listening node receives a packet iff **exactly one** of its neighbors
//!   transmits in that round;
//! * if two or more neighbors transmit, the listener observes a **collision**
//!   (the special symbol `⊤`) when collision detection is available, and
//!   silence otherwise;
//! * a transmitting node learns nothing about the channel in that round.
//!
//! The crate provides:
//!
//! * [`graph`] — compact undirected graphs ([`Graph`]), a validating builder,
//!   BFS/diameter utilities, and a library of workload
//!   [generators](graph::generators);
//! * [`engine`] — the deterministic round engine ([`Simulator`]) driving any
//!   per-node [`Protocol`] state machine, with an optional seeded
//!   adversary ([`engine::faults`]: erasure, jamming, churn, mobility);
//! * [`model`] — the radio-channel types ([`Action`], [`Observation`],
//!   [`CollisionMode`]);
//! * [`trace`] — per-round and per-run statistics.
//!
//! Determinism: a run is fully determined by the graph, the protocol, and a
//! single `u64` master seed. Per-node random streams are derived with
//! SplitMix64 so runs are reproducible bit-for-bit across platforms.
//!
//! ## Example
//!
//! A one-message flooding protocol (not a radio-efficient one — just a tour of
//! the API):
//!
//! ```
//! use radio_sim::{graph::generators, CollisionMode, Simulator, Protocol};
//! use radio_sim::model::{Action, Observation};
//! use rand::{rngs::SmallRng, Rng};
//!
//! struct Flood { informed: bool }
//!
//! impl Protocol for Flood {
//!     type Msg = u8;
//!     fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action<u8> {
//!         if self.informed && rng.gen_bool(0.3) { Action::Transmit(42) } else { Action::Listen }
//!     }
//!     fn observe(&mut self, _round: u64, obs: Observation<u8>, _rng: &mut SmallRng) {
//!         if let Observation::Message(_) = obs { self.informed = true; }
//!     }
//! }
//!
//! let g = generators::path(16);
//! let mut sim = Simulator::new(g, CollisionMode::Detection, 7, |id| Flood {
//!     informed: id.index() == 0,
//! });
//! let done = sim.run_until(10_000, |nodes| nodes.iter().all(|n| n.informed));
//! assert!(done.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod graph;
pub mod ids;
pub mod model;
pub mod rng;
pub mod trace;

pub use engine::faults::{Churn, FaultPlan, Jammer, Mobility};
pub use engine::{DenseWrap, Protocol, Simulator, Wake};
pub use graph::{Graph, ImplicitGraph, Topology};
pub use ids::NodeId;
pub use model::{Action, CollisionMode, Observation, Packet};
pub use trace::{RoundStats, RunStats};
