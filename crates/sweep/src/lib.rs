//! # sweep — the sharded sweep service
//!
//! Every run through the [`broadcast::Scenario`] facade is deterministic and
//! isolated, which makes seed sweeps embarrassingly parallel — yet until
//! this crate they ran serially on one core. `sweep` turns the repo from a
//! batch reproduction into a serving system, in two layers:
//!
//! * **Layer 1 — [`executor`]:** a pool on `std::thread`/`std::sync`
//!   ([`SweepPool`]) that fans a
//!   `(TopologySpec × Params × Workload × FaultPlan) × seeds` product
//!   ([`SweepProduct`]) out as independent `Scenario` runs, one job at a
//!   time from a shared cursor, with the calling thread as worker 0. Job
//!   `i` is scenario `i / seeds` at serial position `i % seeds`; the pool
//!   sorts the finished jobs by that index into one [`SeedMatrix`] per
//!   scenario, **bit-identical to the serial sweep** regardless of worker
//!   count or which worker ran which job. A job that panics fails alone
//!   ([`SweepObserver::failed`]).
//! * **Layer 2 — [`service`]:** a long-running line-oriented JSON
//!   request/response loop over any reader/writer pair (stdin/stdout in
//!   production) in the maelstrom style: tagged requests
//!   (`submit_sweep`, `status`, `cancel`, `results`), streamed per-outcome
//!   response lines (an `error` line of code `job_panicked` for a job
//!   that panicked), and a final matrix summary per sweep. The wire
//!   format is hand-rolled over the vendored `mini_json` (the build image
//!   is offline — no serde).
//!
//! ```
//! use broadcast::{Algo, Scenario, TopologySpec, Workload};
//! use sweep::{SweepPool, SweepProduct};
//!
//! let product = SweepProduct::new()
//!     .scenario(Scenario::new(
//!         TopologySpec::Path { n: 12 },
//!         Workload::Baseline(Algo::Decay { payload: 1 }),
//!     ))
//!     .seeds(0..8);
//! let parallel = SweepPool::new().workers(4).run(&product);
//! let serial = product.scenario_list()[0].seeds(0..8);
//! assert_eq!(format!("{parallel:?}"), format!("{:?}", vec![serial]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod executor;
pub mod protocol;
pub mod service;

pub use broadcast::{SeedMatrix, SweepJob};
pub use executor::{SweepObserver, SweepPool, SweepProduct};
pub use protocol::{Request, RequestError};
pub use service::serve;
