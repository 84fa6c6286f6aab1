//! # rlnc
//!
//! Random linear network coding (RLNC) over `F_2`, as used by the
//! multi-message broadcast algorithms of Ghaffari–Haeupler–Khabbazian
//! (Section 3.3 of the paper):
//!
//! * [`gf2`] — bit-packed vectors over the two-element field;
//! * [`CodedPacket`] / [`Decoder`] — network-coded packets (coefficient
//!   vector + payload) and the incremental receiver that decodes once its
//!   coefficient space reaches full rank (Section 3.3.1).
//!
//! The Section 3.4 generations and the random-linear fountain across ring
//! boundaries are both built on [`Decoder`] by the Theorem 1.3 pipeline
//! (`broadcast::multi_message`).
//!
//! ## Example
//!
//! ```
//! use rlnc::{gf2::BitVec, Decoder, CodedPacket};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let messages: Vec<BitVec> = (0..4u64).map(|i| BitVec::from_u64(i + 10, 16)).collect();
//!
//! // The source holds all messages; relays recombine what they have.
//! let source = Decoder::with_messages(&messages);
//! let mut sink = Decoder::new(4, 16);
//! while !sink.can_decode() {
//!     let packet = source.random_combination(&mut rng).expect("source is nonempty");
//!     sink.insert(packet);
//! }
//! assert_eq!(sink.decode().unwrap(), messages);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gf2;
mod packet;

pub use packet::{CodedPacket, Decoder};
