//! The radio channel model: actions, observations and collision semantics.
//!
//! In every synchronous round each node chooses an [`Action`]: transmit one
//! packet or listen. The engine then calls [`crate::Protocol::observe`] with
//! one [`Observation`] on each listener that something reached:
//!
//! | situation (for a listener)           | with CD                    | without CD |
//! |---------------------------------------|----------------------------|------------|
//! | no neighbor's packet arrives          | not called                 | not called |
//! | exactly one arrives                   | [`Observation::Message`]   | `Message`  |
//! | two or more arrive, or a jam          | [`Observation::Collision`] | [`Observation::Silence`] |
//!
//! A transmitter is not called either: the model is half-duplex, so a
//! transmitting node learns nothing about the channel. A node that is not
//! called has observed silence.
//!
//! Received packets are handed over as [`Packet`] handles into the engine's
//! per-round packet store: delivering a transmission to its listeners costs
//! one reference-count bump per listener, never a payload copy. A consumer
//! that needs the payload by value calls [`Packet::into_inner`], which clones
//! only if the packet is still shared.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// A shared handle to one transmitted packet.
///
/// The engine stores each round's transmissions once and hands every
/// receiver a `Packet` pointing into that store, so channel resolution costs
/// `O(1)` per delivery regardless of payload size (ROADMAP bottleneck (b):
/// large-payload multi-message sweeps used to deep-clone the payload per
/// delivery). Dereferences to the message; [`Packet::into_inner`] recovers an
/// owned value.
pub struct Packet<M>(Rc<M>);

impl<M> Packet<M> {
    /// Wraps an owned message (one allocation; later clones are `O(1)`).
    pub fn new(msg: M) -> Self {
        Packet(Rc::new(msg))
    }

    /// Recovers the owned message, cloning only if the packet is still
    /// shared with the engine's store or another receiver.
    pub fn into_inner(self) -> M
    where
        M: Clone,
    {
        Rc::try_unwrap(self.0).unwrap_or_else(|rc| (*rc).clone())
    }
}

impl<M> Clone for Packet<M> {
    fn clone(&self) -> Self {
        Packet(Rc::clone(&self.0))
    }
}

impl<M> Deref for Packet<M> {
    type Target = M;
    fn deref(&self) -> &M {
        &self.0
    }
}

impl<M: fmt::Debug> fmt::Debug for Packet<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<M: PartialEq> PartialEq for Packet<M> {
    fn eq(&self, other: &Self) -> bool {
        *self.0 == *other.0
    }
}

impl<M: Eq> Eq for Packet<M> {}

/// Whether listeners can distinguish a collision from silence.
///
/// The paper's headline results (Theorems 1.1 and 1.3) require
/// [`CollisionMode::Detection`]; the GST construction (Theorem 2.1) and the
/// known-topology result (Theorem 1.2) work in either mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollisionMode {
    /// Listeners observing ≥ 2 simultaneous neighbor transmissions receive the
    /// special collision symbol `⊤`.
    Detection,
    /// Collisions are indistinguishable from silence.
    NoDetection,
}

impl CollisionMode {
    /// Returns `true` if collision detection is available.
    #[inline]
    pub fn has_detection(self) -> bool {
        matches!(self, CollisionMode::Detection)
    }
}

/// A node's choice for one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<M> {
    /// Broadcast `M` to all neighbors.
    Transmit(M),
    /// Stay silent and sense the channel.
    Listen,
}

impl<M> Action<M> {
    /// Returns `true` for [`Action::Transmit`].
    #[inline]
    pub fn is_transmit(&self) -> bool {
        matches!(self, Action::Transmit(_))
    }
}

/// What a node observes at the end of one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Observation<M> {
    /// Exactly one neighbor transmitted; its packet was received (a shared
    /// handle into the round's packet store — see [`Packet`]).
    Message(Packet<M>),
    /// Two or more neighbors transmitted (only under
    /// [`CollisionMode::Detection`]).
    Collision,
    /// Nothing intelligible: a collision without collision detection, which
    /// a listener cannot tell from a silent neighborhood.
    Silence,
}

impl<M> Observation<M> {
    /// A message observation from an owned payload (wraps it in a fresh
    /// [`Packet`]) — for tests and protocols that re-dispatch a received
    /// sub-message into an inner protocol.
    #[inline]
    pub fn packet(msg: M) -> Self {
        Observation::Message(Packet::new(msg))
    }

    /// Returns the received packet by value, if any (cloning only if still
    /// shared — see [`Packet::into_inner`]).
    #[inline]
    pub fn message(self) -> Option<M>
    where
        M: Clone,
    {
        match self {
            Observation::Message(m) => Some(m.into_inner()),
            _ => None,
        }
    }

    /// Returns `true` if a packet was received.
    #[inline]
    pub fn is_message(&self) -> bool {
        matches!(self, Observation::Message(_))
    }

    /// Returns `true` if the node heard *something* — a packet or a collision.
    ///
    /// This is the "signal" notion used by the collision-wave BFS layering in
    /// the proof of Theorem 1.1: a node joins the wave the first round it
    /// receives a message *or* a collision.
    #[inline]
    pub fn is_signal(&self) -> bool {
        matches!(self, Observation::Message(_) | Observation::Collision)
    }
}

/// Packet-size accounting.
///
/// The model fixes a packet budget of `B = Ω(log n)` bits. Protocol packet
/// types implement this trait so tests can audit that every transmitted packet
/// respects the budget (experiment E14: `tests/packet_budget.rs` and the
/// `fig_packet_budget` bench; the README's paper → module crosswalk maps
/// the model to its modules).
pub trait PacketBits {
    /// Size of this packet's encoding, in bits.
    fn packet_bits(&self) -> usize;
}

impl PacketBits for u8 {
    fn packet_bits(&self) -> usize {
        8
    }
}

impl PacketBits for u32 {
    fn packet_bits(&self) -> usize {
        32
    }
}

impl PacketBits for u64 {
    fn packet_bits(&self) -> usize {
        64
    }
}

impl<M: PacketBits> PacketBits for Option<M> {
    fn packet_bits(&self) -> usize {
        1 + self.as_ref().map_or(0, PacketBits::packet_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collision_mode_flags() {
        assert!(CollisionMode::Detection.has_detection());
        assert!(!CollisionMode::NoDetection.has_detection());
    }

    #[test]
    fn action_is_transmit() {
        assert!(Action::Transmit(1u8).is_transmit());
        assert!(!Action::<u8>::Listen.is_transmit());
    }

    #[test]
    fn observation_message_extraction() {
        assert_eq!(Observation::packet(5u8).message(), Some(5));
        assert_eq!(Observation::<u8>::Collision.message(), None);
        assert_eq!(Observation::<u8>::Silence.message(), None);
    }

    #[test]
    fn signal_includes_collision_but_not_silence() {
        assert!(Observation::packet(0u8).is_signal());
        assert!(Observation::<u8>::Collision.is_signal());
        assert!(!Observation::<u8>::Silence.is_signal());
    }

    #[test]
    fn packet_store_shares_without_copying() {
        let p = Packet::new(vec![1u8, 2, 3]);
        let q = p.clone();
        assert_eq!(*p, *q);
        assert_eq!(p, q);
        // Shared: into_inner must clone rather than steal from `p`.
        assert_eq!(q.into_inner(), vec![1, 2, 3]);
        // Unique again: into_inner unwraps without cloning.
        assert_eq!(p.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn packet_bits_for_primitives() {
        assert_eq!(7u8.packet_bits(), 8);
        assert_eq!(7u32.packet_bits(), 32);
        assert_eq!(Some(7u32).packet_bits(), 33);
        assert_eq!(None::<u32>.packet_bits(), 1);
    }
}
