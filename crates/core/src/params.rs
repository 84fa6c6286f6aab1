//! Every `Θ(·)` constant of the paper, in one tunable place.
//!
//! The paper's round bounds hide constants inside `Θ(log n)` phase counts,
//! `Θ(log^2 n)` recruiting iterations and `Θ(log n)` epoch counts. A
//! simulation has to pick them. [`Params`] carries every such choice, with
//! two presets:
//!
//! * [`Params::scaled`] — small constants for experiments. The asymptotic
//!   *shapes* the benches measure are constant-independent; smaller constants
//!   keep sweeps fast while the per-run `whp` guarantees degrade to
//!   "overwhelmingly likely", which the harness *measures* (violation
//!   counters) instead of assuming.
//! * [`Params::faithful`] — constants sized like the proofs ask
//!   (e.g. recruiting really gets `Θ(log^2 n)` iterations). Slow; used by a
//!   few deep tests.

use radio_sim::graph::ceil_log2;

/// All tunable constants, derived from the network-size bound `n`.
///
/// Nodes are assumed to know a polynomial upper bound on `n` (the paper's
/// standard assumption); every field below is computable from that bound, so
/// sharing a `Params` value among nodes models shared knowledge of `n` only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Params {
    /// `⌈log2 n⌉` — the paper's `log n`: Decay phase length, rank cap,
    /// schedule period base.
    pub log_n: u32,
    /// Decay phases run per "`Θ(log n)` phases of Decay" step.
    pub decay_phases: u32,
    /// Recruiting iterations (the paper's `Θ(log^2 n)`).
    pub recruit_iterations: u32,
    /// Epochs per rank in the Bipartite Assignment (the paper's `Θ(log n)`).
    pub assignment_epochs: u32,
    /// Ring width override for the `D/log^4 n` decomposition: `None` derives
    /// it from `D`; `Some(w)` forces rings of `w` layers (used by the ring
    /// experiments).
    pub ring_width: Option<u32>,
    /// Multiplier for broadcast phase windows (`λ` in the proofs): the
    /// per-ring broadcast window is `window_slack * (ring span + log^2 n)`
    /// rounds.
    pub window_slack: u32,
    /// Work rounds between two status-beep rounds of the adaptive
    /// Theorem 1.1 and 1.3 pipelines (see `single_message` /
    /// `multi_message`): every `beep_interval`-th round of an open-ended
    /// phase is a dedicated beep slot in which nodes with pending work
    /// transmit a content-free status beep.
    pub beep_interval: u32,
    /// Consecutive *silent* status rounds required before an open-ended
    /// adaptive phase is declared quiescent and closed — the "fixed slack"
    /// between the frontier stopping and the phase ending.
    pub quiescence_slack: u32,
}

impl Params {
    /// Experiment-friendly constants for a network of at most `n` nodes.
    ///
    /// Retuned for the adaptive Theorem 1.1 pipeline (PR 2): with
    /// phase-completion detection the fixed windows are *caps*, not costs, so
    /// the constants were lowered until the seed test corpus (structured and
    /// random graphs up to a few hundred nodes, all master seeds used by
    /// tier-1) still completes with zero hard construction violations:
    ///
    /// * `decay_phases: 4` — *kept* at four Decay phases per "`Θ(log n)`
    ///   phases" step: three was tried during the retune and breaks the
    ///   zero-violation guarantee of the fixed-schedule construction corpus
    ///   (star/random graphs lose Identify + Stage Ib reliability), and the
    ///   adaptive driver already cuts unneeded phases at run time, so
    ///   lowering the cap bought nothing.
    /// * `assignment_epochs: log_n / 2 + 4` (down from `log_n + 6`) — matches
    ///   the long-standing bench preset; the adaptive driver skips epochs
    ///   once every blue of the rank is assigned, so extra epochs only
    ///   inflate the worst-case cap.
    /// * `window_slack: 3` — window budgets are upper bounds under adaptive
    ///   termination; 3 keeps a 3x margin over observed completion rounds on
    ///   the regression corpus while tightening `total_rounds()`.
    /// * `beep_interval: 8`, `quiescence_slack: 1` — a status beep every 8
    ///   work rounds; one silent beep round closes a phase. With collision
    ///   detection the wave frontier advances every round, so a full silent
    ///   interval is already conclusive; the interval itself is the slack.
    pub fn scaled(n: usize) -> Self {
        let log_n = ceil_log2(n.max(2));
        Params {
            log_n,
            decay_phases: 4,
            // Hold each of the log_n densities a few times.
            recruit_iterations: 4 * log_n,
            assignment_epochs: log_n / 2 + 4,
            ring_width: None,
            window_slack: 3,
            beep_interval: 8,
            quiescence_slack: 1,
        }
    }

    /// Proof-sized constants (slow; for deep validation runs).
    pub fn faithful(n: usize) -> Self {
        let log_n = ceil_log2(n.max(2));
        Params {
            log_n,
            decay_phases: 2 * log_n,
            recruit_iterations: 2 * log_n * log_n,
            assignment_epochs: 4 * log_n,
            ring_width: None,
            window_slack: 8,
            beep_interval: 8,
            quiescence_slack: 2,
        }
    }

    /// The rank cap: ranks live in `1..=max_rank()`.
    pub fn max_rank(&self) -> u32 {
        self.log_n
    }

    /// Length of one Decay phase in rounds.
    pub fn decay_phase_len(&self) -> u32 {
        self.log_n
    }

    /// Rounds of one "`Θ(log n)` phases of Decay" step.
    pub fn decay_step_rounds(&self) -> u32 {
        self.decay_phases * self.decay_phase_len()
    }

    /// Rounds of one full Recruiting protocol run
    /// (each iteration: beacon + a Decay phase + echo).
    pub fn recruit_rounds(&self) -> u32 {
        self.recruit_iterations * (2 + self.decay_phase_len())
    }

    /// Rounds of one epoch of the Bipartite Assignment algorithm:
    /// Stage I (1 + loner decay), parts 1–3 (recruiting each), Stage III
    /// (rank announcements).
    pub fn epoch_rounds(&self) -> u32 {
        1 + self.decay_step_rounds() + 3 * self.recruit_rounds() + self.decay_step_rounds()
    }

    /// Rounds of one rank's subproblem: identify + epochs.
    pub fn rank_rounds(&self) -> u32 {
        self.decay_step_rounds() + self.assignment_epochs * self.epoch_rounds()
    }

    /// Rounds of one boundary's Bipartite Assignment (all ranks).
    pub fn boundary_rounds(&self) -> u32 {
        self.max_rank() * self.rank_rounds()
    }

    /// The ring width for the decomposition of the adaptive Theorem 1.1 and
    /// 1.3 pipelines, honoring the override.
    ///
    /// The paper uses `D' = D / log^4 n`, which at paper scale
    /// (`D ≥ log^6 n`) automatically satisfies `D' ≥ log^2 n` — the bound
    /// that keeps fixed `Θ(log^2 n)` handoff windows additive in `D`. The
    /// adaptive pipeline closes each handoff window as soon as the next
    /// ring's roots are informed (typically a handful of Decay rounds), which
    /// removes that amortization argument: narrow rings *win*, because every
    /// ring's GST forest is constructed in parallel (parity-slotted), making
    /// the construction phase proportional to the ring width rather than to
    /// `D`. The floor is therefore 2, the minimum that keeps the
    /// parity-slotted interleave interference-free; at paper-scale diameters
    /// the `D / log^4 n` term takes over.
    pub fn adaptive_ring_width(&self, diameter_bound: u32) -> u32 {
        if let Some(w) = self.ring_width {
            return w.max(2);
        }
        let log4 = (self.log_n as u64).pow(4).max(1);
        let w = (u64::from(diameter_bound) / log4).max(2);
        u32::try_from(w).expect("ring width fits u32")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_derives_log() {
        let p = Params::scaled(1024);
        assert_eq!(p.log_n, 10);
        assert_eq!(p.max_rank(), 10);
        assert_eq!(p.decay_phase_len(), 10);
    }

    #[test]
    fn faithful_is_larger() {
        let s = Params::scaled(256);
        let f = Params::faithful(256);
        assert!(f.recruit_iterations > s.recruit_iterations);
        assert!(f.decay_phases > s.decay_phases);
        assert!(f.rank_rounds() > s.rank_rounds());
    }

    #[test]
    fn round_structure_composes() {
        let p = Params::scaled(128);
        assert_eq!(
            p.epoch_rounds(),
            1 + p.decay_step_rounds() + 3 * p.recruit_rounds() + p.decay_step_rounds()
        );
        assert_eq!(p.rank_rounds(), p.decay_step_rounds() + p.assignment_epochs * p.epoch_rounds());
        assert_eq!(p.boundary_rounds(), p.max_rank() * p.rank_rounds());
    }

    #[test]
    fn tiny_n_has_floor() {
        let p = Params::scaled(1);
        assert!(p.log_n >= 1);
        assert!(p.rank_rounds() > 0);
    }

    #[test]
    fn adaptive_ring_width_prefers_narrow_rings() {
        // log_n = 10. Small D: the adaptive pipeline drops to the minimum
        // width of 2 (parallel construction, pay-as-you-go handoffs).
        let p = Params::scaled(1024);
        assert_eq!(p.adaptive_ring_width(50), 2);

        // Huge D: the paper's D / log^4 takes over.
        assert_eq!(p.adaptive_ring_width(3_000_000), 300);

        // Overrides win, with the interference floor of 2.
        let mut q = p.clone();
        q.ring_width = Some(7);
        assert_eq!(q.adaptive_ring_width(1000), 7);
        q.ring_width = Some(1);
        assert_eq!(q.adaptive_ring_width(1000), 2);
    }

    #[test]
    fn adaptive_knobs_are_sane() {
        let p = Params::scaled(64);
        assert!(p.beep_interval >= 1, "a zero beep interval would starve work rounds");
        assert!(p.quiescence_slack >= 1);
        let f = Params::faithful(64);
        assert!(f.quiescence_slack >= p.quiescence_slack);
    }
}
