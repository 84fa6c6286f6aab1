//! Per-round and per-run channel statistics.

use std::fmt;

/// Channel activity in a single round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Nodes that transmitted.
    pub transmitters: usize,
    /// Listeners that received a packet (exactly one transmitting neighbor).
    pub deliveries: usize,
    /// Listeners whose channel collided (two or more transmitting neighbors),
    /// counted *before* the collision-detection mode maps the observation.
    pub collisions: usize,
    /// Listeners that heard silence.
    pub silent: usize,
    /// Nodes not called in `Protocol::observe`: listeners that no
    /// transmission or jam reached, and transmitters.
    pub observe_skips: usize,
    /// Nodes not polled in `Protocol::act`: their wake hint
    /// (`Protocol::next_wake`) was not due.
    pub act_skips: usize,
    /// Packet copies erased by the fault layer (per receiving edge); 0
    /// without a fault plan.
    pub erased: usize,
    /// Jam injections (one per neighbor of each active jammer); 0 without a
    /// fault plan.
    pub jammed: usize,
    /// Topology fault events this round: node/edge churn toggles plus
    /// mobility re-samples; 0 without a fault plan.
    pub churn_events: usize,
}

/// Aggregated statistics over a whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Rounds simulated so far.
    pub rounds: u64,
    /// Total transmissions.
    pub transmissions: u64,
    /// Total successful packet deliveries.
    pub deliveries: u64,
    /// Total collision observations (pre-mode mapping).
    pub collisions: u64,
    /// Total nodes not called in `Protocol::observe` (see
    /// [`RoundStats::observe_skips`]).
    pub observe_skips: u64,
    /// Total nodes not polled in `Protocol::act` (see
    /// [`RoundStats::act_skips`]).
    pub act_skips: u64,
    /// Fully-idle rounds fast-forwarded in `O(1)` (no `act`/`observe` call at
    /// all; the rounds are still counted in [`RunStats::rounds`] and in the
    /// skip totals, so a fast-forwarded run reports the same semantic trace
    /// as one that stepped every round).
    pub idle_fastforward: u64,
    /// Total packet copies erased by the fault layer.
    pub erased: u64,
    /// Total jam injections.
    pub jammed: u64,
    /// Total topology fault events (churn toggles + mobility re-samples).
    pub churn_events: u64,
    /// Phase handoffs an adaptive driver re-published with backoff after
    /// their confirmation window exhausted. Driver-recorded (no per-round
    /// channel event backs it); 0 without a fault plan.
    pub retries: u64,
    /// Status-round verdicts an adaptive driver's majority vote overturned
    /// relative to the single-round decision. Driver-recorded; 0 without a
    /// fault plan.
    pub votes_overturned: u64,
    /// Rounds an adaptive driver spent in its no-knowledge Decay fallback
    /// phase. Driver-recorded; 0 without a fault plan.
    pub fallback_rounds: u64,
    /// Rung-1 recovery ladder firings: ring-local repairs (re-running one
    /// failed ring's construction + dissemination with fresh budget).
    /// Driver-recorded; 0 without a fault plan.
    pub ring_repairs: u64,
    /// Rung-2 recovery ladder firings: regional re-dissemination across the
    /// failed ring ± 1. Driver-recorded; 0 without a fault plan.
    pub regional_repairs: u64,
}

impl RunStats {
    /// Folds one round's stats into the totals.
    pub fn absorb(&mut self, r: RoundStats) {
        self.rounds += 1;
        self.transmissions += r.transmitters as u64;
        self.deliveries += r.deliveries as u64;
        self.collisions += r.collisions as u64;
        self.observe_skips += r.observe_skips as u64;
        self.act_skips += r.act_skips as u64;
        self.erased += r.erased as u64;
        self.jammed += r.jammed as u64;
        self.churn_events += r.churn_events as u64;
    }

    /// Folds `rounds` fully-idle rounds (of an `n`-node network) into the
    /// totals in one step — the bulk accounting of the engine's
    /// fast-forward. Every skipped round contributes exactly what stepping it
    /// would have: `n` skipped observes and `n` skipped acts.
    pub fn absorb_idle(&mut self, rounds: u64, n: usize) {
        self.rounds += rounds;
        self.observe_skips += rounds * n as u64;
        self.act_skips += rounds * n as u64;
        self.idle_fastforward += rounds;
    }

    /// Deliveries per transmission — a utilization figure of merit.
    pub fn delivery_ratio(&self) -> f64 {
        if self.transmissions == 0 {
            return 0.0;
        }
        self.deliveries as f64 / self.transmissions as f64
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} tx, {} delivered, {} collisions (delivery ratio {:.3})",
            self.rounds,
            self.transmissions,
            self.deliveries,
            self.collisions,
            self.delivery_ratio()
        )?;
        if self.retries
            + self.votes_overturned
            + self.fallback_rounds
            + self.ring_repairs
            + self.regional_repairs
            > 0
        {
            write!(
                f,
                ", recovery: {} retries, {} votes overturned, {} ring repairs, \
                 {} regional repairs, {} fallback rounds",
                self.retries,
                self.votes_overturned,
                self.ring_repairs,
                self.regional_repairs,
                self.fallback_rounds
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut run = RunStats::default();
        run.absorb(RoundStats {
            transmitters: 3,
            deliveries: 2,
            collisions: 1,
            erased: 2,
            jammed: 4,
            churn_events: 1,
            ..RoundStats::default()
        });
        run.absorb(RoundStats {
            transmitters: 1,
            deliveries: 1,
            silent: 4,
            erased: 1,
            ..RoundStats::default()
        });
        assert_eq!(run.erased, 3);
        assert_eq!(run.jammed, 4);
        assert_eq!(run.churn_events, 1);
        assert_eq!(run.rounds, 2);
        assert_eq!(run.transmissions, 4);
        assert_eq!(run.deliveries, 3);
        assert_eq!(run.collisions, 1);
    }

    #[test]
    fn delivery_ratio_handles_zero() {
        assert_eq!(RunStats::default().delivery_ratio(), 0.0);
        let mut run = RunStats::default();
        run.absorb(RoundStats { transmitters: 4, deliveries: 2, ..RoundStats::default() });
        assert!((run.delivery_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_nonempty() {
        assert!(RunStats::default().to_string().contains("rounds"));
    }
}
