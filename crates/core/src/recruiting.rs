//! The Recruiting protocol (Lemma 2.3).
//!
//! A bipartite exchange between *red* and *blue* nodes achieving, w.h.p., in
//! `Θ(log^2 n)` iterations of `2 + ⌈log2 n⌉` rounds each:
//!
//! * (a) every blue node with a participating red neighbor is **recruited**
//!   by one of them (its *parent*);
//! * (b) every red node knows whether it recruited zero, one, or ≥ 2 blues;
//! * (c) every recruited blue knows whether its parent recruited one or ≥ 2.
//!
//! Iteration structure (`j = 0, 1, …`):
//!
//! 1. **Beacon** — each participating red transmits its id with probability
//!    `2^{-(1 + ⌊j / hold⌋ mod ⌈log n⌉)}` (densities swept, each held `hold`
//!    iterations);
//! 2. **Response phase** — one Decay phase in which each unrecruited blue
//!    that received a beacon from red `v` transmits `(u, v)`;
//! 3. **Echo** — the *same* reds that beaconed transmit again (so a blue that
//!    heard `v` alone in step 1 hears `v` alone again): a red that heard
//!    exactly one responder `u` echoes `u`'s id; one that heard several
//!    echoes the multi marker `Σ`; one that heard none echoes an empty
//!    marker. Echoes carry the red's id and cumulative recruit class, which
//!    also lets already-recruited blues refresh a stale "only child" belief
//!    (the README's paper → module crosswalk places Lemma 2.3 here).
//!
//! The paper's echo description has the red "broadcast v.id" in the
//! single-responder case; for the blue-side rule ("u is recruited if it
//! received *its own id*") to work this must be the *blue*'s id, which is
//! what we transmit.
//!
//! These types are driven by an enclosing protocol (the Bipartite Assignment
//! of [`crate::construction`]) via `act`/`observe` calls with *local* round
//! numbers; [`standalone`] wraps them into a self-contained
//! [`radio_sim::Protocol`] for direct validation (experiment E5).

use crate::params::Params;
use radio_sim::model::PacketBits;
use rand::Rng;

/// How many blues a red has recruited, as the red knows it (property (b)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CountClass {
    /// No recruits yet.
    #[default]
    Zero,
    /// Exactly one recruit.
    One,
    /// Two or more recruits.
    Multi,
}

/// Messages of the Recruiting protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecruitMsg {
    /// Step-1 red beacon.
    Beacon {
        /// The transmitting red.
        red: u32,
        /// Its cumulative recruit class (for stale-belief refresh).
        class: CountClass,
    },
    /// Step-2 blue response addressed to `red`.
    Response {
        /// The responding blue.
        blue: u32,
        /// The red whose beacon it heard.
        red: u32,
    },
    /// Step-3 echo: exactly one responder was heard.
    EchoSingle {
        /// The echoing red.
        red: u32,
        /// The uniquely-heard responder, now recruited.
        blue: u32,
        /// Whether the red's cumulative count is now ≥ 2.
        multi: bool,
    },
    /// Step-3 echo: two or more responders were heard (the paper's `Σ`).
    EchoMulti {
        /// The echoing red.
        red: u32,
    },
    /// Step-3 echo: no responder was heard (the paper's empty message).
    EchoNone {
        /// The echoing red.
        red: u32,
    },
}

impl PacketBits for RecruitMsg {
    fn packet_bits(&self) -> usize {
        // Tag (3 bits) + up to two ids (32 each) + flags; ids are O(log n).
        match self {
            RecruitMsg::Beacon { .. } => 3 + 32 + 2,
            RecruitMsg::Response { .. } => 3 + 64,
            RecruitMsg::EchoSingle { .. } => 3 + 64 + 1,
            RecruitMsg::EchoMulti { .. } | RecruitMsg::EchoNone { .. } => 3 + 32,
        }
    }
}

/// Static shape of a recruiting run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecruitConfig {
    /// Number of iterations (the paper's `Θ(log^2 n)`).
    pub iterations: u32,
    /// Decay phase length (`⌈log2 n⌉`).
    pub phase_len: u32,
    /// Iterations each beacon density is held for.
    pub density_hold: u32,
}

impl RecruitConfig {
    /// The configuration induced by `params`.
    pub fn from_params(params: &Params) -> Self {
        let iterations = params.recruit_iterations.max(1);
        let phase_len = params.decay_phase_len();
        RecruitConfig { iterations, phase_len, density_hold: (iterations / phase_len).max(1) }
    }

    /// Rounds per iteration: beacon + response phase + echo.
    pub fn iteration_rounds(&self) -> u32 {
        2 + self.phase_len
    }

    /// Total rounds of the run.
    pub fn total_rounds(&self) -> u32 {
        self.iterations * self.iteration_rounds()
    }

    /// Decomposes a local round into `(iteration, offset)`.
    fn split(&self, local_round: u64) -> (u32, u32) {
        let per = u64::from(self.iteration_rounds());
        ((local_round / per) as u32, (local_round % per) as u32)
    }

    /// Beacon probability at `iteration`: densities `1, 1/2, …, 2^{-L}`
    /// swept cyclically, each held `density_hold` iterations.
    fn beacon_probability(&self, iteration: u32) -> f64 {
        let idx = (iteration / self.density_hold) % (self.phase_len + 1);
        0.5f64.powi(idx as i32)
    }
}

/// Red-side state machine.
#[derive(Clone, Debug)]
pub struct RecruitingRed {
    cfg: RecruitConfig,
    id: u32,
    participating: bool,
    // Per-iteration state.
    beaconed: bool,
    heard_first: Option<u32>,
    heard_second: bool,
    // Cumulative.
    singles: u32,
    any_multi: bool,
}

impl RecruitingRed {
    /// A red node; non-participating reds stay silent but keep valid state.
    pub fn new(cfg: RecruitConfig, id: u32, participating: bool) -> Self {
        RecruitingRed {
            cfg,
            id,
            participating,
            beaconed: false,
            heard_first: None,
            heard_second: false,
            singles: 0,
            any_multi: false,
        }
    }

    /// Property (b): how many blues this red recruited.
    pub fn count_class(&self) -> CountClass {
        if self.any_multi || self.singles >= 2 {
            CountClass::Multi
        } else if self.singles == 1 {
            CountClass::One
        } else {
            CountClass::Zero
        }
    }

    /// The action for local round `r`, or `None` to listen.
    pub fn act(&mut self, r: u64, rng: &mut impl Rng) -> Option<RecruitMsg> {
        if !self.participating {
            return None;
        }
        let (iter, offset) = self.cfg.split(r);
        if iter >= self.cfg.iterations {
            return None;
        }
        if offset == 0 {
            // Fresh iteration.
            self.beaconed = rng.gen_bool(self.cfg.beacon_probability(iter));
            self.heard_first = None;
            self.heard_second = false;
            return self
                .beaconed
                .then_some(RecruitMsg::Beacon { red: self.id, class: self.count_class() });
        }
        if offset == self.cfg.iteration_rounds() - 1 && self.beaconed {
            // Echo, replicating the beacon transmission pattern.
            let msg = match (self.heard_first, self.heard_second) {
                (Some(blue), false) => {
                    self.singles += 1;
                    RecruitMsg::EchoSingle {
                        red: self.id,
                        blue,
                        multi: self.count_class() == CountClass::Multi,
                    }
                }
                (Some(_), true) => {
                    self.any_multi = true;
                    RecruitMsg::EchoMulti { red: self.id }
                }
                _ => RecruitMsg::EchoNone { red: self.id },
            };
            return Some(msg);
        }
        None
    }

    /// Feeds a received message (responses matter during step 2).
    pub fn observe(&mut self, _r: u64, msg: &RecruitMsg) {
        if !self.participating {
            return;
        }
        if let RecruitMsg::Response { blue, red } = msg {
            if *red == self.id {
                match self.heard_first {
                    None => self.heard_first = Some(*blue),
                    Some(b) if b != *blue => self.heard_second = true,
                    Some(_) => {}
                }
            }
        }
    }

    /// The next local round `>= r` in which [`RecruitingRed::act`] can
    /// transmit, draw from the RNG or change state — iteration starts, plus
    /// the echo round of an iteration whose beacon fired. `None` once the
    /// run is over (or for non-participants).
    pub fn next_act_round(&self, r: u64) -> Option<u64> {
        if !self.participating {
            return None;
        }
        let (iter, offset) = self.cfg.split(r);
        if iter >= self.cfg.iterations {
            return None;
        }
        let per = u64::from(self.cfg.iteration_rounds());
        let base = u64::from(iter) * per;
        if offset == 0 || (self.beaconed && offset == self.cfg.iteration_rounds() - 1) {
            return Some(r);
        }
        if self.beaconed {
            return Some(base + per - 1); // this iteration's echo
        }
        (iter + 1 < self.cfg.iterations).then_some(base + per) // next beacon
    }
}

/// The outcome carried by a recruited blue (properties (a) and (c)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recruited {
    /// The parent red's id.
    pub parent: u32,
    /// Whether the parent recruited ≥ 2 blues (as last heard).
    pub parent_multi: bool,
}

/// Blue-side state machine.
#[derive(Clone, Debug)]
pub struct RecruitingBlue {
    cfg: RecruitConfig,
    id: u32,
    participating: bool,
    beacon_heard: Option<u32>,
    recruited: Option<Recruited>,
}

impl RecruitingBlue {
    /// A blue node; non-participating blues listen only for stale-belief
    /// refreshes of an existing assignment.
    pub fn new(cfg: RecruitConfig, id: u32, participating: bool) -> Self {
        RecruitingBlue { cfg, id, participating, beacon_heard: None, recruited: None }
    }

    /// Pre-seeds an existing parent so later echoes can refresh its
    /// multiplicity (stale-belief repair across recruiting runs).
    pub fn with_existing_parent(mut self, parent: Recruited) -> Self {
        self.recruited = Some(parent);
        self
    }

    /// Property (a)/(c): the recruitment outcome.
    pub fn result(&self) -> Option<Recruited> {
        self.recruited
    }

    /// The action for local round `r`, or `None` to listen.
    pub fn act(&mut self, r: u64, rng: &mut impl Rng) -> Option<RecruitMsg> {
        let (iter, offset) = self.cfg.split(r);
        if iter >= self.cfg.iterations {
            return None;
        }
        if offset == 0 {
            self.beacon_heard = None;
            return None;
        }
        // Decay response rounds: offsets 1..=phase_len.
        if offset >= 1 && offset <= self.cfg.phase_len {
            if !self.participating || self.recruited.is_some() {
                return None;
            }
            if let Some(v) = self.beacon_heard {
                if rng.gen_bool(0.5f64.powi(offset as i32 - 1)) {
                    return Some(RecruitMsg::Response { blue: self.id, red: v });
                }
            }
        }
        None
    }

    /// Feeds a received message.
    pub fn observe(&mut self, _r: u64, msg: &RecruitMsg) {
        match *msg {
            RecruitMsg::Beacon { red, class } => {
                if self.recruited.is_none() {
                    self.beacon_heard = Some(red);
                } else if let Some(rec) = &mut self.recruited {
                    if rec.parent == red && class == CountClass::Multi {
                        rec.parent_multi = true;
                    }
                }
            }
            RecruitMsg::EchoSingle { red, blue, multi } => {
                if let Some(rec) = &mut self.recruited {
                    if rec.parent == red && multi {
                        rec.parent_multi = true;
                    }
                } else if self.participating && self.beacon_heard == Some(red) && blue == self.id {
                    self.recruited = Some(Recruited { parent: red, parent_multi: multi });
                }
            }
            RecruitMsg::EchoMulti { red } => {
                if let Some(rec) = &mut self.recruited {
                    if rec.parent == red {
                        rec.parent_multi = true;
                    }
                } else if self.participating && self.beacon_heard == Some(red) {
                    self.recruited = Some(Recruited { parent: red, parent_multi: true });
                }
            }
            RecruitMsg::EchoNone { .. } | RecruitMsg::Response { .. } => {}
        }
    }

    /// The next local round `>= r` in which [`RecruitingBlue::act`] can
    /// transmit, draw from the RNG or change state: every iteration start
    /// (the per-iteration reset), plus the Decay response rounds while an
    /// unanswered beacon is pending. `None` once the run is over.
    pub fn next_act_round(&self, r: u64) -> Option<u64> {
        let (iter, offset) = self.cfg.split(r);
        if iter >= self.cfg.iterations {
            return None;
        }
        if offset == 0 {
            return Some(r);
        }
        let responding = self.participating
            && self.recruited.is_none()
            && self.beacon_heard.is_some()
            && offset <= self.cfg.phase_len;
        if responding {
            return Some(r);
        }
        let per = u64::from(self.cfg.iteration_rounds());
        (iter + 1 < self.cfg.iterations).then_some(u64::from(iter + 1) * per)
    }
}

/// A self-contained [`radio_sim::Protocol`] running one recruiting instance —
/// the harness for validating Lemma 2.3 directly (experiment E5).
pub mod standalone {
    use super::*;
    use radio_sim::{Action, Observation, Protocol, Wake};
    use rand::rngs::SmallRng;

    /// One node of a standalone recruiting run.
    #[derive(Clone, Debug)]
    pub enum RecruitNode {
        /// A red-side node.
        Red(RecruitingRed),
        /// A blue-side node.
        Blue(RecruitingBlue),
    }

    impl RecruitNode {
        /// Creates a red node.
        pub fn red(cfg: RecruitConfig, id: u32) -> Self {
            RecruitNode::Red(RecruitingRed::new(cfg, id, true))
        }

        /// Creates a blue node.
        pub fn blue(cfg: RecruitConfig, id: u32) -> Self {
            RecruitNode::Blue(RecruitingBlue::new(cfg, id, true))
        }

        /// The blue-side outcome, if this is a blue node.
        pub fn recruited(&self) -> Option<Recruited> {
            match self {
                RecruitNode::Blue(b) => b.result(),
                RecruitNode::Red(_) => None,
            }
        }

        /// The red-side outcome, if this is a red node.
        pub fn count_class(&self) -> Option<CountClass> {
            match self {
                RecruitNode::Red(r) => Some(r.count_class()),
                RecruitNode::Blue(_) => None,
            }
        }
    }

    impl Protocol for RecruitNode {
        type Msg = RecruitMsg;
        // `observe` reacts to received packets only.
        const SILENCE_IS_NOOP: bool = true;
        const WAKE_HINTS: bool = true;

        /// Sleeps through the rounds its side of the exchange provably sits
        /// out (a red between beacon and echo, a blue with no pending
        /// beacon); idles once every iteration has run.
        fn next_wake(&self, round: u64) -> Wake {
            let next = match self {
                RecruitNode::Red(r) => r.next_act_round(round),
                RecruitNode::Blue(b) => b.next_act_round(round),
            };
            match next {
                Some(r) if r == round => Wake::Now,
                Some(r) => Wake::At(r),
                None => Wake::Idle,
            }
        }

        fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<RecruitMsg> {
            let msg = match self {
                RecruitNode::Red(r) => r.act(round, rng),
                RecruitNode::Blue(b) => b.act(round, rng),
            };
            msg.map_or(Action::Listen, Action::Transmit)
        }

        fn observe(&mut self, round: u64, obs: Observation<RecruitMsg>, _rng: &mut SmallRng) {
            if let Observation::Message(m) = obs {
                match self {
                    RecruitNode::Red(r) => r.observe(round, &m),
                    RecruitNode::Blue(b) => b.observe(round, &m),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::standalone::RecruitNode;
    use super::*;
    use radio_sim::graph::generators;
    use radio_sim::rng::stream_rng;
    use radio_sim::{CollisionMode, NodeId, Simulator};

    fn run_recruiting(
        reds: usize,
        blues: usize,
        p: f64,
        seed: u64,
        params: &Params,
    ) -> (Vec<Option<Recruited>>, Vec<CountClass>, radio_sim::Graph) {
        let mut rng = stream_rng(seed, 99);
        let bp = generators::random_bipartite(reds, blues, p, &mut rng);
        let cfg = RecruitConfig::from_params(params);
        let mut sim = Simulator::new(bp.graph.clone(), CollisionMode::NoDetection, seed, |id| {
            if id.index() < reds {
                RecruitNode::red(cfg, id.raw())
            } else {
                RecruitNode::blue(cfg, id.raw())
            }
        });
        sim.run(u64::from(cfg.total_rounds()));
        let outcomes: Vec<Option<Recruited>> =
            sim.nodes()[reds..].iter().map(|n| n.recruited()).collect();
        let classes: Vec<CountClass> =
            sim.nodes()[..reds].iter().map(|n| n.count_class().unwrap()).collect();
        (outcomes, classes, bp.graph)
    }

    #[test]
    fn most_blues_recruited_with_scaled_constants() {
        // Scaled constants trade the whp guarantee for speed; the enclosing
        // assignment algorithm retries across epochs. Require >= 90% here.
        let params = Params::scaled(64);
        let mut recruited = 0usize;
        let mut total = 0usize;
        for seed in 0..6 {
            let (outcomes, _, _) = run_recruiting(8, 24, 0.15, seed, &params);
            recruited += outcomes.iter().filter(|o| o.is_some()).count();
            total += outcomes.len();
            let (outcomes, _, _) = run_recruiting(16, 32, 0.5, seed, &params);
            recruited += outcomes.iter().filter(|o| o.is_some()).count();
            total += outcomes.len();
        }
        assert!(recruited * 10 >= total * 9, "only {recruited}/{total} recruited across seeds");
    }

    #[test]
    fn every_blue_recruited_with_faithful_constants() {
        // Lemma 2.3's whp guarantee with proof-sized Θ(log^2 n) iterations.
        let params = Params::faithful(64);
        for seed in 0..3 {
            let (outcomes, _, _) = run_recruiting(10, 30, 0.25, seed, &params);
            let recruited = outcomes.iter().filter(|o| o.is_some()).count();
            assert_eq!(recruited, 30, "only {recruited}/30 recruited (seed {seed})");
        }
    }

    #[test]
    fn parents_are_neighbors() {
        let params = Params::scaled(64);
        let (outcomes, _, g) = run_recruiting(10, 30, 0.2, 3, &params);
        for (b, outcome) in outcomes.iter().enumerate() {
            if let Some(rec) = outcome {
                let blue = NodeId::new(10 + b);
                assert!(
                    g.has_edge(blue, NodeId::new(rec.parent as usize)),
                    "blue {blue} recruited by non-neighbor"
                );
            }
        }
    }

    #[test]
    fn red_count_class_matches_actual_children() {
        let params = Params::scaled(64);
        for seed in 4..8 {
            let (outcomes, classes, _) = run_recruiting(10, 30, 0.2, seed, &params);
            let mut actual = [0u32; 10];
            for outcome in outcomes.iter().flatten() {
                actual[outcome.parent as usize] += 1;
            }
            for (r, &count) in actual.iter().enumerate() {
                let expected = match count {
                    0 => CountClass::Zero,
                    1 => CountClass::One,
                    _ => CountClass::Multi,
                };
                assert_eq!(classes[r], expected, "red {r} (seed {seed}): {count} children");
            }
        }
    }

    #[test]
    fn blue_multiplicity_belief_is_sound() {
        // Property (c) with the staleness caveat: a blue believing "multi"
        // must have a multi parent; "single" beliefs may be stale but only
        // one blue per parent may hold one.
        let params = Params::scaled(64);
        for seed in 10..14 {
            let (outcomes, _, _) = run_recruiting(8, 32, 0.3, seed, &params);
            let mut actual = [0u32; 8];
            for o in outcomes.iter().flatten() {
                actual[o.parent as usize] += 1;
            }
            for o in outcomes.iter().flatten() {
                if o.parent_multi {
                    assert!(actual[o.parent as usize] >= 2, "false multi belief (seed {seed})");
                }
            }
            // At most one stale "single" believer per parent.
            for red in 0..8u32 {
                let stale = outcomes
                    .iter()
                    .flatten()
                    .filter(|o| o.parent == red && !o.parent_multi)
                    .count();
                assert!(stale <= 1, "red {red}: {stale} single-believers (seed {seed})");
            }
        }
    }

    #[test]
    fn lone_pair_recruits_quickly() {
        let params = Params::scaled(8);
        let (outcomes, classes, _) = run_recruiting(1, 1, 1.0, 5, &params);
        assert!(outcomes[0].is_some());
        assert_eq!(classes[0], CountClass::One);
        assert!(!outcomes[0].unwrap().parent_multi);
    }

    #[test]
    fn config_round_math() {
        let params = Params::scaled(256);
        let cfg = RecruitConfig::from_params(&params);
        assert_eq!(cfg.iteration_rounds(), 2 + params.decay_phase_len());
        assert_eq!(cfg.total_rounds(), cfg.iterations * cfg.iteration_rounds());
        assert!(cfg.density_hold >= 1);
    }

    #[test]
    fn beacon_density_sweeps() {
        let cfg = RecruitConfig { iterations: 8, phase_len: 4, density_hold: 2 };
        assert_eq!(cfg.beacon_probability(0), 1.0);
        assert_eq!(cfg.beacon_probability(1), 1.0);
        assert_eq!(cfg.beacon_probability(2), 0.5);
        assert_eq!(cfg.beacon_probability(6), 0.125);
    }

    #[test]
    fn recruiting_wake_hints_match_dense_path() {
        use radio_sim::{DenseWrap, Simulator};
        let params = Params::scaled(64);
        let cfg = RecruitConfig::from_params(&params);
        for seed in 0..3u64 {
            let mut rng = stream_rng(seed, 99);
            let bp = generators::random_bipartite(8, 24, 0.2, &mut rng);
            let make = |id: NodeId| {
                if id.index() < 8 {
                    RecruitNode::red(cfg, id.raw())
                } else {
                    RecruitNode::blue(cfg, id.raw())
                }
            };
            let mut wake = Simulator::new(bp.graph.clone(), CollisionMode::NoDetection, seed, make);
            let mut dense =
                Simulator::new(bp.graph.clone(), CollisionMode::NoDetection, seed, |id| {
                    DenseWrap(make(id))
                });
            wake.run(u64::from(cfg.total_rounds()) + 50);
            dense.run(u64::from(cfg.total_rounds()) + 50);
            let wr: Vec<_> =
                wake.nodes().iter().map(|n| (n.recruited(), n.count_class())).collect();
            let dr: Vec<_> =
                dense.nodes().iter().map(|n| (n.0.recruited(), n.0.count_class())).collect();
            assert_eq!(wr, dr, "recruiting outcomes diverged (seed {seed})");
            assert_eq!(wake.stats().transmissions, dense.stats().transmissions);
            assert!(wake.stats().act_skips > 0, "no act was ever skipped");
            // After `total_rounds` every node idles: the +50 tail must have
            // been fast-forwarded.
            assert!(wake.stats().idle_fastforward >= 50, "finished run did not idle");
        }
    }

    #[test]
    fn packet_sizes_logarithmic() {
        let m = RecruitMsg::Response { blue: 1, red: 2 };
        assert!(m.packet_bits() <= 96);
    }
}
