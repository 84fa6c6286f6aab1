//! # baselines — published comparators
//!
//! The protocols the paper compares against:
//!
//! * **BGI Decay** `O(D log n + log^2 n)` — lives in
//!   [`broadcast::decay::DecayBroadcast`] because the paper's own algorithms
//!   use it as a primitive; re-exported here as [`DecayBroadcast`].
//! * [`cr`] — a *Czumaj–Rytter-style* broadcast with the
//!   `O(D log(n/D) + log^2 n)` shape: Decay with phases truncated to
//!   `⌈log(n/D)⌉ + 1` densities, interleaved with periodic full-length
//!   phases. The exact CR probability sequence is intricate; this variant
//!   preserves the asymptotic shape the experiments compare (see the
//!   README's paper → module crosswalk).
//! * [`routing`] — the no-coding multi-message baseline: the paper's own MMV
//!   GST schedule, but forwarding a uniformly random *plaintext* stored
//!   message instead of an RLNC combination (the routing-vs-coding question
//!   of Ghaffari–Haeupler–Khabbazian \[11\]).
//! * [`repeat`] — the trivial `k ×` single-message baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use broadcast::decay::{DecayBroadcast, DecayMsg};

pub mod cr {
    //! Czumaj–Rytter-style truncated Decay.

    use broadcast::Params;
    use radio_sim::model::PacketBits;
    use radio_sim::{Action, Observation, Protocol, Wake};
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Packet: the broadcast message.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct CrMsg(pub u64);

    impl PacketBits for CrMsg {
        fn packet_bits(&self) -> usize {
            64
        }
    }

    /// The truncated-Decay broadcast of the `O(D log(n/D) + log^2 n)` shape.
    ///
    /// Phases cycle `short, short, …, short, full`: `cycle - 1` phases of
    /// `⌈log2(n/D)⌉ + 1` densities, then one full `⌈log2 n⌉` phase that
    /// handles high-degree frontiers.
    #[derive(Clone, Debug)]
    pub struct CrBroadcast {
        short_len: u32,
        full_len: u32,
        cycle: u32,
        message: Option<CrMsg>,
        informed_at: Option<u64>,
    }

    impl CrBroadcast {
        /// A node of the broadcast for graphs with at most `n` nodes and
        /// diameter about `d`; the source passes `Some(message)`.
        pub fn new(params: &Params, d_bound: u32, message: Option<CrMsg>) -> Self {
            let n_over_d = (1usize << params.log_n).max(2) / (d_bound.max(1) as usize).max(1);
            let short_len = radio_sim::graph::ceil_log2(n_over_d.max(2)) + 1;
            CrBroadcast {
                short_len: short_len.min(params.log_n.max(1)),
                full_len: params.log_n.max(1),
                cycle: 4,
                message,
                informed_at: message.map(|_| 0),
            }
        }

        /// Whether this node holds the message.
        pub fn is_informed(&self) -> bool {
            self.message.is_some()
        }

        /// Round of first reception (0 at the source).
        pub fn informed_at(&self) -> Option<u64> {
            self.informed_at
        }

        /// Transmission probability at global round `r`.
        fn probability(&self, r: u64) -> f64 {
            let cycle_rounds =
                u64::from(self.cycle - 1) * u64::from(self.short_len) + u64::from(self.full_len);
            let in_cycle = r % cycle_rounds;
            let short_block = u64::from(self.cycle - 1) * u64::from(self.short_len);
            let step = if in_cycle < short_block {
                in_cycle % u64::from(self.short_len)
            } else {
                in_cycle - short_block
            };
            0.5f64.powi(step as i32)
        }
    }

    impl Protocol for CrBroadcast {
        type Msg = CrMsg;

        fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<CrMsg> {
            match self.message {
                Some(m) if rng.gen_bool(self.probability(round)) => Action::Transmit(m),
                _ => Action::Listen,
            }
        }

        /// Uninformed nodes are inert until a packet arrives; informed nodes
        /// draw every round (as [`broadcast::decay::DecayBroadcast`] does).
        fn next_wake(&self, _round: u64) -> Wake {
            if self.message.is_some() {
                Wake::Now
            } else {
                Wake::Idle
            }
        }

        fn observe(&mut self, round: u64, obs: Observation<CrMsg>, _rng: &mut SmallRng) {
            if let Observation::Message(m) = obs {
                if self.message.is_none() {
                    self.message = Some(*m);
                    self.informed_at = Some(round + 1);
                }
            }
        }
    }
}

pub mod routing {
    //! The no-coding multi-message baseline.

    use broadcast::schedule::{SchedLabels, ScheduleConfig};
    use radio_sim::model::PacketBits;
    use radio_sim::{Action, Observation, Protocol, Wake};
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// A plaintext store-and-forward packet.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PlainMsg {
        /// Message index in `0..k`.
        pub index: u32,
        /// The payload word.
        pub payload: u64,
        /// Whether this was a fast transmission.
        pub fast: bool,
    }

    impl PacketBits for PlainMsg {
        fn packet_bits(&self) -> usize {
            32 + 64 + 1
        }
    }

    /// The MMV GST schedule forwarding uniformly random *stored plaintext*
    /// messages (no coding): when prompted, a node picks one of the messages
    /// it knows uniformly at random — the classical routing strategy whose
    /// throughput coding beats.
    #[derive(Clone, Debug)]
    pub struct RoutingNode {
        cfg: ScheduleConfig,
        labels: SchedLabels,
        k: usize,
        known: Vec<Option<u64>>,
        known_count: usize,
        last_fast: Option<(u64, PlainMsg)>,
    }

    impl RoutingNode {
        /// A node with schedule `labels` for `k` messages.
        pub fn new(cfg: ScheduleConfig, labels: SchedLabels, k: usize) -> Self {
            RoutingNode { cfg, labels, k, known: vec![None; k], known_count: 0, last_fast: None }
        }

        /// Pre-loads the source's messages.
        pub fn with_messages(mut self, payloads: &[u64]) -> Self {
            for (i, &p) in payloads.iter().enumerate() {
                self.known[i] = Some(p);
            }
            self.known_count = payloads.len();
            self
        }

        /// Whether all `k` messages are known.
        pub fn is_complete(&self) -> bool {
            self.known_count == self.k
        }

        /// Number of known messages.
        pub fn known_count(&self) -> usize {
            self.known_count
        }

        fn store(&mut self, m: &PlainMsg) {
            let slot = &mut self.known[m.index as usize];
            if slot.is_none() {
                *slot = Some(m.payload);
                self.known_count += 1;
            }
        }

        fn random_known(&self, rng: &mut SmallRng, fast: bool) -> Option<PlainMsg> {
            if self.known_count == 0 {
                return None;
            }
            let pick = rng.gen_range(0..self.known_count);
            let (index, payload) = self
                .known
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|p| (i, p)))
                .nth(pick)
                .expect("known_count tracks Some entries");
            Some(PlainMsg { index: index as u32, payload, fast })
        }
    }

    impl Protocol for RoutingNode {
        type Msg = PlainMsg;

        /// Sleeps between the node's slow-prompt slot and (for fast
        /// transmitters) its fast slot, the rounds in which `act` can
        /// transmit or draw — as the coded schedule's node does.
        fn next_wake(&self, round: u64) -> Wake {
            let next = self.cfg.next_act_round(round, self.labels.vdist, &self.labels);
            if next == round {
                Wake::Now
            } else {
                Wake::At(next)
            }
        }

        fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<PlainMsg> {
            if round % 2 == 0 {
                if self.labels.fast_transmitter
                    && self.cfg.fast_slot(round, self.labels.level, self.labels.rank)
                {
                    let msg = if self.labels.stretch_start {
                        self.random_known(rng, true)
                    } else {
                        match &self.last_fast {
                            Some((t, m)) if *t + 2 == round => Some(m.clone()),
                            _ => None,
                        }
                    };
                    if let Some(m) = msg {
                        return Action::Transmit(m);
                    }
                }
                return Action::Listen;
            }
            if let Some(p) = self.cfg.slow_prompt(round, self.labels.vdist) {
                if rng.gen_bool(p) {
                    if let Some(m) = self.random_known(rng, false) {
                        return Action::Transmit(m);
                    }
                }
            }
            Action::Listen
        }

        fn observe(&mut self, round: u64, obs: Observation<PlainMsg>, _rng: &mut SmallRng) {
            if let Observation::Message(m) = obs {
                if m.fast && round % 2 == 0 {
                    self.last_fast = Some((round, (*m).clone()));
                }
                self.store(&m);
            }
        }
    }
}

pub mod repeat {
    //! The trivial `k ×` single-message baseline.

    use broadcast::{EmptyBehavior, Params, Scenario, SlowKey, TopologySpec, Workload};
    use radio_sim::{Graph, NodeId};
    use rlnc::gf2::BitVec;

    /// Estimated rounds to broadcast `k` messages by running the
    /// known-topology single-message broadcast `k` times back to back
    /// (each message only starts once the previous one finished).
    ///
    /// Returns `None` if the single-message probe itself fails.
    pub fn rounds_estimate(
        graph: &Graph,
        source: NodeId,
        k: usize,
        params: &Params,
        seed: u64,
    ) -> Option<u64> {
        let one = Workload::MultiKnown {
            messages: vec![BitVec::from_u64(1, 32)],
            slow_key: SlowKey::VirtualDistance,
            empty: EmptyBehavior::Silent,
        };
        Scenario::new(TopologySpec::custom(graph.clone()), one)
            .source(source)
            .params(params.clone())
            .seed(seed)
            .round_cap(2_000_000)
            .run()
            .completion_round
            .map(|r| r * k as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadcast::schedule::{SchedLabels, ScheduleConfig};
    use broadcast::Params;
    use radio_sim::graph::{generators, Traversal};
    use radio_sim::{CollisionMode, DenseWrap, Graph, NodeId, Protocol, RunStats, Simulator};
    use std::fmt::Debug;

    /// Runs `make`'s protocol on `g` with its wake hints and under
    /// `DenseWrap` (every node polled every round) in both collision modes:
    /// completion, every node's final state and the channel trace must
    /// agree, and the hints must have skipped acts.
    fn assert_wake_matches_dense<P: Protocol + Debug>(
        g: &Graph,
        make: impl Fn(NodeId) -> P,
        done: impl Fn(&P) -> bool,
    ) {
        let trace = |s: &RunStats| (s.rounds, s.transmissions, s.deliveries, s.collisions);
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            let mut wake = Simulator::new(g.clone(), mode, 3, &make);
            let mut dense = Simulator::new(g.clone(), mode, 3, |id| DenseWrap(make(id)));
            let w = wake.run_until(1_000_000, |ns| ns.iter().all(&done));
            let d = dense.run_until(1_000_000, |ns| ns.iter().all(|n| done(&n.0)));
            assert!(w.is_some(), "no completion under {mode:?}");
            assert_eq!(w, d, "completion diverged under {mode:?}");
            let dense_nodes: Vec<&P> = dense.nodes().iter().map(|n| &n.0).collect();
            assert_eq!(format!("{:?}", wake.nodes()), format!("{dense_nodes:?}"), "{mode:?}");
            assert_eq!(trace(wake.stats()), trace(dense.stats()), "trace diverged under {mode:?}");
            assert!(wake.stats().act_skips > 0, "no act was skipped under {mode:?}");
        }
    }

    #[test]
    fn cr_wake_hints_match_dense() {
        let g = generators::cluster_chain(6, 5);
        let d = g.bfs(NodeId::new(0)).max_level();
        let params = Params::scaled(30);
        assert_wake_matches_dense(
            &g,
            |id| cr::CrBroadcast::new(&params, d, (id.index() == 0).then_some(cr::CrMsg(5))),
            cr::CrBroadcast::is_informed,
        );
    }

    #[test]
    fn routing_wake_hints_match_dense() {
        let g = generators::grid(5, 5);
        let params = Params::scaled(25);
        let mut rng = radio_sim::rng::stream_rng(9, 0);
        let (tree, _) =
            gst::build_gst(&g, &[NodeId::new(0)], &mut rng, &gst::BuildConfig::for_nodes(25));
        let vd = gst::VirtualDistances::compute(&g, &tree);
        let cfg = ScheduleConfig::from_params(&params);
        let payloads: Vec<u64> = (0..6).collect();
        assert_wake_matches_dense(
            &g,
            |id| {
                let node = routing::RoutingNode::new(cfg, SchedLabels::from_gst(&tree, &vd, id), 6);
                if id.index() == 0 {
                    node.with_messages(&payloads)
                } else {
                    node
                }
            },
            routing::RoutingNode::is_complete,
        );
    }

    #[test]
    fn cr_broadcast_completes() {
        let g = generators::cluster_chain(6, 5);
        let d = g.bfs(NodeId::new(0)).max_level();
        let params = Params::scaled(30);
        let mut sim = Simulator::new(g, CollisionMode::NoDetection, 1, |id| {
            cr::CrBroadcast::new(&params, d, (id.index() == 0).then_some(cr::CrMsg(5)))
        });
        let done = sim.run_until(500_000, |ns| ns.iter().all(cr::CrBroadcast::is_informed));
        assert!(done.is_some());
    }

    #[test]
    fn cr_faster_than_decay_on_long_sparse_graphs() {
        // Where D is large relative to n, truncated phases help.
        let g = generators::path(96);
        let d = g.bfs(NodeId::new(0)).max_level();
        let params = Params::scaled(96);
        let run_cr = |seed| {
            let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, |id| {
                cr::CrBroadcast::new(&params, d, (id.index() == 0).then_some(cr::CrMsg(5)))
            });
            sim.run_until(500_000, |ns| ns.iter().all(cr::CrBroadcast::is_informed)).unwrap()
        };
        let run_decay = |seed| {
            let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, |id| {
                DecayBroadcast::new(&params, (id.index() == 0).then_some(DecayMsg(5)))
            });
            sim.run_until(500_000, |ns| ns.iter().all(DecayBroadcast::is_informed)).unwrap()
        };
        let cr: u64 = (0..5).map(run_cr).sum();
        let decay: u64 = (0..5).map(run_decay).sum();
        assert!(cr < decay, "CR-style ({cr}) not faster than Decay ({decay}) on a path");
    }

    #[test]
    fn routing_completes_but_needs_more_rounds_than_coding() {
        let g = generators::grid(5, 5);
        let params = Params::scaled(25);
        let k = 8;
        let mut rng = radio_sim::rng::stream_rng(9, 0);
        let (tree, _) =
            gst::build_gst(&g, &[NodeId::new(0)], &mut rng, &gst::BuildConfig::for_nodes(25));
        let vd = gst::VirtualDistances::compute(&g, &tree);
        let cfg = ScheduleConfig::from_params(&params);
        let payloads: Vec<u64> = (0..k as u64).collect();
        let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, 2, |id| {
            let node = routing::RoutingNode::new(cfg, SchedLabels::from_gst(&tree, &vd, id), k);
            if id.index() == 0 {
                node.with_messages(&payloads)
            } else {
                node
            }
        });
        let routing_done =
            sim.run_until(1_000_000, |ns| ns.iter().all(routing::RoutingNode::is_complete));
        assert!(routing_done.is_some(), "routing never completed");

        let msgs: Vec<rlnc::gf2::BitVec> =
            (0..k as u64).map(|i| rlnc::gf2::BitVec::from_u64(i, 32)).collect();
        let coded = broadcast::Scenario::new(
            broadcast::TopologySpec::custom(g),
            broadcast::Workload::MultiKnown {
                messages: msgs,
                slow_key: broadcast::SlowKey::VirtualDistance,
                empty: broadcast::EmptyBehavior::Silent,
            },
        )
        .params(params)
        .seed(2)
        .run();
        assert!(coded.completion_round.is_some());
        // Coding should not be slower (it is usually strictly faster).
        assert!(
            coded.completion_round.unwrap() <= routing_done.unwrap() * 2,
            "coding unexpectedly slow: {} vs routing {}",
            coded.completion_round.unwrap(),
            routing_done.unwrap()
        );
    }

    #[test]
    fn repeat_estimate_scales_with_k() {
        let g = generators::grid(4, 4);
        let params = Params::scaled(16);
        let one = repeat::rounds_estimate(&g, NodeId::new(0), 1, &params, 3).unwrap();
        let five = repeat::rounds_estimate(&g, NodeId::new(0), 5, &params, 3).unwrap();
        assert_eq!(five, one * 5);
    }
}
