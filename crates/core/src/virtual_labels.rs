//! Distributed virtual-distance labeling (Lemma 3.10).
//!
//! After the GST construction every node knows its level, rank, parent and
//! parent rank; the multi-message schedule additionally needs the *virtual
//! distance* `d_u` in the stretch graph `G'`. The paper computes the labels
//! recursively over `d = 0, 1, …, 2⌈log2 n⌉ − 1`; given all `d`-labelled
//! nodes (`S_d`), the `d+1` labels are found in two stages:
//!
//! * **Stage 1 (fast edges)** — for each rank `r`, two epochs of `D` rounds:
//!   in epoch 1, stretch *heads* in `S_d` of rank `r` transmit in the round
//!   matching their level; the next stretch node hears its parent and takes
//!   `d + 1`. In epoch 2 the label is pipelined down the stretch, one level
//!   per round. Collision-freeness of the GST keeps these waves clean
//!   (transmitters are gated on having a same-rank child, as in the fast
//!   transmissions of Section 3.2).
//! * **Stage 2 (graph edges)** — `Θ(log n)` Decay phases in which all of
//!   `S_d` transmits; any unlabelled listener takes `d + 1`.
//!
//! A node that is labelled through stage 2 before its stretch wave arrives
//! stops relaying the wave (the paper's procedure shares this property);
//! nodes further down the stretch are then labelled a step later through
//! stage 2, giving a slight *over*-estimate. Labels never underestimate, and
//! the tests bound the excess.

use crate::construction::GstLabels;
use crate::decay::DecaySchedule;
use crate::params::Params;
use radio_sim::model::PacketBits;
use radio_sim::{Action, Observation, Protocol, Wake};
use rand::rngs::SmallRng;

/// Messages of the labeling protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VlMsg {
    /// Stage-1 stretch wave carrying the sender id (receivers check it is
    /// their parent).
    Wave {
        /// The transmitting node.
        sender: u32,
    },
    /// Stage-2 spread token.
    Spread,
}

impl PacketBits for VlMsg {
    fn packet_bits(&self) -> usize {
        match self {
            VlMsg::Wave { .. } => 1 + 32,
            VlMsg::Spread => 1,
        }
    }
}

/// The static round structure of the labeling run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VlSchedule {
    /// Largest level in the domain (`D` for whole graphs, `W - 1` per ring).
    pub max_level: u32,
    log_n: u32,
    decay_step: u64,
}

/// A resolved position in the labeling schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VlPhase {
    /// Stage 1, `(d, rank, epoch 0|1, round ℓ)`.
    Wave { d: u32, rank: u32, epoch: u8, l: u32 },
    /// Stage 2, `(d, offset)`.
    Spread { d: u32, offset: u64 },
}

impl VlSchedule {
    /// The schedule for a domain with levels `0..=max_level` under `params`.
    pub fn new(params: &Params, max_level: u32) -> Self {
        VlSchedule {
            max_level: max_level.max(1),
            log_n: params.log_n,
            decay_step: u64::from(params.decay_step_rounds()),
        }
    }

    fn per_rank(&self) -> u64 {
        2 * u64::from(self.max_level)
    }

    fn per_d(&self) -> u64 {
        u64::from(self.log_n) * self.per_rank() + self.decay_step
    }

    /// Values of `d` processed: `0 .. 2·⌈log2 n⌉`.
    pub fn d_values(&self) -> u32 {
        2 * self.log_n
    }

    /// Rounds one `d` value's substages occupy (per-rank waves + spread) —
    /// the granularity at which the adaptive Theorem 1.3 driver skips dead
    /// frontiers.
    pub fn per_d_rounds(&self) -> u64 {
        self.per_d()
    }

    /// Total rounds of the labeling run.
    pub fn total_rounds(&self) -> u64 {
        u64::from(self.d_values()) * self.per_d()
    }

    fn phase(&self, t: u64) -> Option<VlPhase> {
        if t >= self.total_rounds() {
            return None;
        }
        let d = u32::try_from(t / self.per_d()).expect("fits");
        let in_d = t % self.per_d();
        let wave_rounds = u64::from(self.log_n) * self.per_rank();
        if in_d < wave_rounds {
            let rank = u32::try_from(in_d / self.per_rank()).expect("fits") + 1;
            let in_rank = in_d % self.per_rank();
            let epoch = u8::try_from(in_rank / u64::from(self.max_level)).expect("fits");
            let l = u32::try_from(in_rank % u64::from(self.max_level)).expect("fits");
            Some(VlPhase::Wave { d, rank, epoch, l })
        } else {
            Some(VlPhase::Spread { d, offset: in_d - wave_rounds })
        }
    }
}

/// One node of the labeling protocol.
#[derive(Clone, Debug)]
pub struct VirtualLabelNode {
    id: u32,
    labels: GstLabels,
    sched: VlSchedule,
    /// The learned virtual distance (0 at roots).
    vdist: Option<u32>,
    /// Set while this node was stage-1 labelled within the current `(d, r)`
    /// substage — it relays the wave in epoch 2.
    wave_tag: Option<(u32, u32)>,
}

impl VirtualLabelNode {
    /// A node with construction `labels`; roots (level 0) start at `d = 0`.
    pub fn new(sched: VlSchedule, id: u32, labels: GstLabels) -> Self {
        VirtualLabelNode {
            id,
            labels,
            sched,
            vdist: (labels.level == 0).then_some(0),
            wave_tag: None,
        }
    }

    /// The learned virtual distance.
    pub fn vdist(&self) -> Option<u32> {
        self.vdist
    }

    /// The underlying construction labels.
    pub fn labels(&self) -> GstLabels {
        self.labels
    }
}

impl Protocol for VirtualLabelNode {
    type Msg = VlMsg;

    /// Sleeps until [`VirtualLabelNode::next_act_round`]; `act` changes no
    /// state, and a reception re-labels the node and re-queries the hint.
    fn next_wake(&self, round: u64) -> Wake {
        match self.next_act_round(round) {
            Some(next) if next > round => Wake::At(next),
            Some(_) => Wake::Now,
            None => Wake::Idle,
        }
    }

    fn act(&mut self, round: u64, rng: &mut SmallRng) -> Action<VlMsg> {
        let Some(phase) = self.sched.phase(round) else {
            return Action::Listen;
        };
        match phase {
            VlPhase::Wave { d, rank, epoch, l } => {
                if self.labels.rank != rank
                    || self.labels.level != l
                    || !self.labels.has_stretch_child
                {
                    return Action::Listen;
                }
                let transmits = if epoch == 0 {
                    // Stretch heads labelled exactly d start the wave.
                    self.labels.is_stretch_start() && self.vdist == Some(d)
                } else {
                    // Stage-1 labelled nodes of this substage relay it.
                    self.wave_tag == Some((d, rank))
                };
                if transmits {
                    return Action::Transmit(VlMsg::Wave { sender: self.id });
                }
            }
            VlPhase::Spread { d, offset } => {
                // Only S_d — nodes labelled exactly d — spread.
                if self.vdist == Some(d)
                    && DecaySchedule::new(self.sched.log_n.max(1)).fires(offset, rng)
                {
                    return Action::Transmit(VlMsg::Spread);
                }
            }
        }
        Action::Listen
    }

    fn observe(&mut self, round: u64, obs: Observation<VlMsg>, _rng: &mut SmallRng) {
        let Some(phase) = self.sched.phase(round) else { return };
        let Observation::Message(packet) = obs else { return };
        let msg = *packet;
        match (phase, msg) {
            (VlPhase::Wave { d, rank, epoch: _, l }, VlMsg::Wave { sender })
                if self.vdist.is_none()
                    && self.labels.level == l + 1
                    && self.labels.rank == rank
                    && self.labels.in_stretch()
                    && self.labels.parent == Some(sender) =>
            {
                self.vdist = Some(d + 1);
                self.wave_tag = Some((d, rank));
            }
            (VlPhase::Spread { d, .. }, VlMsg::Spread) if self.vdist.is_none() => {
                self.vdist = Some(d + 1);
            }
            _ => {}
        }
    }
}

impl VirtualLabelNode {
    /// Wake helper for enclosing pipelines: the first schedule round
    /// `>= from` in which this node's `act` might transmit or draw from its
    /// RNG, or `None` if no such round remains for its *current* state
    /// (receptions re-label the node, and the engine re-queries hints after
    /// every delivered observation).
    ///
    /// Mirrors `act` exactly: an unlabelled node is inert; a node labelled
    /// `d` starts a stage-1 wave in its `(d, rank)` epoch-1 slot (if it
    /// heads a stretch), relays in the epoch-2 slot of the substage that
    /// labelled it, and samples the Decay spread in every round of block
    /// `d`'s stage-2 segment.
    pub fn next_act_round(&self, from: u64) -> Option<u64> {
        let s = &self.sched;
        let per_rank = s.per_rank();
        let per_d = s.per_d();
        let wave_rounds = u64::from(s.log_n) * per_rank;
        let mut best: Option<u64> = None;
        let mut consider = |t: u64| {
            if t >= from {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        };
        if self.labels.has_stretch_child
            && (1..=s.log_n).contains(&self.labels.rank)
            && self.labels.level < s.max_level
        {
            let rank_base =
                |d: u32| u64::from(d) * per_d + u64::from(self.labels.rank - 1) * per_rank;
            if let Some(v) = self.vdist {
                if self.labels.is_stretch_start() && v < s.d_values() {
                    consider(rank_base(v) + u64::from(self.labels.level));
                }
            }
            if let Some((d0, r0)) = self.wave_tag {
                if r0 == self.labels.rank && d0 < s.d_values() {
                    consider(rank_base(d0) + u64::from(s.max_level) + u64::from(self.labels.level));
                }
            }
        }
        if let Some(v) = self.vdist {
            if v < s.d_values() {
                let spread_start = u64::from(v) * per_d + wave_rounds;
                let spread_end = (u64::from(v) + 1) * per_d;
                if from < spread_end {
                    consider(from.max(spread_start));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst::{build_gst, BuildConfig, Gst, VirtualDistances};
    use radio_sim::graph::generators;
    use radio_sim::rng::stream_rng;
    use radio_sim::{CollisionMode, Graph, NodeId, Simulator};

    /// Builds a centralized GST on `g` and the labeling schedule and nodes
    /// over it.
    fn labeling(g: &Graph, seed: u64) -> (Gst, VlSchedule, impl Fn(NodeId) -> VirtualLabelNode) {
        let mut rng = stream_rng(seed, 2);
        let (gst, _) =
            build_gst(g, &[NodeId::new(0)], &mut rng, &BuildConfig::for_nodes(g.node_count()));
        let params = Params::scaled(g.node_count());
        let sched = VlSchedule::new(&params, gst.max_level());
        let tree = gst.clone();
        let make = move |id: NodeId| {
            let labels = GstLabels {
                level: tree.level(id),
                rank: tree.rank(id),
                parent: tree.parent(id).map(|p| p.raw()),
                parent_rank: tree.parent_rank(id),
                has_stretch_child: tree.is_fast_transmitter(id),
            };
            VirtualLabelNode::new(sched, id.raw(), labels)
        };
        (gst, sched, make)
    }

    /// Builds a centralized GST and runs the distributed labeling on it.
    fn run_labeling(g: &Graph, seed: u64) -> (Vec<Option<u32>>, Gst) {
        let (gst, sched, make) = labeling(g, seed);
        let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, make);
        sim.run(sched.total_rounds());
        (sim.nodes().iter().map(|n| n.vdist()).collect(), gst)
    }

    #[test]
    fn wake_hints_match_dense() {
        use radio_sim::DenseWrap;
        let g = generators::cluster_chain(5, 5);
        let (_, sched, make) = labeling(&g, 4);
        for mode in [CollisionMode::Detection, CollisionMode::NoDetection] {
            let mut wake = Simulator::new(g.clone(), mode, 4, &make);
            let mut dense = Simulator::new(g.clone(), mode, 4, |id| DenseWrap(make(id)));
            wake.run(sched.total_rounds());
            dense.run(sched.total_rounds());
            let dense_nodes: Vec<&VirtualLabelNode> = dense.nodes().iter().map(|n| &n.0).collect();
            assert_eq!(format!("{:?}", wake.nodes()), format!("{dense_nodes:?}"), "{mode:?}");
            let (w, d) = (wake.stats(), dense.stats());
            assert_eq!(
                (w.transmissions, w.deliveries, w.collisions),
                (d.transmissions, d.deliveries, d.collisions),
                "channel trace diverged under {mode:?}"
            );
            assert!(w.act_skips > 0, "no act was skipped under {mode:?}");
        }
    }

    fn check(g: &Graph, seed: u64, slack: u32) {
        let (got, gst) = run_labeling(g, seed);
        let truth = VirtualDistances::compute(g, &gst);
        let mut labelled = 0usize;
        for v in g.node_ids() {
            if let Some(d) = got[v.index()] {
                labelled += 1;
                assert!(d >= truth.get(v), "{v} underestimated: {d} < {}", truth.get(v));
                assert!(
                    d <= truth.get(v) + slack,
                    "{v} overestimated: {d} > {} + {slack}",
                    truth.get(v)
                );
            }
        }
        assert_eq!(labelled, g.node_count(), "unlabelled nodes remain");
    }

    #[test]
    fn labels_path() {
        check(&generators::path(24), 1, 1);
    }

    #[test]
    fn labels_star() {
        check(&generators::star(12), 2, 1);
    }

    #[test]
    fn labels_grid() {
        check(&generators::grid(6, 5), 3, 2);
    }

    #[test]
    fn labels_cluster_chain() {
        check(&generators::cluster_chain(5, 5), 4, 2);
    }

    #[test]
    fn labels_random_graphs() {
        for seed in 0..3 {
            let mut rng = stream_rng(seed, 8);
            let g = generators::gnp_connected(40, 0.12, &mut rng);
            check(&g, seed, 2);
        }
    }

    #[test]
    fn schedule_total_rounds() {
        let params = Params::scaled(64);
        let sched = VlSchedule::new(&params, 10);
        assert_eq!(
            sched.total_rounds(),
            u64::from(2 * params.log_n)
                * (u64::from(params.log_n) * 20 + u64::from(params.decay_step_rounds()))
        );
        assert!(sched.phase(sched.total_rounds()).is_none());
        assert!(sched.phase(0).is_some());
    }

    #[test]
    fn next_act_round_never_misses_an_action() {
        // The wake-helper contract: for every `from`, each round strictly
        // before `next_act_round(from)` must be a pure listen that leaves
        // the node's RNG untouched.
        let params = Params::scaled(32);
        let sched = VlSchedule::new(&params, 4);
        let mk = |level, rank, stretch_child, parent_rank| GstLabels {
            level,
            rank,
            parent: (level > 0).then_some(0),
            parent_rank,
            has_stretch_child: stretch_child,
        };
        let configs = [
            mk(0, 2, true, None),
            mk(1, 2, true, Some(2)),
            mk(2, 1, false, Some(2)),
            mk(3, 3, true, Some(1)),
            mk(4, 1, false, Some(1)),
        ];
        for labels in configs {
            for vdist in [None, Some(0), Some(1), Some(3), Some(sched.d_values())] {
                for wave_tag in [None, Some((1u32, labels.rank))] {
                    let mut node = VirtualLabelNode::new(sched, 9, labels);
                    node.vdist = vdist;
                    node.wave_tag = wave_tag;
                    for from in (0..sched.total_rounds()).step_by(7) {
                        let next = node.next_act_round(from);
                        let horizon = next.unwrap_or(sched.total_rounds());
                        assert!(next.is_none_or(|t| t >= from));
                        for t in from..horizon {
                            let mut a = stream_rng(42, t);
                            let mut b = stream_rng(42, t);
                            assert!(
                                matches!(node.act(t, &mut a), Action::Listen),
                                "hinted-inert node acted at {t} (from {from}, {labels:?})"
                            );
                            use rand::Rng;
                            assert_eq!(
                                a.gen::<u64>(),
                                b.gen::<u64>(),
                                "hinted-inert node drew RNG at {t} ({labels:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn roots_start_at_zero() {
        let params = Params::scaled(8);
        let sched = VlSchedule::new(&params, 2);
        let root = VirtualLabelNode::new(
            sched,
            0,
            GstLabels {
                level: 0,
                rank: 2,
                parent: None,
                parent_rank: None,
                has_stretch_child: true,
            },
        );
        assert_eq!(root.vdist(), Some(0));
        let other = VirtualLabelNode::new(
            sched,
            1,
            GstLabels {
                level: 1,
                rank: 1,
                parent: Some(0),
                parent_rank: Some(2),
                has_stretch_child: false,
            },
        );
        assert_eq!(other.vdist(), None);
    }
}
