//! UCBScoring (§4.2.2): confidence-bound neighbor selection.
//!
//! With short rounds (the paper runs UCB with a single block per round) a
//! neighbor's percentile estimate is noisy. UCBScoring therefore keeps every
//! observation made since the connection to a neighbor was established and
//! attaches upper/lower confidence bounds (eqs. 3–4):
//!
//! ```text
//! ucb(u) = p90(T̿u,v) + c·sqrt(log|T̿u,v| / (2|T̿u,v|))
//! lcb(u) = p90(T̿u,v) − c·sqrt(log|T̿u,v| / (2|T̿u,v|))
//! ```
//!
//! At the end of a round, if `max_u lcb(u) > min_u ucb(u)` the node is
//! confident the arg-max neighbor is strictly worse than its best neighbor
//! even accounting for sampling noise, and disconnects exactly that one;
//! otherwise all neighbors are retained.
//!
//! # Per-connection history
//!
//! The history partitions exactly by choosing node: node `v`'s `retain`
//! reads the round matrix (shared, immutable) and mutates only its own
//! [`NodeHistory`], which the engine owns and passes in. The strategy is
//! therefore just its two parameters, shared by every rayon worker while
//! each worker updates only its own chunk of histories — bit-identical
//! to a sequential loop by construction.

use perigee_metrics::percentile_or_inf_mut;
use perigee_netsim::NodeId;

use crate::observation::NodeObservations;
use crate::score::{NodeHistory, SelectionStrategy};

/// Confidence-bound scoring over each connection's observation history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UcbScoring {
    percentile: f64,
    c: f64,
}

/// The per-neighbor estimate with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceBounds {
    /// Percentile point estimate.
    pub estimate: f64,
    /// Lower confidence bound (eq. 4).
    pub lcb: f64,
    /// Upper confidence bound (eq. 3).
    pub ucb: f64,
    /// Number of finite samples backing the estimate.
    pub samples: usize,
}

impl UcbScoring {
    /// Creates the strategy with confidence constant `c`, scoring at
    /// `percentile`.
    pub fn new(percentile: f64, c: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&percentile),
            "percentile must be in [0, 100]"
        );
        assert!(c >= 0.0, "confidence constant must be non-negative");
        UcbScoring { percentile, c }
    }

    /// Computes the bounds from a neighbor's accumulated sample buffer
    /// ([`NodeHistory::samples_for`]). A neighbor with no finite samples
    /// has all-infinite bounds — maximally distrusted.
    pub fn bounds_of(&self, samples: &[f32], scratch: &mut Vec<f64>) -> ConfidenceBounds {
        let m = samples.len();
        if m == 0 {
            return ConfidenceBounds {
                estimate: f64::INFINITY,
                lcb: f64::INFINITY,
                ucb: f64::INFINITY,
                samples: 0,
            };
        }
        scratch.clear();
        scratch.extend(samples.iter().map(|&t| t as f64));
        let estimate = percentile_or_inf_mut(scratch, self.percentile);
        // log(1)/2 = 0 gives a zero-width interval at m = 1, matching the
        // formula; widths shrink as O(sqrt(log m / m)).
        let width = self.c * ((m as f64).ln() / (2.0 * m as f64)).sqrt();
        ConfidenceBounds {
            estimate,
            lcb: estimate - width,
            ucb: estimate + width,
            samples: m,
        }
    }
}

impl SelectionStrategy for UcbScoring {
    fn retain(
        &self,
        _v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
        history: &mut NodeHistory,
    ) -> Vec<NodeId> {
        // Fold this round into the per-connection history first — only
        // finite timestamps enter `T̿u,v` (the paper filters `t̃ < ∞`).
        for &u in outgoing {
            history.absorb(u, observations.times_for(u));
        }
        if outgoing.len() <= 1 {
            return outgoing.to_vec();
        }
        let mut scratch = Vec::new();
        let bounds: Vec<(NodeId, ConfidenceBounds)> = outgoing
            .iter()
            .map(|&u| (u, self.bounds_of(history.samples_for(u), &mut scratch)))
            .collect();
        // max lcb (worst plausible neighbor) vs min ucb (best pessimistic).
        let (worst, worst_b) = bounds
            .iter()
            .max_by(|a, b| a.1.lcb.total_cmp(&b.1.lcb).then(b.0.cmp(&a.0)))
            .expect("outgoing non-empty");
        let min_ucb = bounds
            .iter()
            .map(|(_, b)| b.ucb)
            .fold(f64::INFINITY, f64::min);
        // Drop the worst only when its *lower* bound clears every upper
        // bound — i.e. it is worse than some neighbor with confidence.
        // (A neighbor that never delivered has lcb = ∞ and is dropped as
        // soon as any peer has a finite ucb.)
        if worst_b.lcb > min_ucb {
            let dropped = *worst;
            outgoing.iter().copied().filter(|&u| u != dropped).collect()
        } else {
            outgoing.to_vec()
        }
    }

    fn name(&self) -> &'static str {
        "perigee-ucb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{observe_blocks, ObservationStore};
    use perigee_netsim::{
        ConnectionLimits, MetricLatencyModel, NodeProfile, Population, SimTime, Topology,
    };

    fn star_world(dists: &[f64]) -> (Population, MetricLatencyModel, Topology) {
        let mut coords = vec![0.0];
        coords.extend_from_slice(dists);
        let profiles: Vec<NodeProfile> = coords
            .iter()
            .map(|&x| NodeProfile {
                coords: vec![x],
                hash_power: 1.0,
                validation_delay: SimTime::from_ms(0.0),
                ..NodeProfile::default()
            })
            .collect();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 1.0);
        let n = coords.len();
        let mut topo = Topology::new(n, ConnectionLimits::unlimited());
        for i in 1..n {
            topo.connect(NodeId::new(0), NodeId::new(i as u32)).unwrap();
        }
        (pop, lat, topo)
    }

    fn one_round(
        pop: &Population,
        lat: &MetricLatencyModel,
        topo: &Topology,
        src: u32,
    ) -> ObservationStore {
        observe_blocks(topo, lat, pop, &[src])
    }

    /// Folds one round into `h` for every listed neighbor, as `retain`
    /// does before it scores.
    fn absorb(h: &mut NodeHistory, outgoing: &[NodeId], store: &ObservationStore) {
        let obs = store.node(NodeId::new(0));
        for &u in outgoing {
            h.absorb(u, obs.times_for(u));
        }
    }

    #[test]
    fn accumulates_history_across_rounds() {
        let (pop, lat, topo) = star_world(&[5.0, 50.0]);
        let s = UcbScoring::new(90.0, 1.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2)];
        let mut h = NodeHistory::default();
        for _ in 0..4 {
            let store = one_round(&pop, &lat, &topo, 1);
            let _ = s.retain(
                NodeId::new(0),
                &outgoing,
                store.node(NodeId::new(0)),
                &mut h,
            );
        }
        assert_eq!(h.sample_count(NodeId::new(1)), 4);
        assert_eq!(h.sample_count(NodeId::new(2)), 4);
    }

    #[test]
    fn drops_a_clearly_worse_neighbor_once_confident() {
        let (pop, lat, topo) = star_world(&[5.0, 500.0]);
        // c small => narrow intervals => quick separation.
        let s = UcbScoring::new(90.0, 10.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2)];
        let mut h = NodeHistory::default();
        let mut kept = outgoing.clone();
        for _ in 0..20 {
            let store = one_round(&pop, &lat, &topo, 1);
            kept = s.retain(
                NodeId::new(0),
                &outgoing,
                store.node(NodeId::new(0)),
                &mut h,
            );
            if kept.len() < outgoing.len() {
                break;
            }
        }
        assert_eq!(kept, vec![NodeId::new(1)], "the distant neighbor is cut");
    }

    #[test]
    fn keeps_statistically_indistinguishable_neighbors() {
        // Diamond world: chooser 0 at the left tip, neighbors 1 and 2 on
        // symmetric corners, miner 3 at the right tip. Both neighbors
        // deliver every block at exactly the same time, so their bounds
        // coincide and neither may ever be dropped.
        let coords: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],  // 0 chooser
            vec![1.0, 0.5],  // 1
            vec![1.0, -0.5], // 2
            vec![2.0, 0.0],  // 3 miner
        ];
        let profiles: Vec<NodeProfile> = coords
            .into_iter()
            .map(|c| NodeProfile {
                coords: c,
                hash_power: 1.0,
                validation_delay: SimTime::from_ms(0.0),
                ..NodeProfile::default()
            })
            .collect();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 100.0);
        let mut topo = Topology::new(4, ConnectionLimits::unlimited());
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        topo.connect(NodeId::new(3), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(3), NodeId::new(2)).unwrap();

        let s = UcbScoring::new(90.0, 1.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2)];
        let mut h = NodeHistory::default();
        for _ in 0..10 {
            let store = observe_blocks(&topo, &lat, &pop, &[3]);
            let kept = s.retain(
                NodeId::new(0),
                &outgoing,
                store.node(NodeId::new(0)),
                &mut h,
            );
            assert_eq!(kept.len(), 2, "equal neighbors are never separated");
        }
    }

    #[test]
    fn confidence_width_shrinks_with_samples() {
        let (pop, lat, topo) = star_world(&[5.0, 50.0]);
        let s = UcbScoring::new(90.0, 1.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2)];
        let mut h = NodeHistory::default();
        let mut scratch = Vec::new();
        for _ in 0..2 {
            absorb(&mut h, &outgoing, &one_round(&pop, &lat, &topo, 1));
        }
        let b2 = s.bounds_of(h.samples_for(NodeId::new(1)), &mut scratch);
        let w2 = b2.ucb - b2.lcb;
        for _ in 0..30 {
            absorb(&mut h, &outgoing, &one_round(&pop, &lat, &topo, 1));
        }
        let b32 = s.bounds_of(h.samples_for(NodeId::new(1)), &mut scratch);
        let w32 = b32.ucb - b32.lcb;
        assert!(w32 < w2, "width {w32} should shrink below {w2}");
        assert_eq!(b32.samples, 32);
    }

    #[test]
    fn unseen_neighbor_has_infinite_bounds() {
        let s = UcbScoring::new(90.0, 1.0);
        let h = NodeHistory::default();
        let b = s.bounds_of(h.samples_for(NodeId::new(1)), &mut Vec::new());
        assert!(b.estimate.is_infinite() && b.lcb.is_infinite() && b.ucb.is_infinite());
        assert_eq!(b.samples, 0);
    }

    #[test]
    fn never_delivering_neighbor_is_dropped() {
        let (mut pop, lat, topo) = star_world(&[5.0, 50.0]);
        pop.profile_mut(NodeId::new(2)).behavior = perigee_netsim::Behavior::Silent;
        let s = UcbScoring::new(90.0, 1.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2)];
        let mut h = NodeHistory::default();
        let mut kept = outgoing.clone();
        for _ in 0..5 {
            let store = one_round(&pop, &lat, &topo, 1);
            kept = s.retain(
                NodeId::new(0),
                &outgoing,
                store.node(NodeId::new(0)),
                &mut h,
            );
            if kept.len() < 2 {
                break;
            }
        }
        assert_eq!(kept, vec![NodeId::new(1)]);
    }

    #[test]
    fn single_neighbor_is_always_retained() {
        let (pop, lat, topo) = star_world(&[5.0]);
        let s = UcbScoring::new(90.0, 1.0);
        let store = one_round(&pop, &lat, &topo, 1);
        let kept = s.retain_stateless(
            NodeId::new(0),
            &[NodeId::new(1)],
            store.node(NodeId::new(0)),
        );
        assert_eq!(kept, vec![NodeId::new(1)]);
    }
}
