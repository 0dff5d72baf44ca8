//! VanillaScoring (§4.2.1): independent per-neighbor percentile scores.

use perigee_netsim::NodeId;

use crate::observation::NodeObservations;
use crate::score::{NodeHistory, SelectionStrategy};

/// Scores each outgoing neighbor by the 90th percentile of its normalized
/// delivery times within the round and keeps the `retain_count` best.
///
/// Lower scores are better: they mean the neighbor consistently delivered
/// blocks close to the earliest delivery `v` saw. Ties break toward the
/// smaller node id, keeping rounds deterministic.
///
/// Vanilla leaves its [`NodeHistory`] blank, so churn cannot poison it:
/// under a dynamic world ([`perigee_netsim::dynamics`]) every round's
/// scores are re-learned from that round's observations alone — only the
/// observation store (rebuilt per round on the grown snapshot) needs to
/// track the node set.
#[derive(Debug, Clone, PartialEq)]
pub struct VanillaScoring {
    retain_count: usize,
    percentile: f64,
}

impl VanillaScoring {
    /// Creates the strategy: keep `retain_count` neighbors, score at
    /// `percentile` (the paper uses 90).
    pub fn new(retain_count: usize, percentile: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&percentile),
            "percentile must be in [0, 100]"
        );
        VanillaScoring {
            retain_count,
            percentile,
        }
    }

    /// The per-neighbor score: `percentile`-th percentile of `T̃u,v` —
    /// exact on the dense backend, the edge sketch's P² estimate on the
    /// sketch backend.
    pub fn score(&self, observations: &NodeObservations<'_>, u: NodeId) -> f64 {
        let mut col = Vec::new();
        match observations.index_of(u) {
            Some(i) => observations.column_percentile_or_inf(i, self.percentile, &mut col),
            None => f64::INFINITY,
        }
    }
}

impl SelectionStrategy for VanillaScoring {
    /// Keeps the `retain_count` best-scored neighbors. The per-neighbor
    /// statistic comes from
    /// [`NodeObservations::column_percentile_or_inf`] — on the dense
    /// backend that is the exact percentile over one reusable column
    /// buffer (the observation reads are borrowed strided walks over the
    /// round matrix), on the sketch backend the edge's constant-space P²
    /// estimate.
    fn retain(
        &self,
        _v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
        _history: &mut NodeHistory,
    ) -> Vec<NodeId> {
        retain_best_scored(outgoing, &observations, self.percentile, self.retain_count)
    }

    fn name(&self) -> &'static str {
        "perigee-vanilla"
    }
}

/// Vanilla's ranking, shared with Subset's sketch fallback: scores every
/// outgoing neighbor by its `percentile`-th percentile (`∞` for one
/// absent from the observation row) and keeps the `retain_count` best,
/// ties broken toward the smaller id. The column buffer is allocated on
/// the first dense column and never on the sketch backend, whose
/// percentiles are read straight off the edge sketches.
pub(crate) fn retain_best_scored(
    outgoing: &[NodeId],
    observations: &NodeObservations<'_>,
    percentile: f64,
    retain_count: usize,
) -> Vec<NodeId> {
    let mut col = Vec::new();
    let mut scored: Vec<(f64, NodeId)> = Vec::with_capacity(outgoing.len());
    for &u in outgoing {
        let score = match observations.index_of(u) {
            Some(i) => observations.column_percentile_or_inf(i, percentile, &mut col),
            None => f64::INFINITY,
        };
        scored.push((score, u));
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored
        .into_iter()
        .take(retain_count)
        .map(|(_, u)| u)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::{
        ConnectionLimits, MetricLatencyModel, NodeProfile, Population, SimTime, Topology,
    };

    use crate::observation::{observe_blocks, ObservationStore};

    /// Star world: center node 0 connected to peripherals at distances
    /// given by `dists`; block always mined at node 1 (first peripheral).
    /// Returns the round's store; the center's view is `store.node(0)`.
    fn star_observations(dists: &[f64], blocks: usize) -> ObservationStore {
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
        observe_blocks(&topo, &lat, &pop, &vec![1; blocks])
    }

    #[test]
    fn keeps_the_fastest_neighbors() {
        // Distances from the center: neighbor 1 at 5 (and the miner),
        // neighbor 2 at 50, neighbor 3 at 20.
        let store = star_observations(&[5.0, 50.0, 20.0], 10);
        let s = VanillaScoring::new(2, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let kept = s.retain_stateless(NodeId::new(0), &outgoing, store.node(NodeId::new(0)));
        assert_eq!(kept, vec![NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn score_is_relative_to_first_delivery() {
        let store = star_observations(&[5.0, 50.0, 20.0], 3);
        let s = VanillaScoring::new(2, 90.0);
        let obs = store.node(NodeId::new(0));
        // Neighbor 1 mined every block; center hears from it at 5, from 3
        // at 5+0(validation)+... wait — all go through the center. From
        // the center's view: n1 delivers at 5 (normalized 0), n3 echoes
        // back at 5+20+20 = 45 → normalized 40, n2 at 5+50+50 → 105 → 100.
        assert_eq!(s.score(&obs, NodeId::new(1)), 0.0);
        assert_eq!(s.score(&obs, NodeId::new(3)), 40.0);
        assert_eq!(s.score(&obs, NodeId::new(2)), 100.0);
    }

    #[test]
    fn missing_neighbor_scores_infinite() {
        let store = star_observations(&[5.0], 2);
        let s = VanillaScoring::new(1, 90.0);
        assert!(s
            .score(&store.node(NodeId::new(0)), NodeId::new(99))
            .is_infinite());
    }

    #[test]
    fn retains_at_most_retain_count() {
        let store = star_observations(&[5.0, 6.0, 7.0, 8.0], 5);
        let s = VanillaScoring::new(2, 90.0);
        let outgoing: Vec<NodeId> = (1..5).map(NodeId::new).collect();
        assert_eq!(
            s.retain_stateless(NodeId::new(0), &outgoing, store.node(NodeId::new(0)))
                .len(),
            2
        );
    }

    #[test]
    fn fewer_neighbors_than_retain_count_keeps_all() {
        let store = star_observations(&[5.0], 2);
        let s = VanillaScoring::new(6, 90.0);
        let outgoing = vec![NodeId::new(1)];
        assert_eq!(
            s.retain_stateless(NodeId::new(0), &outgoing, store.node(NodeId::new(0)))
                .len(),
            1
        );
    }

    #[test]
    fn ties_break_deterministically_by_id() {
        // Two neighbors at identical distance score identically.
        let store = star_observations(&[5.0, 10.0, 10.0], 4);
        let s = VanillaScoring::new(2, 90.0);
        let outgoing = vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)];
        let kept = s.retain_stateless(NodeId::new(0), &outgoing, store.node(NodeId::new(0)));
        assert_eq!(kept, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn bad_percentile_panics() {
        let _ = VanillaScoring::new(6, 142.0);
    }
}
