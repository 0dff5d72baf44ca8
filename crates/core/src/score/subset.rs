//! SubsetScoring (§4.3): greedy complementary group selection.
//!
//! A node ultimately cares about how fast its neighbor *set* delivers
//! blocks, not about any individual neighbor: neighbors covering different
//! parts of the network complement each other. Exhaustive subset scoring is
//! exponential, so the paper greedily grows the retained set: each step
//! picks the neighbor minimizing the percentile of the *transformed*
//! multiset
//!
//! ```text
//! T̿u,v(u1..uk) = ( min(t̃ᵇu,v , min_{i≤k} t̃ᵇuᵢ,v) : b ∈ B )
//! ```
//!
//! i.e. a candidate is only charged for blocks the already-chosen neighbors
//! did not themselves deliver quickly.

use perigee_metrics::percentile_or_inf_mut;
use perigee_netsim::NodeId;

use crate::observation::NodeObservations;
use crate::score::vanilla::retain_best_scored;
use crate::score::{NodeHistory, SelectionStrategy};

/// Greedy complementary subset selection at a percentile target.
///
/// Like Vanilla, Subset leaves its [`NodeHistory`] blank — group scores
/// are recomputed from the current round's observation matrix every time
/// — so a dynamic world ([`perigee_netsim::dynamics`]) needs no state
/// surgery here: joiners and departures are picked up through the
/// per-round store resize.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetScoring {
    retain_count: usize,
    percentile: f64,
}

impl SubsetScoring {
    /// Creates the strategy: grow a group of `retain_count` neighbors,
    /// scoring at `percentile` (the paper uses 90).
    pub fn new(retain_count: usize, percentile: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&percentile),
            "percentile must be in [0, 100]"
        );
        SubsetScoring {
            retain_count,
            percentile,
        }
    }

    /// The group score of an explicit neighbor set: percentile of the
    /// per-block minimum over the set. Exposed for tests and for the
    /// ablation comparing greedy vs exhaustive selection.
    ///
    /// **Dense-only** (panics on the sketch backend): the per-block joint
    /// minimum is exactly the statistic a marginal per-edge sketch cannot
    /// reconstruct — see the sketch fallback of its
    /// [`SelectionStrategy::retain`].
    pub fn group_score(&self, observations: &NodeObservations<'_>, group: &[NodeId]) -> f64 {
        if group.is_empty() {
            return f64::INFINITY;
        }
        let mut per_block: Vec<f64> = (0..observations.block_count())
            .map(|b| {
                group
                    .iter()
                    .map(|&u| observations.time_of(b, u))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        percentile_or_inf_mut(&mut per_block, self.percentile)
    }
}

impl SelectionStrategy for SubsetScoring {
    /// The greedy complementary selection.
    ///
    /// On the sketch backend the greedy complementary criterion is
    /// unavailable — it needs the per-block joint minimum across the
    /// group, and the sketch keeps only marginal per-edge percentile
    /// state — so selection **degrades to marginal ranking**: keep the
    /// `retain_count` neighbors with the best individual sketch
    /// percentiles (Vanilla's ordering, same deterministic id
    /// tie-break). This is the documented approximation of sketch mode;
    /// runs that need the joint criterion keep the dense backend.
    fn retain(
        &self,
        _v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
        _history: &mut NodeHistory,
    ) -> Vec<NodeId> {
        if observations.is_sketch() {
            return retain_best_scored(outgoing, &observations, self.percentile, self.retain_count);
        }
        let blocks = observations.block_count();
        // One column-major copy of just the outgoing columns (cols[k·B..])
        // — a single allocation feeding sequential reads in the greedy
        // loop — plus each candidate's individual score: when two
        // candidates add nothing new to the group (equal marginal scores —
        // common once the group already covers every block well), the
        // individually-faster one wins the tie. This also guarantees that
        // a neighbor which never delivers (all-∞ column, e.g. a
        // free-rider) is picked last. A listed neighbor absent from the
        // observation row (never a communication peer this round) reads
        // as all-∞ too.
        let mut cols: Vec<f64> = Vec::with_capacity(outgoing.len() * blocks);
        let mut solo: Vec<f64> = Vec::with_capacity(outgoing.len());
        let mut scratch = vec![0.0f64; blocks];
        for &u in outgoing {
            let base = cols.len();
            match observations.index_of(u) {
                Some(i) => cols.extend(observations.column(i)),
                None => cols.extend(std::iter::repeat_n(f64::INFINITY, blocks)),
            }
            scratch.copy_from_slice(&cols[base..]);
            solo.push(percentile_or_inf_mut(&mut scratch, self.percentile));
        }

        let mut current_best = vec![f64::INFINITY; blocks];
        let mut remaining: Vec<usize> = (0..outgoing.len()).collect();
        let mut chosen: Vec<NodeId> = Vec::new();

        while chosen.len() < self.retain_count && !remaining.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for &idx in &remaining {
                let col = &cols[idx * blocks..(idx + 1) * blocks];
                for b in 0..blocks {
                    scratch[b] = current_best[b].min(col[b]);
                }
                let score = percentile_or_inf_mut(&mut scratch, self.percentile);
                let better = match best {
                    None => true,
                    Some((s, i)) => {
                        let key = (score, solo[idx], outgoing[idx]);
                        let incumbent = (s, solo[i], outgoing[i]);
                        key < incumbent
                    }
                };
                if better {
                    best = Some((score, idx));
                }
            }
            let (_, pick) = best.expect("remaining non-empty");
            chosen.push(outgoing[pick]);
            let col = &cols[pick * blocks..(pick + 1) * blocks];
            for b in 0..blocks {
                current_best[b] = current_best[b].min(col[b]);
            }
            remaining.retain(|&i| i != pick);
        }
        chosen
    }

    fn name(&self) -> &'static str {
        "perigee-subset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{observe_blocks, ObservationStore, SketchObservationStore};
    use perigee_netsim::{
        ConnectionLimits, MetricLatencyModel, NodeProfile, Population, SimTime, Topology,
        TopologyView,
    };

    /// Two-cluster world. Node 0 (the chooser) has three outgoing
    /// neighbors: gateways 1 and 2 both sit near mining cluster A (source
    /// node 4), gateway 3 sits near mining cluster B (source node 5).
    /// 90% of blocks come from A, so both A-gateways score well
    /// individually — but they are redundant: only the B-gateway covers
    /// the remaining blocks.
    fn cluster_world() -> (Population, MetricLatencyModel, Topology) {
        let coords: Vec<Vec<f64>> = vec![
            vec![0.5, 0.0],   // 0: chooser
            vec![0.2, 0.1],   // 1: gateway A1
            vec![0.25, 0.12], // 2: gateway A2
            vec![0.8, 0.1],   // 3: gateway B
            vec![0.1, 0.3],   // 4: source in cluster A
            vec![0.9, 0.3],   // 5: source in cluster B
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
        let lat = MetricLatencyModel::new(&pop, 1000.0);
        let mut topo = Topology::new(6, ConnectionLimits::unlimited());
        // Chooser's outgoing neighbors: the three gateways.
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        topo.connect(NodeId::new(0), NodeId::new(3)).unwrap();
        // Sources attach to their local gateways.
        topo.connect(NodeId::new(4), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(4), NodeId::new(2)).unwrap();
        topo.connect(NodeId::new(5), NodeId::new(3)).unwrap();
        (pop, lat, topo)
    }

    /// 18 blocks from cluster A, 2 from cluster B (the 90/10 mix).
    fn mixed_sources() -> Vec<u32> {
        let mut sources = vec![4u32; 18];
        sources.extend([5u32; 2]);
        sources
    }

    fn observe_rounds(sources: &[u32]) -> ObservationStore {
        let (pop, lat, topo) = cluster_world();
        observe_blocks(&topo, &lat, &pop, sources)
    }

    #[test]
    fn picks_a_complementary_pair_not_redundant_gateways() {
        let store = observe_rounds(&mixed_sources());
        let s = SubsetScoring::new(2, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let kept = s.retain_stateless(NodeId::new(0), &outgoing, store.node(NodeId::new(0)));
        assert_eq!(kept.len(), 2);
        assert!(
            kept.contains(&NodeId::new(3)),
            "the only cluster-B gateway must be kept: {kept:?}"
        );
        // Plus exactly one of the redundant A-gateways.
        assert!(kept.contains(&NodeId::new(1)) ^ kept.contains(&NodeId::new(2)));
    }

    #[test]
    fn vanilla_keeps_the_redundant_gateways() {
        // Contrast with independent scoring: both A-gateways beat the
        // B-gateway individually (90% of blocks come from A), so vanilla
        // redundantly keeps {A1, A2} — the §4.3 motivation for joint
        // scoring.
        let store = observe_rounds(&mixed_sources());
        let obs = store.node(NodeId::new(0));
        let v = crate::score::VanillaScoring::new(2, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let kept = v.retain_stateless(NodeId::new(0), &outgoing, obs);
        assert!(kept.contains(&NodeId::new(1)) && kept.contains(&NodeId::new(2)));
        // And the subset group-score of vanilla's choice is strictly worse.
        let s = SubsetScoring::new(2, 90.0);
        let vanilla_score = s.group_score(&obs, &kept);
        let complementary = s.group_score(&obs, &[NodeId::new(2), NodeId::new(3)]);
        assert!(
            complementary < vanilla_score,
            "complementary {complementary} vs redundant {vanilla_score}"
        );
    }

    #[test]
    fn group_score_of_pair_is_min_per_block() {
        let store = observe_rounds(&mixed_sources());
        let obs = store.node(NodeId::new(0));
        let s = SubsetScoring::new(2, 90.0);
        let pair = s.group_score(&obs, &[NodeId::new(1), NodeId::new(3)]);
        let solo1 = s.group_score(&obs, &[NodeId::new(1)]);
        let solo3 = s.group_score(&obs, &[NodeId::new(3)]);
        assert!(pair <= solo1.min(solo3), "a pair can only help");
        assert_eq!(s.group_score(&obs, &[]), f64::INFINITY);
    }

    #[test]
    fn greedy_matches_exhaustive_on_this_instance() {
        let store = observe_rounds(&mixed_sources());
        let obs = store.node(NodeId::new(0));
        let s = SubsetScoring::new(2, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let kept = s.retain_stateless(NodeId::new(0), &outgoing, obs);
        // Exhaustive best pair:
        let mut best: Option<(f64, Vec<NodeId>)> = None;
        for i in 0..outgoing.len() {
            for j in (i + 1)..outgoing.len() {
                let g = vec![outgoing[i], outgoing[j]];
                let score = s.group_score(&obs, &g);
                if best.as_ref().is_none_or(|(b, _)| score < *b) {
                    best = Some((score, g));
                }
            }
        }
        let (best_score, best_group) = best.unwrap();
        let kept_score = s.group_score(&obs, &kept);
        assert!(
            kept_score <= best_score + 1e-9,
            "greedy {kept:?} ({kept_score}) vs exhaustive {best_group:?} ({best_score})"
        );
    }

    #[test]
    fn retains_everything_when_budget_exceeds_neighbors() {
        let store = observe_rounds(&[4]);
        let s = SubsetScoring::new(6, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2)];
        let kept = s.retain_stateless(NodeId::new(0), &outgoing, store.node(NodeId::new(0)));
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn sketch_fallback_keeps_vanillas_neighbors() {
        let (pop, lat, topo) = cluster_world();
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut sketch = SketchObservationStore::from_view(&view, 90.0);
        sketch.ingest(&observe_rounds(&mixed_sources()));
        let subset = SubsetScoring::new(2, 90.0);
        let vanilla = crate::score::VanillaScoring::new(2, 90.0);
        for v in (0..6).map(NodeId::new) {
            let outgoing = topo.outgoing_vec(v);
            assert_eq!(
                subset.retain_stateless(v, &outgoing, sketch.node(v)),
                vanilla.retain_stateless(v, &outgoing, sketch.node(v)),
                "node {v}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn bad_percentile_panics() {
        let _ = SubsetScoring::new(6, -1.0);
    }
}
