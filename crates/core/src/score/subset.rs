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

use perigee_metrics::{percentile_or_inf_f32_mut, percentile_or_inf_mut};
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
///
/// # Cost
///
/// On the dense backend, a node with `k` outgoing neighbors, `B` blocks
/// and `r = retain_count` copies its `k` columns once (`k·B` `f32`
/// samples), takes `k` solo percentiles, and reuses them as the first
/// greedy step; each later step `s` scores the `k − s` remaining
/// candidates. That is `k + Σ_{s=1}^{r−1} (k − s)` percentiles of `B`
/// samples, each an O(B) selection, so O(k·r·B) per node. The paper's
/// world (`k` = 8, `r` = 6, `B` = 100) takes 33 selections per node. On
/// the sketch backend selection is Vanilla's ranking: `k` constant-time
/// estimates and one sort of `k` scores.
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
        // One column-major copy of just the outgoing columns (cols[k·B..]),
        // in the store's own f32 — a single allocation feeding sequential
        // reads in the greedy loop — plus each candidate's individual
        // score: when two candidates add nothing new to the group (equal
        // marginal scores — common once the group already covers every
        // block well), the individually-faster one wins the tie. This
        // also guarantees that a neighbor which never delivers (all-∞
        // column, e.g. a free-rider) is picked last. A listed neighbor
        // absent from the observation row (never a communication peer
        // this round) reads as all-∞ too. Widening f32 to f64 is exact
        // and monotone, so every per-block minimum and every selected
        // order statistic equals its f64 counterpart bit for bit.
        let mut cols: Vec<f32> = Vec::with_capacity(outgoing.len() * blocks);
        let mut solo: Vec<f64> = Vec::with_capacity(outgoing.len());
        let mut scratch = vec![0.0f32; blocks];
        for &u in outgoing {
            let base = cols.len();
            match observations.index_of(u) {
                Some(i) => cols.extend(observations.dense_column(i)),
                None => cols.extend(std::iter::repeat_n(f32::INFINITY, blocks)),
            }
            scratch.copy_from_slice(&cols[base..]);
            solo.push(percentile_or_inf_f32_mut(&mut scratch, self.percentile));
        }

        let mut current_best = vec![f32::INFINITY; blocks];
        let mut remaining: Vec<usize> = (0..outgoing.len()).collect();
        let mut chosen: Vec<NodeId> = Vec::new();

        while chosen.len() < self.retain_count && !remaining.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for &idx in &remaining {
                // Against the empty group the running minimum is all +∞,
                // so a candidate's marginal score is its solo score.
                let score = if chosen.is_empty() {
                    solo[idx]
                } else {
                    let col = &cols[idx * blocks..(idx + 1) * blocks];
                    for ((s, &c), &m) in scratch.iter_mut().zip(col).zip(&current_best) {
                        *s = m.min(c);
                    }
                    percentile_or_inf_f32_mut(&mut scratch, self.percentile)
                };
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
            for (m, &c) in current_best.iter_mut().zip(col) {
                *m = m.min(c);
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
    use std::collections::BTreeMap;

    use super::*;
    use crate::observation::{
        observe_blocks, ObservationCollector, ObservationStore, SketchObservationStore,
    };
    use perigee_netsim::{
        ConnectionLimits, MetricLatencyModel, NodeProfile, Population, SimTime, Topology,
        TopologyView,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A random dense store over a star: node 0's neighbors `2..=k`
    /// deliver each block at a time drawn from a small alphabet (ties
    /// everywhere) three times in four, else never; neighbor 1 never
    /// delivers at all (an all-∞ column).
    fn random_star_store(k: u32, blocks: usize, rng: &mut StdRng) -> ObservationStore {
        let profiles: Vec<NodeProfile> = (0..=k)
            .map(|i| NodeProfile {
                coords: vec![f64::from(i)],
                hash_power: 1.0,
                ..NodeProfile::default()
            })
            .collect();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 1.0);
        let mut topo = Topology::new(k as usize + 1, ConnectionLimits::unlimited());
        for u in 1..=k {
            topo.connect(NodeId::new(0), NodeId::new(u)).unwrap();
        }
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut collector = ObservationCollector::from_view(&view);
        const ALPHABET: [f64; 6] = [0.0, 1.0, 2.0, 3.5, 8.0, 13.0];
        for _ in 0..blocks {
            let mut logs = vec![BTreeMap::new(); k as usize + 1];
            for u in 2..=k {
                if rng.gen_range(0..4) != 0 {
                    let t = ALPHABET[rng.gen_range(0..ALPHABET.len())];
                    logs[0].insert(NodeId::new(u), SimTime::from_ms(t));
                }
            }
            collector.record_gossip(&logs);
        }
        collector.finish()
    }

    /// The greedy spelled out with the public group score: each step
    /// scores `chosen ∪ {c}` for every remaining candidate `c` and keeps
    /// the least (score, solo score, id).
    fn group_score_greedy(
        s: &SubsetScoring,
        obs: &NodeObservations<'_>,
        outgoing: &[NodeId],
    ) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = Vec::new();
        let mut remaining = outgoing.to_vec();
        while chosen.len() < s.retain_count && !remaining.is_empty() {
            let key = |c: NodeId| {
                let mut group = chosen.clone();
                group.push(c);
                (s.group_score(obs, &group), s.group_score(obs, &[c]), c)
            };
            let pick = remaining
                .iter()
                .copied()
                .min_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap())
                .unwrap();
            chosen.push(pick);
            remaining.retain(|&c| c != pick);
        }
        chosen
    }

    #[test]
    fn retain_equals_the_group_score_greedy_on_random_stores() {
        let mut rng = StdRng::seed_from_u64(0x5B5E7);
        for case in 0..150 {
            let k = rng.gen_range(1..=10u32);
            // Every tenth store holds no block at all.
            let blocks = if case % 10 == 0 {
                0
            } else {
                rng.gen_range(1..=120)
            };
            let store = random_star_store(k, blocks, &mut rng);
            let obs = store.node(NodeId::new(0));
            // The row's neighbors in a shuffled order, some dropped, plus
            // an id that is no neighbor of node 0 at all.
            let mut outgoing: Vec<NodeId> = (1..=k)
                .filter(|_| rng.gen_range(0..5) != 0)
                .map(NodeId::new)
                .collect();
            outgoing.push(NodeId::new(k + 7));
            for i in (1..outgoing.len()).rev() {
                outgoing.swap(i, rng.gen_range(0..=i));
            }
            let p = [0.0, 50.0, 90.0, 100.0, rng.gen_range(0.0..=100.0)][case % 5];
            // Budgets below, at and above the candidate count.
            let retain = rng.gen_range(0..=outgoing.len() + 2);
            let s = SubsetScoring::new(retain, p);
            assert_eq!(
                s.retain_stateless(NodeId::new(0), &outgoing, obs),
                group_score_greedy(&s, &obs, &outgoing),
                "case {case}: k {k}, {blocks} blocks, p{p}, retain {retain}"
            );
        }
    }

    #[test]
    fn a_blockless_store_keeps_the_smallest_ids() {
        let mut rng = StdRng::seed_from_u64(3);
        let store = random_star_store(5, 0, &mut rng);
        let outgoing: Vec<NodeId> = [4, 2, 5, 1, 3].map(NodeId::new).to_vec();
        let kept = SubsetScoring::new(3, 90.0).retain_stateless(
            NodeId::new(0),
            &outgoing,
            store.node(NodeId::new(0)),
        );
        assert_eq!(kept, [1, 2, 3].map(NodeId::new).to_vec());
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn bad_percentile_panics() {
        let _ = SubsetScoring::new(6, -1.0);
    }
}
