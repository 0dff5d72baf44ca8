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

use perigee_metrics::{
    percentile_from_closest_ranks, percentile_lower_rank, percentile_or_inf_f32_mut,
    percentile_or_inf_mut,
};
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
/// samples). Greedy step `s` then makes one O(B) pass over each of the
/// `k − s` remaining candidates: it merges the candidate's column into
/// the group's per-block minimum and counts the merged samples at or
/// below `S*`, the least score the step has found so far. A score
/// interpolates between the samples at 0-based ascending ranks
/// `lo = ⌊p/100·(B−1)⌋` and `lo + 1`, and is never below the first. So
/// a candidate with at most `lo` samples at or below `S*` has its
/// rank-`lo` sample above `S*`, scores above `S*`, and can neither win
/// nor tie: it is skipped. With exactly `lo + 1`, the greatest of them
/// and the least sample above `S*` are the two ranks, and the score
/// follows without a selection.
/// Only the other candidates pay an O(B) selection, and a solo score
/// (the tie-break) is selected only at step 0, where it is the score, or
/// when scores tie. Candidates are visited in the order of their last
/// known scores, so `S*` is tight early. No visit order changes a
/// result: each step keeps the least (score, solo score, id), a total
/// order. Without skipping, that would be `k + Σ_{s=1}^{r−1} (k − s)`
/// selections: 33 per node in the paper's world (`k` = 8, `r` = 6,
/// `B` = 100, p90), 33k per round of roundbench's `blocks_1k`. A measured
/// `blocks_1k` round (seed 41) made the same 33k passes but only 12.3k
/// selections: 2.6k at step 0, 8.3k later and 1.4k solo scores for ties.
/// It skipped 19.6k candidates and scored 2.5k from the pass alone. On
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
    /// per-block minimum over the set. Exposed for tests, which spell
    /// out the greedy and an exhaustive search with it.
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
        // reads in the greedy loop. A listed neighbor absent from the
        // observation row (never a communication peer this round) reads
        // as all-∞. Widening f32 to f64 is exact and monotone, so every
        // per-block minimum and every selected order statistic equals its
        // f64 counterpart bit for bit.
        let mut cols: Vec<f32> = Vec::with_capacity(outgoing.len() * blocks);
        for &u in outgoing {
            match observations.index_of(u) {
                Some(i) => cols.extend(observations.dense_column(i)),
                None => cols.extend(std::iter::repeat_n(f32::INFINITY, blocks)),
            }
        }
        // The percentile kernel refuses NaN; most columns never reach it
        // below, so they are all checked here (a fold, which vectorizes).
        assert!(
            !cols.iter().fold(false, |nan, t| nan | t.is_nan()),
            "percentile input must not contain NaN"
        );
        let column = |idx: usize| &cols[idx * blocks..(idx + 1) * blocks];
        // No order statistic exists without blocks, and every score is ∞.
        let lower_rank = (blocks > 0).then(|| percentile_lower_rank(blocks, self.percentile));
        // Each step keeps the least key (score, solo score, id). The solo
        // score breaks ties between candidates that add the same to the
        // group (common once it covers every block well) in favour of the
        // individually faster one, and puts a neighbor that never delivers
        // (an all-∞ column, e.g. a free-rider) last. It is computed when
        // step 0 (where score and solo coincide) or a tie needs it, then
        // memoized.
        let mut solo: Vec<Option<f64>> = vec![None; outgoing.len()];
        // The score each candidate had when last computed, +∞ once skipped:
        // visiting the likely winner first tightens the bound early.
        let mut last = vec![f64::INFINITY; outgoing.len()];
        let mut scratch = vec![0.0f32; blocks];
        let mut current_best = vec![f32::INFINITY; blocks];
        let mut remaining: Vec<usize> = (0..outgoing.len()).collect();
        let mut chosen: Vec<NodeId> = Vec::new();

        while chosen.len() < self.retain_count && !remaining.is_empty() {
            remaining.sort_by(|&a, &b| last[a].total_cmp(&last[b]));
            let mut best: Option<(f64, usize)> = None;
            for &idx in &remaining {
                // One pass merges the candidate into the group and counts
                // the merged samples at or below the incumbent's score S*.
                let bound = best.map_or(f64::INFINITY, |(s, _)| s);
                let threshold = f32_at_or_below(bound);
                // A `u32` tally vectorizes twice as wide as a `usize` one.
                let mut at_or_below = 0u32;
                for ((s, &c), &m) in scratch.iter_mut().zip(column(idx)).zip(&current_best) {
                    *s = m.min(c);
                    at_or_below += u32::from(*s <= threshold);
                }
                let at_or_below = at_or_below as usize;
                let score = match lower_rank {
                    // At most `lo` samples at or below S* put the sample
                    // at rank `lo` above S*, and the score is at least
                    // that sample: it can neither win nor tie.
                    Some(lo) if at_or_below <= lo => {
                        last[idx] = f64::INFINITY;
                        continue;
                    }
                    // Exactly `lo + 1`: they are the `lo + 1` smallest, so
                    // the greatest of them is the sample at rank `lo` and
                    // the least sample above S* the one at `lo + 1`.
                    Some(lo) if at_or_below == lo + 1 => {
                        let (lo, hi) = straddle(&scratch, threshold);
                        percentile_from_closest_ranks(
                            blocks,
                            self.percentile,
                            f64::from(lo),
                            f64::from(hi),
                        )
                    }
                    _ => percentile_or_inf_f32_mut(&mut scratch, self.percentile),
                };
                last[idx] = score;
                // Against the empty group the running minimum is all +∞,
                // so a candidate's marginal score is its solo score.
                if chosen.is_empty() {
                    solo[idx] = Some(score);
                }
                let better = match best {
                    None => true,
                    Some((s, i)) => {
                        score < s
                            || (score == s && {
                                let p = self.percentile;
                                let a = solo_score(&mut solo[idx], column(idx), &mut scratch, p);
                                let b = solo_score(&mut solo[i], column(i), &mut scratch, p);
                                (a, outgoing[idx]) < (b, outgoing[i])
                            })
                    }
                };
                if better {
                    best = Some((score, idx));
                }
            }
            let (_, pick) = best.expect("remaining non-empty");
            chosen.push(outgoing[pick]);
            for (m, &c) in current_best.iter_mut().zip(column(pick)) {
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

/// The greatest `f32` whose widening is at most `x`, as `+0.0` rather
/// than `-0.0`: an `f32` sample `s` has `f64::from(s) <= x` exactly when
/// `s <= f32_at_or_below(x)`, and for a non-NaN `s` that holds exactly
/// when `s` orders at or below it by `f32::total_cmp` too.
fn f32_at_or_below(x: f64) -> f32 {
    let t = x as f32;
    let t = if f64::from(t) > x { t.next_down() } else { t };
    if t == 0.0 {
        0.0
    } else {
        t
    }
}

/// The greatest sample at or below `threshold` and the least above it (+∞
/// if none), by `f32::total_cmp` like the percentile kernel's selection.
/// Samples are compared as `total_cmp`'s integer keys, so the pass is
/// branch-free and vectorizes.
fn straddle(samples: &[f32], threshold: f32) -> (f32, f32) {
    // `total_cmp`'s key: flipping the magnitude bits of negatives makes
    // signed-integer order the IEEE total order, and the map is its own
    // inverse.
    fn key(x: f32) -> i32 {
        let bits = x.to_bits() as i32;
        bits ^ (((bits >> 31) as u32) >> 1) as i32
    }
    let unkey = |k: i32| f32::from_bits(key(f32::from_bits(k as u32)) as u32);
    let at = key(threshold);
    let (mut below, mut above) = (key(f32::NEG_INFINITY), key(f32::INFINITY));
    for &s in samples {
        let k = key(s);
        below = below.max(if k <= at { k } else { i32::MIN });
        above = above.min(if k > at { k } else { i32::MAX });
    }
    (unkey(below), unkey(above))
}

/// A candidate's solo score, the percentile of its own column, selected
/// in `scratch` on first use and memoized in `memo`.
fn solo_score(memo: &mut Option<f64>, column: &[f32], scratch: &mut [f32], p: f64) -> f64 {
    *memo.get_or_insert_with(|| {
        scratch.copy_from_slice(column);
        percentile_or_inf_f32_mut(scratch, p)
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::observation::{
        assert_block_rows, observe_blocks, ObservationCollector, ObservationStore,
        SketchObservationStore,
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

    /// How a random star store draws its delivery times.
    #[derive(Debug, Clone, Copy)]
    enum Times {
        /// A six-value alphabet: ties everywhere.
        Alphabet,
        /// Uniform over [0, 50) ms: order statistics almost never tie.
        Continuous,
    }

    impl Times {
        fn draw(self, rng: &mut StdRng) -> f64 {
            const ALPHABET: [f64; 6] = [0.0, 1.0, 2.0, 3.5, 8.0, 13.0];
            match self {
                Times::Alphabet => ALPHABET[rng.gen_range(0..ALPHABET.len())],
                Times::Continuous => rng.gen_range(0.0..50.0),
            }
        }
    }

    /// A random dense store over a star: node 0's neighbors `2..=k`
    /// deliver each block at a time drawn by `times` three times in four,
    /// else never; neighbor 1 never delivers at all (an all-∞ column).
    /// About one neighbor in four instead copies an earlier neighbor's
    /// column, exactly or slowed on some blocks: the copy ties the
    /// original's group score whenever the group covers it, so only the
    /// solo score (a slowed copy's is no better) or the id decides.
    fn random_star_store(
        k: u32,
        blocks: usize,
        times: Times,
        rng: &mut StdRng,
    ) -> ObservationStore {
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
        // Per neighbor: the earlier neighbor it copies, and whether slowed.
        let copies: Vec<Option<(usize, bool)>> = (0..=k as usize)
            .map(|u| {
                (u > 2 && rng.gen_range(0..4) == 0)
                    .then(|| (rng.gen_range(2..u), rng.gen_bool(0.5)))
            })
            .collect();
        let mut expected = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            let mut row: Vec<Option<f64>> = vec![None; k as usize + 1];
            for u in 2..=k as usize {
                row[u] = match copies[u] {
                    None => (rng.gen_range(0..4) != 0).then(|| times.draw(rng)),
                    Some((of, slowed)) => row[of].map(|t| {
                        if slowed && rng.gen_range(0..3) == 0 {
                            t + times.draw(rng)
                        } else {
                            t
                        }
                    }),
                };
            }
            // Node 0 hears its neighbors 1..=k; no leaf hears anything.
            let mut rows = vec![vec![SimTime::INFINITY]; k as usize + 1];
            rows[0] = row[1..]
                .iter()
                .map(|t| t.map_or(SimTime::INFINITY, SimTime::from_ms))
                .collect();
            collector.record_raw_rows(&rows);
            let mut logs = vec![BTreeMap::new(); k as usize + 1];
            for (u, t) in row.iter().enumerate() {
                if let Some(t) = t {
                    logs[0].insert(NodeId::new(u as u32), SimTime::from_ms(*t));
                }
            }
            expected.push(perigee_oracle::normalized_rows(&view, &logs));
        }
        let store = collector.finish();
        for (block, rows) in expected.iter().enumerate() {
            assert_block_rows(&store, block, rows, "star store against eq. 2");
        }
        store
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

    /// `retain` — with its skipping bound, its exact rank shortcut and its
    /// lazily computed solo scores — against the plain greedy above, on
    /// stores with ties on every rank (duplicated columns, a tie alphabet)
    /// and without (continuous times), blockless stores included.
    #[test]
    fn retain_equals_the_group_score_greedy_on_random_stores() {
        let mut rng = StdRng::seed_from_u64(0x5B5E7);
        for case in 0..240 {
            let times = [Times::Alphabet, Times::Continuous][case % 2];
            let k = rng.gen_range(1..=16u32);
            // Every tenth store holds no block at all.
            let blocks = if case % 10 == 0 {
                0
            } else {
                rng.gen_range(1..=120)
            };
            let store = random_star_store(k, blocks, times, &mut rng);
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
                "case {case}: {times:?}, k {k}, {blocks} blocks, p{p}, retain {retain}"
            );
        }
        // The paper's round, as `blocks_1k` runs it: 8 neighbors, keep 6,
        // 100 blocks, p90.
        for case in 0..60 {
            let times = [Times::Alphabet, Times::Continuous][case % 2];
            let store = random_star_store(8, 100, times, &mut rng);
            let mut outgoing: Vec<NodeId> = (1..=8).map(NodeId::new).collect();
            for i in (1..outgoing.len()).rev() {
                outgoing.swap(i, rng.gen_range(0..=i));
            }
            let s = SubsetScoring::new(6, 90.0);
            let obs = store.node(NodeId::new(0));
            assert_eq!(
                s.retain_stateless(NodeId::new(0), &outgoing, obs),
                group_score_greedy(&s, &obs, &outgoing),
                "paper case {case}: {times:?}"
            );
        }
    }

    #[test]
    fn a_blockless_store_keeps_the_smallest_ids() {
        let mut rng = StdRng::seed_from_u64(3);
        let store = random_star_store(5, 0, Times::Alphabet, &mut rng);
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
