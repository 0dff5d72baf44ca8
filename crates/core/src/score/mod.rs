//! Neighbor scoring and selection strategies (§4.2–§4.3).
//!
//! Algorithm 1's template is: score the current outgoing neighbors from the
//! round's observations, retain the best subset, and refill with random
//! exploration peers. The three published scoring methods are:
//!
//! * [`VanillaScoring`] (§4.2.1) — per-neighbor 90th percentile;
//! * [`UcbScoring`] (§4.2.2) — percentile with confidence bounds over the
//!   neighbor's full connection history, dropping at most one neighbor per
//!   round;
//! * [`SubsetScoring`] (§4.3) — greedy complementary group selection.
//!
//! All are [`SelectionStrategy`] implementations consumed by
//! [`PerigeeEngine`](crate::PerigeeEngine). Scoring reads the round's
//! flat [`ObservationStore`](crate::ObservationStore) through borrowed
//! [`NodeObservations`] windows. A strategy holds only its parameters:
//! the one cross-round memory a published method needs — UCB's
//! per-connection history `T̿u,v` — is a per-node [`NodeHistory`] that
//! the engine owns and passes to [`SelectionStrategy::retain`]. Every
//! method is therefore scored through the same fan-out, each worker
//! mutating only its own chunk of histories; Vanilla and Subset leave
//! theirs blank.

mod subset;
mod ucb;
mod vanilla;

pub use subset::SubsetScoring;
pub use ucb::{ConfidenceBounds, UcbScoring};
pub use vanilla::VanillaScoring;

use perigee_netsim::NodeId;

use crate::observation::NodeObservations;

/// One node's cross-round scoring state: per-neighbor sample buffers,
/// kept for as long as the connection lives (the paper's `T̿u,v`).
///
/// Samples are the finite normalized observation times, stored as `f32`
/// like the round matrix they came from. Each buffer is kept sorted
/// ascending under [`f32::total_cmp`], so an order statistic is one
/// indexed read ([`UcbScoring::bounds_of`]) and the first and last
/// entries bound every other one. Buffers are looked up by linear scan —
/// a node has at most a handful of outgoing neighbors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeHistory {
    neighbors: Vec<NodeId>,
    samples: Vec<Vec<f32>>,
}

/// How many new samples one merge pass of [`NodeHistory::absorb`] holds
/// on the stack: a round brings one sample per block, so a UCB round
/// (one to a few blocks) merges in a single pass.
const MERGE_RUN: usize = 64;

impl NodeHistory {
    /// The accumulated samples for neighbor `u` (empty if none), sorted
    /// ascending under [`f32::total_cmp`]: entry `r` is the rank-`r`
    /// order statistic, an O(1) read.
    pub fn samples_for(&self, u: NodeId) -> &[f32] {
        match self.neighbors.iter().position(|&x| x == u) {
            Some(i) => &self.samples[i],
            None => &[],
        }
    }

    /// Merges this round's observations of `u` into its sorted buffer.
    /// Only times finite at `f32` width enter `T̿u,v`; `±∞` and `NaN` are
    /// dropped. The new samples are appended, then merged into place from
    /// the top in runs of up to 64: each run is sorted on the stack, each
    /// of its samples, largest first, finds its slot by a search that
    /// gallops down from the top, and the block of older samples above
    /// that slot moves up once. That is linear in the buffer plus
    /// `k log k` for `k` new samples, and allocates nothing beyond the
    /// buffer's own growth.
    pub fn absorb(&mut self, u: NodeId, times: impl Iterator<Item = f64>) {
        let i = match self.neighbors.iter().position(|&x| x == u) {
            Some(i) => i,
            None => {
                self.neighbors.push(u);
                self.samples.push(Vec::new());
                self.neighbors.len() - 1
            }
        };
        let buf = &mut self.samples[i];
        let mut sorted = buf.len();
        buf.extend(times.map(|t| t as f32).filter(|t| t.is_finite()));
        let mut run = [0.0f32; MERGE_RUN];
        while sorted < buf.len() {
            let run = &mut run[..(buf.len() - sorted).min(MERGE_RUN)];
            run.copy_from_slice(&buf[sorted..sorted + run.len()]);
            run.sort_unstable_by(f32::total_cmp);
            // `buf[..end]` is what is left to merge below `run[..=j]`.
            let mut end = sorted;
            for (j, &x) in run.iter().enumerate().rev() {
                let at = count_at_most(&buf[..end], x);
                buf.copy_within(at..end, at + j + 1);
                buf[at + j] = x;
                end = at;
            }
            sorted += run.len();
        }
    }

    /// Forgets everything about `u` — the connection is gone (the paper
    /// keeps per-neighbor history only while connected).
    pub fn forget(&mut self, u: NodeId) {
        if let Some(i) = self.neighbors.iter().position(|&x| x == u) {
            self.neighbors.remove(i);
            self.samples.remove(i);
        }
    }

    /// Forgets every neighbor at once — the node itself left the network
    /// (or reset in place).
    pub fn clear(&mut self) {
        self.neighbors.clear();
        self.samples.clear();
    }

    /// Renumbers the per-neighbor buffers under a free-list compaction
    /// plan. Entries for unmappable (dead) neighbors are dropped — the
    /// engine forgets history on disconnect, so by the time a compaction
    /// runs none should remain, but a defensive drop keeps the invariant
    /// "history references live ids" unconditional.
    pub fn compact(&mut self, plan: &perigee_netsim::IdRemap) {
        let neighbors = std::mem::take(&mut self.neighbors);
        let samples = std::mem::take(&mut self.samples);
        for (u, buf) in neighbors.into_iter().zip(samples) {
            if let Some(new) = plan.new_id(u) {
                self.neighbors.push(new);
                self.samples.push(buf);
            }
        }
    }

    /// Total number of stored samples for `u`.
    pub fn sample_count(&self, u: NodeId) -> usize {
        self.samples_for(u).len()
    }

    /// Release-mode legality check of one node's score state (see
    /// [`crate::audit`]): buffers must pair up with neighbors, neighbor
    /// entries must be unique, and stored samples must be finite — `∞`
    /// never enters `T̿u,v` ([`NodeHistory::absorb`] drops it) and a
    /// `NaN` means the state was corrupted. A buffer sorted under
    /// [`f32::total_cmp`] holds a non-finite sample only at an end (`-NaN`
    /// and `-∞` sort first, `+∞` and `+NaN` last), so reading its first
    /// and last entries checks every sample in O(1) per buffer.
    pub(crate) fn audit(&self, v: usize, out: &mut Vec<crate::audit::AuditViolation>) {
        use crate::audit::{AuditCheck, AuditViolation};
        if self.neighbors.len() != self.samples.len() {
            out.push(AuditViolation::new(
                AuditCheck::ScoreState,
                format!("n{v}: neighbor/buffer arrays diverge"),
            ));
            return;
        }
        for (i, u) in self.neighbors.iter().enumerate() {
            if self.neighbors[..i].contains(u) {
                out.push(AuditViolation::new(
                    AuditCheck::ScoreState,
                    format!("n{v}: duplicate history entry for {u}"),
                ));
            }
            let buf = &self.samples[i];
            let mut ends = buf.first().into_iter().chain(buf.last());
            if let Some(bad) = ends.find(|t| !t.is_finite()) {
                out.push(AuditViolation::new(
                    AuditCheck::ScoreState,
                    format!("n{v}: non-finite sample {bad} for {u}"),
                ));
            }
        }
    }
}

/// How many samples of the sorted `buf` are at most `x` under
/// [`f32::total_cmp`] (`buf.partition_point(|y| y <= x)`), found by
/// galloping down from the top and then bisecting the last stride. The
/// merge moves every sample above `x` anyway, so the search reads the
/// cache lines the move reads next, not the middle of a cold buffer.
fn count_at_most(buf: &[f32], x: f32) -> usize {
    // Every sample in `buf[hi..]` is above `x`.
    let mut hi = buf.len();
    let mut stride = 1;
    while hi >= stride && buf[hi - stride].total_cmp(&x).is_gt() {
        hi -= stride;
        stride *= 2;
    }
    let lo = hi.saturating_sub(stride);
    lo + buf[lo..hi].partition_point(|y| y.total_cmp(&x).is_le())
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`): the per-node histories
    //! are the score state a resumed run must carry to stay bit-identical
    //! with an uninterrupted one. Scoring reads a buffer's order
    //! statistics by index and checks its samples nowhere else, so the
    //! decoder refuses a buffer that is not finite and sorted.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::{NodeHistory, ScoringMethod};

    impl Encode for NodeHistory {
        fn encode(&self, out: &mut Vec<u8>) {
            self.neighbors.encode(out);
            self.samples.encode(out);
        }
    }

    impl Decode for NodeHistory {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let h = NodeHistory {
                neighbors: Vec::decode(r)?,
                samples: Vec::decode(r)?,
            };
            if h.neighbors.len() != h.samples.len() {
                return Err(DecodeError::new("node history arrays diverge"));
            }
            for buf in &h.samples {
                if !buf.iter().all(|t| t.is_finite()) {
                    return Err(DecodeError::new("node history holds a non-finite sample"));
                }
                if !buf.is_sorted_by(|a, b| a.total_cmp(b).is_le()) {
                    return Err(DecodeError::new("node history buffer is not sorted"));
                }
            }
            Ok(h)
        }
    }

    impl Encode for ScoringMethod {
        fn encode(&self, out: &mut Vec<u8>) {
            let tag: u8 = match self {
                ScoringMethod::Vanilla => 0,
                ScoringMethod::Ucb => 1,
                ScoringMethod::Subset => 2,
            };
            tag.encode(out);
        }
    }

    impl Decode for ScoringMethod {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(ScoringMethod::Vanilla),
                1 => Ok(ScoringMethod::Ucb),
                2 => Ok(ScoringMethod::Subset),
                _ => Err(DecodeError::new("unknown scoring method tag")),
            }
        }
    }
}

/// Decides which outgoing neighbors a node keeps at the end of a round.
///
/// A strategy holds only its scoring parameters. Whatever a node
/// remembers across rounds lives in the [`NodeHistory`] passed to
/// [`SelectionStrategy::retain`], which the engine keeps per node.
pub trait SelectionStrategy: Send + Sync {
    /// Returns the subset of `outgoing` that node `v` retains, reading
    /// the round's `observations` and updating `v`'s own `history`.
    /// Anything not returned is disconnected; the engine refills the
    /// freed slots with random exploration peers.
    fn retain(
        &self,
        v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
        history: &mut NodeHistory,
    ) -> Vec<NodeId>;

    /// [`SelectionStrategy::retain`] on a blank history: the decision a
    /// node makes from this round's observations alone (exactly the
    /// engine's decision under Vanilla and Subset, which keep none).
    fn retain_stateless(
        &self,
        v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
    ) -> Vec<NodeId> {
        self.retain(v, outgoing, observations, &mut NodeHistory::default())
    }

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// The scoring method selector used by engines and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoringMethod {
    /// Per-neighbor 90th-percentile scoring (§4.2.1).
    Vanilla,
    /// Confidence-bound scoring over connection history (§4.2.2).
    Ucb,
    /// Greedy complementary subset scoring (§4.3).
    Subset,
}

impl ScoringMethod {
    /// All three methods, in paper order.
    pub const ALL: [ScoringMethod; 3] = [
        ScoringMethod::Vanilla,
        ScoringMethod::Ucb,
        ScoringMethod::Subset,
    ];

    /// Instantiates the strategy, retaining `retain_count` neighbors
    /// (Vanilla/Subset) and scoring at `percentile`; `ucb_c` is the
    /// confidence-width constant of eqs. (3–4). Strategies keep no
    /// per-node state, so the network size `_n` does not shape them.
    pub fn strategy(
        self,
        _n: usize,
        retain_count: usize,
        percentile: f64,
        ucb_c: f64,
    ) -> Box<dyn SelectionStrategy> {
        match self {
            ScoringMethod::Vanilla => Box::new(VanillaScoring::new(retain_count, percentile)),
            ScoringMethod::Ucb => Box::new(UcbScoring::new(percentile, ucb_c)),
            ScoringMethod::Subset => Box::new(SubsetScoring::new(retain_count, percentile)),
        }
    }

    /// Whether the method's scoring writes to its [`NodeHistory`] — only
    /// UCB does; the others' histories stay blank.
    pub(crate) fn keeps_history(self) -> bool {
        self == ScoringMethod::Ucb
    }

    /// The paper's round length for this method (§5.1): 100 blocks for
    /// Vanilla/Subset, a single block for UCB.
    pub fn paper_blocks_per_round(self) -> usize {
        match self {
            ScoringMethod::Ucb => 1,
            _ => 100,
        }
    }
}

impl std::fmt::Display for ScoringMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ScoringMethod::Vanilla => "perigee-vanilla",
            ScoringMethod::Ucb => "perigee-ucb",
            ScoringMethod::Subset => "perigee-subset",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditCheck, AuditViolation};

    #[test]
    fn display_names() {
        assert_eq!(ScoringMethod::Vanilla.to_string(), "perigee-vanilla");
        assert_eq!(ScoringMethod::Ucb.to_string(), "perigee-ucb");
        assert_eq!(ScoringMethod::Subset.to_string(), "perigee-subset");
    }

    #[test]
    fn paper_round_sizes() {
        assert_eq!(ScoringMethod::Vanilla.paper_blocks_per_round(), 100);
        assert_eq!(ScoringMethod::Subset.paper_blocks_per_round(), 100);
        assert_eq!(ScoringMethod::Ucb.paper_blocks_per_round(), 1);
    }

    #[test]
    fn factory_builds_each_strategy() {
        for m in ScoringMethod::ALL {
            let s = m.strategy(10, 6, 90.0, 1.0);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn node_history_tracks_per_neighbor_buffers() {
        let mut h = NodeHistory::default();
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        h.absorb(a, [1.0, f64::INFINITY, 3.0].into_iter());
        h.absorb(b, [2.0].into_iter());
        h.absorb(a, [5.0].into_iter());
        assert_eq!(h.samples_for(a), &[1.0f32, 3.0, 5.0][..]);
        h.absorb(a, [4.0, 0.5, f64::NAN].into_iter());
        assert_eq!(h.samples_for(a), &[0.5f32, 1.0, 3.0, 4.0, 5.0][..]);
        assert_eq!(h.sample_count(b), 1);
        h.forget(a);
        assert_eq!(h.sample_count(a), 0);
        assert_eq!(h.sample_count(b), 1, "forgetting a leaves b intact");
        h.clear();
        assert_eq!(h, NodeHistory::default());
    }

    #[test]
    fn count_at_most_matches_partition_point() {
        let mut buf = Vec::new();
        for len in 0..70u16 {
            buf.push(f32::from(len / 3) - 5.0);
            for x in [-7.0, -5.0, -0.0, 0.0, 0.5, 3.0, 17.0, 30.0] {
                let want = buf.partition_point(|y: &f32| y.total_cmp(&x).is_le());
                assert_eq!(count_at_most(&buf, x), want, "x {x} over {len} + 1 samples");
            }
        }
    }

    /// A 100-sample buffer for `u` with `bad` written over entry `at`.
    fn corrupted(u: NodeId, at: usize, bad: f32) -> Vec<AuditViolation> {
        let mut h = NodeHistory::default();
        h.absorb(u, (0..100).map(f64::from));
        let mut out = Vec::new();
        h.audit(0, &mut out);
        assert!(
            out.is_empty(),
            "a sorted finite buffer audits clean: {out:?}"
        );
        h.samples[0][at] = bad;
        h.audit(0, &mut out);
        out
    }

    fn flags_non_finite(out: &[AuditViolation]) -> bool {
        out.iter()
            .any(|v| v.check == AuditCheck::ScoreState && v.detail.contains("non-finite"))
    }

    #[test]
    fn audit_sees_a_non_finite_sample_at_the_sorted_front() {
        let out = corrupted(NodeId::new(4), 0, f32::NEG_INFINITY);
        assert!(flags_non_finite(&out), "{out:?}");
    }

    #[test]
    fn audit_sees_a_non_finite_sample_at_the_sorted_back() {
        let out = corrupted(NodeId::new(4), 99, f32::NAN);
        assert!(flags_non_finite(&out), "{out:?}");
    }

    /// One observation time for the sweep below: ties, signed zeros,
    /// subnormals, values at and near `f32::MAX`, times that overflow
    /// `f32`, infinities and NaN.
    fn draw_time(rng: &mut rand::rngs::StdRng) -> f64 {
        use rand::Rng;
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        match rng.gen_range(0..10u32) {
            0 => sign * 0.0,
            1 => sign * f64::from(f32::from_bits(rng.gen_range(1..0x0080_0000u32))),
            2 => sign * f64::from(f32::from_bits(f32::MAX.to_bits() - rng.gen_range(0..3u32))),
            3 => [
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                2.0 * f64::from(f32::MAX),
            ][rng.gen_range(0..4usize)],
            4 | 5 => f64::from(rng.gen_range(0..4u32)),
            _ => f64::from(rng.gen_range(-1.0f32..500.0)),
        }
    }

    /// A compaction plan over 8 slots that retires each with chance 0.3,
    /// or `None` when none was retired.
    fn random_plan(rng: &mut rand::rngs::StdRng) -> Option<perigee_netsim::IdRemap> {
        use perigee_netsim::{NodeProfile, Population};
        use rand::Rng;
        let profile = NodeProfile {
            hash_power: 1.0,
            ..NodeProfile::default()
        };
        let mut pop = Population::from_profiles(vec![profile; 8]).unwrap();
        for id in 0..8 {
            if rng.gen_bool(0.3) {
                pop.retire(NodeId::new(id));
            }
        }
        pop.compaction_plan()
    }

    /// The bounds the copy-and-select body gave: the percentile selected
    /// from an unsorted copy of the arrivals.
    fn select_bounds(arrivals: &[f32], p: f64) -> [f64; 3] {
        let m = arrivals.len();
        if m == 0 {
            return [f64::INFINITY; 3];
        }
        let estimate = perigee_metrics::percentile_or_inf_f32_mut(&mut arrivals.to_vec(), p);
        let width = ((m as f64).ln() / (2.0 * m as f64)).sqrt();
        [estimate, estimate - width, estimate + width]
    }

    /// Checks `h` against the arrival-order oracle: one buffer per entry,
    /// equal bit for bit to its arrivals sorted under `total_cmp`, with the
    /// bounds [`select_bounds`] gives.
    fn assert_matches(h: &NodeHistory, oracle: &[(NodeId, Vec<f32>)]) {
        let bits = |s: &[f32]| s.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(h.neighbors.len(), oracle.len(), "one buffer per neighbor");
        for (u, arrivals) in oracle {
            let buf = h.samples_for(*u);
            let mut sorted = arrivals.clone();
            sorted.sort_by(f32::total_cmp);
            assert_eq!(
                bits(buf),
                bits(&sorted),
                "sorted, and a permutation of the arrivals"
            );
            for p in [0.0, 50.0, 90.0, 97.5, 100.0] {
                let b = UcbScoring::new(p, 1.0).bounds_of(buf);
                assert_eq!(b.samples, arrivals.len());
                let got = [b.estimate, b.lcb, b.ucb].map(f64::to_bits);
                assert_eq!(got, select_bounds(arrivals, p).map(f64::to_bits), "p{p}");
            }
        }
    }

    /// Sorted histories equal the copy-and-select oracle: a seeded sweep
    /// of 600 cases drives `absorb` (0–120 times a call), `forget` and
    /// `compact` on a history and on an arrival-order oracle side by side,
    /// and checks the two after every step.
    #[test]
    fn sorted_histories_equal_the_copy_and_select_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for _ in 0..600 {
            let mut h = NodeHistory::default();
            let mut oracle: Vec<(NodeId, Vec<f32>)> = Vec::new();
            for _ in 0..rng.gen_range(1..10usize) {
                let u = NodeId::new(rng.gen_range(0..8));
                match rng.gen_range(0..10u32) {
                    0 => {
                        h.forget(u);
                        oracle.retain(|(w, _)| *w != u);
                    }
                    1 => {
                        let Some(plan) = random_plan(&mut rng) else {
                            continue;
                        };
                        h.compact(&plan);
                        oracle = oracle
                            .into_iter()
                            .filter_map(|(w, buf)| Some((plan.new_id(w)?, buf)))
                            .collect();
                    }
                    _ => {
                        let times: Vec<f64> = (0..rng.gen_range(0..=120usize))
                            .map(|_| draw_time(&mut rng))
                            .collect();
                        h.absorb(u, times.iter().copied());
                        let finite = times.iter().map(|&t| t as f32).filter(|t| t.is_finite());
                        match oracle.iter_mut().find(|(w, _)| *w == u) {
                            Some((_, buf)) => buf.extend(finite),
                            None => oracle.push((u, finite.collect())),
                        }
                    }
                }
                assert_matches(&h, &oracle);
            }
        }
    }
}
