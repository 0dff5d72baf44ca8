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
/// like the round matrix they came from. Buffers are looked up by linear
/// scan — a node has at most a handful of outgoing neighbors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeHistory {
    neighbors: Vec<NodeId>,
    samples: Vec<Vec<f32>>,
}

impl NodeHistory {
    /// The accumulated samples for neighbor `u` (empty if none).
    pub fn samples_for(&self, u: NodeId) -> &[f32] {
        match self.neighbors.iter().position(|&x| x == u) {
            Some(i) => &self.samples[i],
            None => &[],
        }
    }

    /// Appends this round's finite observations of `u` to its buffer.
    pub fn absorb(&mut self, u: NodeId, times: impl Iterator<Item = f64>) {
        let i = match self.neighbors.iter().position(|&x| x == u) {
            Some(i) => i,
            None => {
                self.neighbors.push(u);
                self.samples.push(Vec::new());
                self.neighbors.len() - 1
            }
        };
        self.samples[i].extend(times.filter(|t| t.is_finite()).map(|t| t as f32));
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

    /// How many trailing samples per buffer one auditor pass inspects.
    /// Buffers only grow at the tail ([`NodeHistory::absorb`] appends;
    /// forget/clear drop whole buffers), so at
    /// audit-every-round cadence every sample is inspected while it *is*
    /// the tail — full coverage paid incrementally. A full sweep would
    /// make the pass O(total samples), which grows with run length and
    /// blows the auditor's ≤ 2% per-round budget on long UCB runs.
    const AUDIT_TAIL: usize = 32;

    /// Release-mode legality check of one node's score state (see
    /// [`crate::audit`]): buffers must pair up with neighbors, neighbor
    /// entries must be unique, and stored samples must be finite — `∞`
    /// never enters `T̿u,v` ([`NodeHistory::absorb`] filters it) and a
    /// `NaN` means the state was corrupted. Sample finiteness is checked
    /// on the newest [`NodeHistory::AUDIT_TAIL`] entries per buffer.
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
            let tail = &buf[buf.len().saturating_sub(Self::AUDIT_TAIL)..];
            if let Some(bad) = tail.iter().find(|t| !t.is_finite()) {
                out.push(AuditViolation::new(
                    AuditCheck::ScoreState,
                    format!("n{v}: non-finite sample {bad} for {u}"),
                ));
            }
        }
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`): the per-node histories
    //! are the score state a resumed run must carry to stay bit-identical
    //! with an uninterrupted one.

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
        assert_eq!(h.sample_count(b), 1);
        h.forget(a);
        assert_eq!(h.sample_count(a), 0);
        assert_eq!(h.sample_count(b), 1, "forgetting a leaves b intact");
        h.clear();
        assert_eq!(h, NodeHistory::default());
    }
}
