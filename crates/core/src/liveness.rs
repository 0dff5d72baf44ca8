//! Peer liveness: unresponsiveness timeouts, eviction, and capped
//! exponential reconnect backoff.
//!
//! Perigee's scoring already punishes *slow* peers; what it lacks is a
//! story for peers that stop responding entirely — a crashed node behind
//! a flapping link, the far side of a partition, a stale address-book
//! entry. The [`LivenessTracker`] watches each node's outgoing neighbors
//! round over round: a neighbor that delivered nothing in a round where
//! the node itself saw blocks is *silent*, and after [`EVICT_AFTER`]
//! consecutive silent rounds the connection is force-dropped in the
//! engine's disconnect phase (counted in
//! [`RoundStats::evicted`](crate::RoundStats)). Evicted and
//! connect-failed addresses go under capped exponential backoff
//! ([`BACKOFF_BASE`] doubling up to [`BACKOFF_MAX`] rounds) so the
//! refill phase — and joiners bootstrapping through the
//! [`AddressBook`](crate::AddressBook) — don't hammer dead addresses;
//! once the backoff expires the peer becomes a normal candidate again,
//! which is what lets a healed partition re-knit.
//!
//! Everything here is deterministic: state advances only from the
//! engine's per-round observations (no clocks, no RNG), so runs with the
//! tracker enabled stay bit-identical across thread counts.

use serde::{Deserialize, Serialize};

use perigee_netsim::NodeId;

/// Consecutive silent rounds before the engine force-drops a connection.
pub const EVICT_AFTER: u32 = 4;

/// Reconnect backoff after the first eviction or failed connect, in
/// rounds; each further failure doubles it.
pub const BACKOFF_BASE: u32 = 2;

/// Backoff cap, in rounds: the doubling stops here.
pub const BACKOFF_MAX: u32 = 32;

/// Configuration of the peer-liveness layer. Disabled by default —
/// enable it per run via [`PerigeeConfig::liveness`](crate::PerigeeConfig).
/// The timers are the module's constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LivenessConfig {
    /// Master switch; when `false` the tracker is never consulted and
    /// the engine behaves exactly as without the layer.
    pub enabled: bool,
}

impl LivenessConfig {
    /// The layer switched off.
    pub const fn disabled() -> Self {
        LivenessConfig { enabled: false }
    }

    /// The layer switched on: evict after [`EVICT_AFTER`] silent rounds,
    /// retry under backoff 2 → 4 → 8 → … capped at [`BACKOFF_MAX`]
    /// rounds.
    pub const fn aggressive() -> Self {
        LivenessConfig { enabled: true }
    }
}

impl Default for LivenessConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Liveness verdict for one outgoing connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// Delivering, or not yet silent for [`EVICT_AFTER`] rounds.
    Healthy,
    /// Silent for [`EVICT_AFTER`]+ rounds: the engine must drop it.
    Evict,
}

/// Per-(node, peer) reconnect backoff record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Backoff {
    peer: u32,
    /// First round the peer may be retried.
    until_round: u64,
    /// How many times this peer has been backed off (drives doubling).
    attempts: u32,
}

/// Tracks per-outgoing-neighbor silence and reconnect backoff for every
/// node. All state is keyed by stable [`NodeId`]s and updated in id
/// order, so the tracker is deterministic by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LivenessTracker {
    /// `silent[v]`: (peer, consecutive silent rounds) per outgoing
    /// neighbor of `v`, sorted by peer id. Rebuilt incrementally: entries
    /// for dropped neighbors are pruned on observation.
    silent: Vec<Vec<(u32, u32)>>,
    /// `backoff[v]`: active reconnect backoffs, sorted by peer id.
    backoff: Vec<Vec<Backoff>>,
}

impl LivenessTracker {
    /// A tracker for `n` nodes.
    pub fn new(n: usize) -> Self {
        LivenessTracker {
            silent: vec![Vec::new(); n],
            backoff: vec![Vec::new(); n],
        }
    }

    /// Number of tracked node slots.
    pub fn len(&self) -> usize {
        self.silent.len()
    }

    /// Returns `true` if the tracker covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.silent.is_empty()
    }

    /// Grows the tracker to cover `n` node slots (churn arrivals).
    pub fn grow_to(&mut self, n: usize) {
        if n > self.silent.len() {
            self.silent.resize(n, Vec::new());
            self.backoff.resize(n, Vec::new());
        }
    }

    /// Forgets all state held *by* node `v` (churn departure or reset),
    /// and its silence counters held by others against `v` — a departed
    /// id never returns, and a reset node starts over.
    pub fn retire(&mut self, v: NodeId) {
        let vi = v.index();
        if vi < self.silent.len() {
            self.silent[vi].clear();
            self.backoff[vi].clear();
        }
        let id = v.as_u32();
        for s in &mut self.silent {
            s.retain(|&(peer, _)| peer != id);
        }
    }

    /// Applies a free-list compaction plan: dead slots are dropped and
    /// every surviving record's peer id is renumbered. Silence counters
    /// never reference dead peers ([`LivenessTracker::retire`] prunes
    /// them eagerly), but backoff records may — `retire` leaves those to
    /// expire on their own — so unmappable backoff entries are dropped
    /// here. The remap is monotone on live ids, so both per-slot lists
    /// stay sorted by peer without re-sorting.
    pub fn compact(&mut self, plan: &perigee_netsim::IdRemap) {
        plan.retain_live(&mut self.silent);
        plan.retain_live(&mut self.backoff);
        for s in &mut self.silent {
            for (peer, _) in s.iter_mut() {
                // Live-to-live references only: retire() pruned the rest.
                *peer = plan.remap(NodeId::new(*peer)).as_u32();
            }
        }
        for b in &mut self.backoff {
            b.retain_mut(|r| match plan.new_id(NodeId::new(r.peer)) {
                Some(new) => {
                    r.peer = new.as_u32();
                    true
                }
                None => false,
            });
        }
    }

    /// Feeds one round of observations for node `v`: `outgoing` is its
    /// current outgoing-neighbor list and `delivered(u)` reports whether
    /// peer `u` delivered anything to `v` this round. Counters only
    /// advance when `saw_blocks` is true — a node that saw nothing at all
    /// cannot distinguish a dead peer from its own disconnection, so the
    /// round is uninformative (this is also what keeps the layer from
    /// evicting everyone during a global outage). Returns the verdict per
    /// outgoing peer, aligned with `outgoing`.
    pub fn observe(
        &mut self,
        v: NodeId,
        outgoing: &[NodeId],
        saw_blocks: bool,
        mut delivered: impl FnMut(NodeId) -> bool,
        verdicts: &mut Vec<PeerHealth>,
    ) {
        verdicts.clear();
        let slot = &mut self.silent[v.index()];
        if !saw_blocks {
            // Uninformative round: keep counters, report current state.
            for &u in outgoing {
                let c = slot
                    .iter()
                    .find(|&&(peer, _)| peer == u.as_u32())
                    .map_or(0, |&(_, c)| c);
                verdicts.push(Self::verdict(c));
            }
            return;
        }
        let mut next: Vec<(u32, u32)> = Vec::with_capacity(outgoing.len());
        for &u in outgoing {
            let prev = slot
                .iter()
                .find(|&&(peer, _)| peer == u.as_u32())
                .map_or(0, |&(_, c)| c);
            let c = if delivered(u) { 0 } else { prev + 1 };
            next.push((u.as_u32(), c));
            verdicts.push(Self::verdict(c));
        }
        *slot = next;
    }

    #[inline]
    fn verdict(consecutive_silent: u32) -> PeerHealth {
        if consecutive_silent >= EVICT_AFTER {
            PeerHealth::Evict
        } else {
            PeerHealth::Healthy
        }
    }

    /// Puts `peer` under (or deeper into) backoff for node `v` starting
    /// from `round`: the retry delay doubles per recorded failure, capped
    /// at [`BACKOFF_MAX`].
    pub fn note_failure(&mut self, v: NodeId, peer: NodeId, round: u64) {
        let slot = &mut self.backoff[v.index()];
        let id = peer.as_u32();
        match slot.iter_mut().find(|b| b.peer == id) {
            Some(b) => {
                b.attempts = b.attempts.saturating_add(1);
                let delay = (BACKOFF_BASE << b.attempts.min(16)).min(BACKOFF_MAX);
                b.until_round = round + u64::from(delay);
            }
            None => {
                let insert_at = slot.partition_point(|b| b.peer < id);
                slot.insert(
                    insert_at,
                    Backoff {
                        peer: id,
                        until_round: round + u64::from(BACKOFF_BASE),
                        attempts: 0,
                    },
                );
            }
        }
    }

    /// Clears any backoff `v` holds against `peer` (successful connect
    /// with deliveries, or the peer departed).
    pub fn note_success(&mut self, v: NodeId, peer: NodeId) {
        let id = peer.as_u32();
        self.backoff[v.index()].retain(|b| b.peer != id);
    }

    /// Is `peer` currently under backoff for node `v` at `round`?
    #[inline]
    pub fn backed_off(&self, v: NodeId, peer: NodeId, round: u64) -> bool {
        let id = peer.as_u32();
        self.backoff[v.index()]
            .iter()
            .any(|b| b.peer == id && round < b.until_round)
    }

    /// Number of active backoff records across all nodes at `round`.
    pub fn active_backoffs(&self, round: u64) -> usize {
        self.backoff
            .iter()
            .map(|s| s.iter().filter(|b| round < b.until_round).count())
            .sum()
    }

    /// How many silence-counter slots across the whole tracker currently
    /// reference `peer` — zero after the peer departs, or the
    /// [`LivenessTracker::retire`] path leaked a slot.
    pub fn counters_tracking(&self, peer: NodeId) -> usize {
        let id = peer.as_u32();
        self.silent
            .iter()
            .map(|s| s.iter().filter(|&&(p, _)| p == id).count())
            .sum()
    }

    /// Release-mode legality check of the tracker's state machine,
    /// reporting violations into `out` (see [`crate::audit`]):
    /// counter/backoff lists must be sorted and duplicate-free, reference
    /// only in-range non-self peers, and no silence counter may exceed
    /// [`EVICT_AFTER`] — a larger value means a peer the engine should
    /// have evicted is still being counted.
    pub(crate) fn audit(&self, out: &mut Vec<crate::audit::AuditViolation>) {
        use crate::audit::{AuditCheck, AuditViolation};
        let n = self.silent.len() as u32;
        let mut push = |detail: String| {
            out.push(AuditViolation::new(
                AuditCheck::LivenessStateMachine,
                detail,
            ));
        };
        for (vi, slot) in self.silent.iter().enumerate() {
            for win in slot.windows(2) {
                if win[0].0 >= win[1].0 {
                    push(format!("n{vi}: silence counters unsorted or duplicated"));
                    break;
                }
            }
            for &(peer, count) in slot {
                if peer >= n || peer == vi as u32 {
                    push(format!(
                        "n{vi}: silence counter references invalid peer n{peer}"
                    ));
                }
                if count > EVICT_AFTER {
                    push(format!(
                        "n{vi}: peer n{peer} silent {count} rounds, past the eviction threshold {EVICT_AFTER}"
                    ));
                }
            }
        }
        for (vi, slot) in self.backoff.iter().enumerate() {
            for win in slot.windows(2) {
                if win[0].peer >= win[1].peer {
                    push(format!("n{vi}: backoff records unsorted or duplicated"));
                    break;
                }
            }
            for b in slot {
                if b.peer >= n || b.peer == vi as u32 {
                    push(format!(
                        "n{vi}: backoff record references invalid peer n{}",
                        b.peer
                    ));
                }
            }
        }
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`): the tracker's silence
    //! counters and backoff timers are exactly what must survive a
    //! restart — a resumed node that forgot a silent peer would re-trust
    //! it for up to `EVICT_AFTER` extra rounds.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::{Backoff, LivenessConfig, LivenessTracker};

    impl Encode for LivenessConfig {
        fn encode(&self, out: &mut Vec<u8>) {
            self.enabled.encode(out);
        }
    }

    impl Decode for LivenessConfig {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(LivenessConfig {
                enabled: bool::decode(r)?,
            })
        }
    }

    impl Encode for Backoff {
        fn encode(&self, out: &mut Vec<u8>) {
            self.peer.encode(out);
            self.until_round.encode(out);
            self.attempts.encode(out);
        }
    }

    impl Decode for Backoff {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(Backoff {
                peer: u32::decode(r)?,
                until_round: u64::decode(r)?,
                attempts: u32::decode(r)?,
            })
        }
    }

    impl Encode for LivenessTracker {
        fn encode(&self, out: &mut Vec<u8>) {
            self.silent.encode(out);
            self.backoff.encode(out);
        }
    }

    impl Decode for LivenessTracker {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let tracker = LivenessTracker {
                silent: Vec::decode(r)?,
                backoff: Vec::decode(r)?,
            };
            if tracker.backoff.len() != tracker.silent.len() {
                return Err(DecodeError::new("liveness tracker slot counts disagree"));
            }
            Ok(tracker)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId::new(x)).collect()
    }

    #[test]
    fn silence_escalates_to_evict_and_resets_on_delivery() {
        let mut t = LivenessTracker::new(4);
        let v = NodeId::new(0);
        let out = ids(&[1, 2]);
        let mut verdicts = Vec::new();
        // Peer 1 delivers every round, peer 2 never does.
        for silent in 1..=EVICT_AFTER {
            t.observe(v, &out, true, |u| u.as_u32() == 1, &mut verdicts);
            let expected = if silent < EVICT_AFTER {
                PeerHealth::Healthy
            } else {
                PeerHealth::Evict
            };
            assert_eq!(
                verdicts,
                vec![PeerHealth::Healthy, expected],
                "{silent} silent rounds"
            );
        }
        // One delivery wipes the record.
        t.observe(v, &out, true, |_| true, &mut verdicts);
        assert_eq!(verdicts, vec![PeerHealth::Healthy; 2]);
        t.observe(v, &out, true, |u| u.as_u32() == 1, &mut verdicts);
        assert_eq!(
            verdicts,
            vec![PeerHealth::Healthy; 2],
            "counter must restart"
        );
        assert_eq!(t.silent[0], vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn uninformative_rounds_freeze_counters() {
        let mut t = LivenessTracker::new(3);
        let v = NodeId::new(0);
        let out = ids(&[1]);
        let mut verdicts = Vec::new();
        for _ in 1..EVICT_AFTER {
            t.observe(v, &out, true, |_| false, &mut verdicts);
        }
        // Many rounds where v itself saw nothing: no escalation.
        for _ in 0..10 {
            t.observe(v, &out, false, |_| false, &mut verdicts);
            assert_eq!(verdicts, vec![PeerHealth::Healthy]);
        }
        t.observe(v, &out, true, |_| false, &mut verdicts);
        assert_eq!(
            verdicts,
            vec![PeerHealth::Evict],
            "the next informative round evicts"
        );
    }

    #[test]
    fn backoff_doubles_and_caps_and_clears() {
        let mut t = LivenessTracker::new(2);
        let (v, p) = (NodeId::new(0), NodeId::new(1));
        t.note_failure(v, p, 10);
        assert!(t.backed_off(v, p, 10));
        assert!(t.backed_off(v, p, 11));
        assert!(!t.backed_off(v, p, 12), "base backoff is 2 rounds");
        t.note_failure(v, p, 12); // attempt 1 → 4 rounds
        assert!(t.backed_off(v, p, 15));
        assert!(!t.backed_off(v, p, 16));
        for round in [16u64, 17, 18, 19, 20] {
            t.note_failure(v, p, round);
        }
        // Deep failure history: delay is capped at BACKOFF_MAX.
        assert!(t.backed_off(v, p, 20 + u64::from(BACKOFF_MAX) - 1));
        assert!(!t.backed_off(v, p, 20 + u64::from(BACKOFF_MAX)));
        t.note_success(v, p);
        assert!(!t.backed_off(v, p, 21));
        assert_eq!(t.active_backoffs(21), 0);
    }

    #[test]
    fn retire_forgets_both_directions() {
        let mut t = LivenessTracker::new(3);
        let mut verdicts = Vec::new();
        // 0 counts 1 silent; 1 counts 2 silent; 0 backs off 2.
        for _ in 1..EVICT_AFTER {
            t.observe(NodeId::new(0), &ids(&[1]), true, |_| false, &mut verdicts);
            t.observe(NodeId::new(1), &ids(&[2]), true, |_| false, &mut verdicts);
        }
        t.note_failure(NodeId::new(0), NodeId::new(2), 0);
        t.retire(NodeId::new(1));
        // 1's own state is gone and 0's counters against 1 are gone, so
        // one more silent round evicts neither.
        t.observe(NodeId::new(0), &ids(&[1]), true, |_| false, &mut verdicts);
        assert_eq!(verdicts, vec![PeerHealth::Healthy]);
        t.observe(NodeId::new(1), &ids(&[2]), true, |_| false, &mut verdicts);
        assert_eq!(verdicts, vec![PeerHealth::Healthy]);
        // Unrelated backoff survives.
        assert!(t.backed_off(NodeId::new(0), NodeId::new(2), 1));
    }

    #[test]
    fn grow_to_extends_without_touching_existing_state() {
        let mut t = LivenessTracker::new(2);
        let mut verdicts = Vec::new();
        for _ in 1..EVICT_AFTER {
            t.observe(NodeId::new(0), &ids(&[1]), true, |_| false, &mut verdicts);
        }
        t.grow_to(5);
        assert_eq!(t.len(), 5);
        t.observe(NodeId::new(0), &ids(&[1]), true, |_| false, &mut verdicts);
        assert_eq!(verdicts, vec![PeerHealth::Evict]);
        t.observe(NodeId::new(4), &ids(&[0]), true, |_| false, &mut verdicts);
        assert_eq!(verdicts, vec![PeerHealth::Healthy]);
    }

    #[test]
    fn churn_departure_of_silent_peer_leaks_no_counter_slot() {
        let mut t = LivenessTracker::new(4);
        let v = NodeId::new(0);
        let silent = NodeId::new(2);
        let mut verdicts = Vec::new();
        // Count peer 2 silent from two different watchers.
        for _ in 0..2 {
            t.observe(v, &ids(&[1, 2]), true, |u| u.as_u32() == 1, &mut verdicts);
            t.observe(NodeId::new(3), &ids(&[2]), true, |_| false, &mut verdicts);
        }
        assert_eq!(t.counters_tracking(silent), 2);
        // Peer 2 departs via churn while counted silent.
        t.retire(silent);
        assert_eq!(
            t.counters_tracking(silent),
            0,
            "departed peer must not leak counter slots"
        );
        // If the id is later reused by a joiner, it starts with a fresh
        // counter — no inherited silence.
        t.observe(v, &ids(&[1, 2]), true, |u| u.as_u32() == 1, &mut verdicts);
        assert_eq!(t.silent[0], vec![(1, 0), (2, 1)]);
        let mut violations = Vec::new();
        t.audit(&mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn backoff_at_cap_stays_capped_and_rearms_at_base_after_heal() {
        let mut t = LivenessTracker::new(2);
        let (v, p) = (NodeId::new(0), NodeId::new(1));
        // Fail far past the doubling range: delay must pin at BACKOFF_MAX.
        let mut round = 0u64;
        for _ in 0..40 {
            t.note_failure(v, p, round);
            round += 1;
        }
        let last = round - 1;
        assert!(t.backed_off(v, p, last + u64::from(BACKOFF_MAX) - 1));
        assert!(
            !t.backed_off(v, p, last + u64::from(BACKOFF_MAX)),
            "delay must stay exactly at the cap, not overflow past it"
        );
        // A successful reconnect heals the record entirely...
        t.note_success(v, p);
        assert!(!t.backed_off(v, p, last));
        // ...so the next failure re-arms at the base delay, not the cap.
        t.note_failure(v, p, 1_000);
        assert!(t.backed_off(v, p, 1_000 + u64::from(BACKOFF_BASE) - 1));
        assert!(
            !t.backed_off(v, p, 1_000 + u64::from(BACKOFF_BASE)),
            "healed peer must restart the exponential at BACKOFF_BASE"
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_counters_and_backoffs() {
        use serde::bin::{Decode, Encode};
        let mut t = LivenessTracker::new(3);
        let mut verdicts = Vec::new();
        for _ in 0..2 {
            t.observe(
                NodeId::new(0),
                &ids(&[1, 2]),
                true,
                |u| u.as_u32() == 1,
                &mut verdicts,
            );
        }
        t.note_failure(NodeId::new(1), NodeId::new(2), 7);
        let bytes = t.to_bytes();
        let back = LivenessTracker::from_bytes(&bytes).expect("round-trip");
        assert_eq!(back.len(), t.len());
        assert_eq!(back.counters_tracking(NodeId::new(2)), 1);
        assert!(back.backed_off(NodeId::new(1), NodeId::new(2), 7));
        // Restored tracker continues identically.
        let mut v1 = Vec::new();
        let mut v2 = Vec::new();
        let mut t2 = back;
        t.observe(NodeId::new(0), &ids(&[1, 2]), true, |_| false, &mut v1);
        t2.observe(NodeId::new(0), &ids(&[1, 2]), true, |_| false, &mut v2);
        assert_eq!(v1, v2);
        assert_eq!(t2, t);
        // Corruption (slot-count mismatch) is a structured error.
        let mut tampered = Vec::new();
        t.silent.encode(&mut tampered);
        Vec::<Vec<Backoff>>::new().encode(&mut tampered);
        assert!(LivenessTracker::from_bytes(&tampered).is_err());
    }

    #[test]
    fn audit_flags_illegal_states() {
        let mut t = LivenessTracker::new(2);
        // A counter past EVICT_AFTER means a peer the engine failed to
        // evict; an out-of-range peer id means corrupted state.
        t.silent[0].push((1, EVICT_AFTER + 3));
        t.silent[1].push((9, 1));
        let mut violations = Vec::new();
        t.audit(&mut violations);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations
            .iter()
            .all(|v| { v.check == crate::audit::AuditCheck::LivenessStateMachine }));
    }
}
