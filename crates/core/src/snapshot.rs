//! Deterministic checkpoint/resume: the versioned, self-describing
//! [`RunSnapshot`] of a long-running world.
//!
//! A snapshot captures *complete* cross-round run state — everything the
//! determinism contract depends on: the engine configuration and round
//! counter, the block [`GossipConfig`], the [`Population`] (live flags,
//! stable ids, hash power), the learned [`Topology`], the engine's
//! per-node score histories ([`NodeHistory`] — UCB's per-connection
//! `T̿u,v`, blank under Vanilla and Subset), the [`AddressBook`], the
//! [`LivenessTracker`]'s counters and backoff timers, the
//! [`ChurnProcess`]'s rate, session law, RNG and session queue, the
//! [`FaultPlan`] (pure config — its per-block draws are keyed on the
//! global block index `round × blocks_per_round`), the latency model, and
//! the run RNG's raw state. Each fact is stored once; what is *not*
//! serialized is derived state rebuilt on resume: the CSR snapshot
//! (`TopologyView`), the miner sampler, the global block counter (the
//! round counter times the config's blocks per round), the population's
//! live count (recounted from its `alive` flags) and the topology's
//! incoming sets and pin mirrors (rebuilt from the outgoing sets and
//! each pinned pair) — all pure functions of the state above. The
//! patched-equals-fresh invariant guarantees the rebuilt view is
//! bit-identical to the one the checkpointed run was carrying.
//!
//! # On-disk format
//!
//! Little-endian, length-prefixed (`serde::bin`), wrapped in a
//! self-describing envelope:
//!
//! ```text
//! magic "PRGS" | format_version u32 | body length u64 | body | fnv1a64(body) u64
//! ```
//!
//! [`RunSnapshot::from_bytes`] verifies magic, version and content hash
//! before touching the body, and every decoder validates its structural
//! invariants, so a truncated or bit-flipped file yields a structured
//! [`SnapshotError`] instead of garbage state. Resuming at round *k* and
//! running to *N* is bit-identical to an uninterrupted *N*-round run —
//! across thread counts, churn and active fault plans (the `resume`
//! integration suite is the enforcement).
//!
//! The current body layout is format **9**; [`FORMAT_VERSION`] records
//! what each version changed.
//!
//! [`ChurnProcess`]: perigee_netsim::ChurnProcess
//! [`FaultPlan`]: perigee_netsim::FaultPlan
//! [`LivenessTracker`]: crate::LivenessTracker
//! [`AddressBook`]: crate::AddressBook

use std::fmt;

use serde::bin::{fnv1a64, Decode, DecodeError, Encode, Reader};

use perigee_netsim::{ChurnProcess, FaultPlan, GossipConfig, Population, Topology, TrafficConfig};

use crate::config::PerigeeConfig;
use crate::discovery::AddressBook;
use crate::liveness::LivenessTracker;
use crate::score::{NodeHistory, ScoringMethod};

/// The envelope magic: "PRGS" (PeRiGee Snapshot).
const MAGIC: [u8; 4] = *b"PRGS";

/// Format version this build writes and the only one it reads. Bump on
/// any change to the body layout.
///
/// History: **1** — the original inventory; **2** — adds the free-list
/// compaction epoch ([`RunSnapshot::compaction_epoch`]) and the latency
/// placement keys that make compaction delay-preserving (the
/// [`GeoLatencyModel`](perigee_netsim::GeoLatencyModel) codec grew two
/// fields); **3** — adds the continuous-traffic workload (an optional
/// [`TrafficConfig`] after the fault plan): traffic origination is a
/// pure hash of `(seed, round, class, node)`, so the config alone lets
/// a resumed run regenerate the identical message stream; **4** — the
/// score state becomes a typed per-node [`NodeHistory`] array owned by
/// the engine (it was the strategy's opaque byte blob), and the
/// parallel-switch byte is gone (the rayon pool width is the only
/// parallelism setting, and results never depend on it); **5** — the
/// block propagation setting is the engine's [`GossipConfig`] itself
/// (v4 stored a propagation-mode tag byte in front of an optional
/// config), so the kernel is picked from the config on resume; **6** —
/// settings no run varied became constants, so their fields left the
/// codecs: the [`PerigeeConfig`] score-staleness factor, the
/// [`LivenessConfig`](crate::LivenessConfig) timers (only its switch
/// remains), the geographic latency model's jitter fraction, the arrival
/// [`PopulationBuilder`](perigee_netsim::PopulationBuilder)'s region
/// weights, and the uniform validation and lognormal/Weibull session
/// variants (surviving variants keep their tags); **7** — run state only
/// tests chose left the body: the queue-kind byte, the churn mode tag
/// with the trace-replay events and cursor (the [`ChurnProcess`] now
/// encodes its arrival rate and session law directly) and the last-round
/// [`WorldDelta`](perigee_netsim::WorldDelta); **8** — the byte layout of
/// version 7, but every [`NodeHistory`] buffer is sorted ascending under
/// [`f32::total_cmp`] (scoring reads its order statistics by index), and
/// the decoder refuses a buffer that is unsorted or holds a non-finite
/// sample; **9** — each fact is stored once: the global block counter
/// (always `round × blocks_per_round`), the population's free-list (the
/// `alive` flags already say which slots are dead) and the topology's
/// incoming sets and second pin copies (each pinned pair is written once)
/// left the body and are rebuilt on resume, and the decoders refuse an
/// edge naming a node outside the world, a self-loop, a pair held twice,
/// and hash power that is NaN, infinite, negative or held by a dead
/// slot. Older envelopes are rejected with
/// [`SnapshotError::UnsupportedVersion`] — re-run the capture, don't
/// guess at a world whose id space may have been renumbered.
pub const FORMAT_VERSION: u32 = 9;

/// Why a snapshot could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The body's content hash does not match — bit rot or truncation.
    HashMismatch,
    /// The envelope was sound but a field failed structural validation.
    Corrupt(DecodeError),
    /// The snapshot disagrees with itself (e.g. a liveness tracker for a
    /// config that disables the layer).
    Inconsistent(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a perigee snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::HashMismatch => write!(f, "snapshot content hash mismatch"),
            SnapshotError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            SnapshotError::Inconsistent(why) => write!(f, "inconsistent snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Corrupt(e)
    }
}

/// Complete cross-round state of a [`PerigeeEngine`](crate::PerigeeEngine)
/// run, as captured by [`PerigeeEngine::checkpoint`](crate::PerigeeEngine::checkpoint)
/// and consumed by [`PerigeeEngine::resume`](crate::PerigeeEngine::resume).
///
/// The latency model travels as an opaque inner encoding
/// (`latency_bytes`) so the snapshot type itself stays non-generic; the
/// engine's `resume` decodes it back to the concrete model type.
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    pub(crate) round: u64,
    pub(crate) compaction_epoch: u64,
    pub(crate) config: PerigeeConfig,
    pub(crate) method: ScoringMethod,
    pub(crate) propagation: GossipConfig,
    pub(crate) adopters: Vec<bool>,
    pub(crate) histories: Vec<NodeHistory>,
    pub(crate) population: Population,
    pub(crate) topology: Topology,
    pub(crate) address_book: Option<AddressBook>,
    pub(crate) liveness: Option<LivenessTracker>,
    pub(crate) churn: Option<ChurnProcess>,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) traffic: Option<TrafficConfig>,
    pub(crate) latency_bytes: Vec<u8>,
    pub(crate) rng_state: [u64; 4],
}

impl RunSnapshot {
    /// The round counter at capture time — resuming continues from here.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// How many compactions the captured run had performed
    /// (see [`PerigeeEngine::compact`](crate::PerigeeEngine::compact)).
    /// Ids name different nodes across epochs, so this is part of the
    /// world's identity.
    pub fn compaction_epoch(&self) -> u64 {
        self.compaction_epoch
    }

    /// The captured engine configuration.
    pub fn config(&self) -> &PerigeeConfig {
        &self.config
    }

    /// The captured scoring method.
    pub fn method(&self) -> ScoringMethod {
        self.method
    }

    /// Number of node slots (alive + retired) in the captured world.
    pub fn node_count(&self) -> usize {
        self.population.len()
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.compaction_epoch.encode(out);
        self.config.encode(out);
        self.method.encode(out);
        self.propagation.encode(out);
        self.adopters.encode(out);
        self.histories.encode(out);
        self.population.encode(out);
        self.topology.encode(out);
        self.address_book.encode(out);
        self.liveness.encode(out);
        self.churn.encode(out);
        self.fault_plan.encode(out);
        self.traffic.encode(out);
        self.latency_bytes.encode(out);
        self.rng_state.encode(out);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let snapshot = RunSnapshot {
            round: u64::decode(r)?,
            compaction_epoch: u64::decode(r)?,
            config: Decode::decode(r)?,
            method: Decode::decode(r)?,
            propagation: Decode::decode(r)?,
            adopters: Vec::decode(r)?,
            histories: Vec::decode(r)?,
            population: Decode::decode(r)?,
            topology: Decode::decode(r)?,
            address_book: Option::decode(r)?,
            liveness: Option::decode(r)?,
            churn: Option::decode(r)?,
            fault_plan: Option::decode(r)?,
            traffic: Option::decode(r)?,
            latency_bytes: Vec::decode(r)?,
            rng_state: <[u64; 4]>::decode(r)?,
        };
        snapshot.check_consistency()?;
        Ok(snapshot)
    }

    /// Cross-field invariants a structurally valid body must still obey.
    fn check_consistency(&self) -> Result<(), SnapshotError> {
        let n = self.population.len();
        if self.topology.len() != n {
            return Err(SnapshotError::Inconsistent(
                "topology and population sizes differ",
            ));
        }
        if self.adopters.len() != n {
            return Err(SnapshotError::Inconsistent(
                "adopter flags do not cover the population",
            ));
        }
        if self.histories.len() != n {
            return Err(SnapshotError::Inconsistent(
                "score histories do not cover the population",
            ));
        }
        if !self.method.keeps_history()
            && self.histories.iter().any(|h| h != &NodeHistory::default())
        {
            return Err(SnapshotError::Inconsistent(
                "a scoring method without history carries score history",
            ));
        }
        if self.config.liveness.enabled != self.liveness.is_some() {
            return Err(SnapshotError::Inconsistent(
                "liveness state disagrees with the config switch",
            ));
        }
        if let Some(tracker) = &self.liveness {
            if tracker.len() != n {
                return Err(SnapshotError::Inconsistent(
                    "liveness tracker does not cover the population",
                ));
            }
        }
        if let Some(book) = &self.address_book {
            if book.len() != n {
                return Err(SnapshotError::Inconsistent(
                    "address book does not cover the population",
                ));
            }
        }
        if let Some(churn) = &self.churn {
            if !churn.covers(n) {
                return Err(SnapshotError::Inconsistent(
                    "churn schedule names a node outside the population",
                ));
            }
        }
        if self.rng_state == [0; 4] {
            return Err(SnapshotError::Inconsistent("all-zero run RNG state"));
        }
        if let Some(traffic) = &self.traffic {
            if traffic.validate().is_err() {
                return Err(SnapshotError::Inconsistent(
                    "traffic workload fails validation",
                ));
            }
        }
        Ok(())
    }

    /// Serializes the snapshot into the self-describing on-disk envelope
    /// (magic, format version, length-prefixed body, content hash).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_body(&mut body);
        let mut out = Vec::with_capacity(body.len() + 24);
        out.extend_from_slice(&MAGIC);
        FORMAT_VERSION.encode(&mut out);
        (body.len() as u64).encode(&mut out);
        let hash = fnv1a64(&body);
        out.extend_from_slice(&body);
        hash.encode(&mut out);
        out
    }

    /// Reads a snapshot back, verifying magic, version and content hash
    /// before decoding — and every structural invariant while decoding.
    ///
    /// # Errors
    ///
    /// A structured [`SnapshotError`] naming what is wrong with the file.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4).map_err(|_| SnapshotError::BadMagic)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::decode(&mut r)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let body_len = u64::decode(&mut r)? as usize;
        if body_len.saturating_add(8) != r.remaining() {
            return Err(SnapshotError::HashMismatch);
        }
        let body = r.take(body_len).map_err(SnapshotError::Corrupt)?;
        let stored = u64::decode(&mut r)?;
        if stored != fnv1a64(body) {
            return Err(SnapshotError::HashMismatch);
        }
        let mut br = Reader::new(body);
        let snapshot = Self::decode_body(&mut br)?;
        if br.remaining() != 0 {
            return Err(SnapshotError::Corrupt(DecodeError::new(
                "trailing bytes in snapshot body",
            )));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Engine-level round-trip and kill-and-resume determinism live in
    // `crates/core/tests/resume.rs`; here we cover the envelope itself.

    fn tiny_snapshot() -> RunSnapshot {
        use perigee_netsim::{ConnectionLimits, NodeId, NodeProfile};
        let profiles = vec![
            NodeProfile {
                hash_power: 1.0,
                ..NodeProfile::default()
            };
            2
        ];
        let population = Population::from_profiles(profiles).unwrap();
        let mut topology = Topology::new(2, ConnectionLimits::unlimited());
        topology.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        RunSnapshot {
            round: 17,
            compaction_epoch: 0,
            config: PerigeeConfig::default(),
            method: ScoringMethod::Subset,
            propagation: GossipConfig::flood(),
            adopters: vec![true, true],
            histories: vec![NodeHistory::default(); 2],
            population,
            topology,
            address_book: None,
            liveness: None,
            churn: None,
            fault_plan: None,
            traffic: None,
            latency_bytes: vec![1, 2, 3],
            rng_state: [1, 2, 3, 4],
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let s = tiny_snapshot();
        let bytes = s.to_bytes();
        assert_eq!(&bytes[..4], b"PRGS");
        let back = RunSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "decode∘encode is the identity");
        assert_eq!(back.round(), 17);
        assert_eq!(back.node_count(), 2);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            RunSnapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            RunSnapshot::from_bytes(&[]).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            RunSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn bit_flip_fails_the_content_hash() {
        let mut bytes = tiny_snapshot().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            RunSnapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::HashMismatch
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = tiny_snapshot().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            assert!(
                RunSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn inconsistent_body_is_rejected_with_structure() {
        let mut s = tiny_snapshot();
        s.adopters = vec![true]; // one flag, two nodes
        let bytes = s.to_bytes();
        assert_eq!(
            RunSnapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::Inconsistent("adopter flags do not cover the population")
        );
    }

    #[test]
    fn score_histories_must_cover_the_population() {
        let mut s = tiny_snapshot();
        s.histories.pop();
        assert_eq!(
            RunSnapshot::from_bytes(&s.to_bytes()).unwrap_err(),
            SnapshotError::Inconsistent("score histories do not cover the population")
        );
    }

    #[test]
    fn only_ucb_may_carry_score_history() {
        use perigee_netsim::NodeId;
        let mut s = tiny_snapshot();
        s.histories[0].absorb(NodeId::new(1), [3.0].into_iter());
        assert_eq!(
            RunSnapshot::from_bytes(&s.to_bytes()).unwrap_err(),
            SnapshotError::Inconsistent("a scoring method without history carries score history")
        );
        s.method = ScoringMethod::Ucb;
        let back = RunSnapshot::from_bytes(&s.to_bytes()).expect("UCB keeps history");
        assert_eq!(back.histories, s.histories);
    }
}
