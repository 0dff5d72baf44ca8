//! Continuous transaction-stream workloads over the message-level engine.
//!
//! Blocks are rare (~one source per round); the networks Perigee targets
//! additionally carry orders of magnitude more *transaction* traffic —
//! Ethereum's relay layer moves thousands of small messages per second
//! (the Ethna measurement study), and DAG protocols push many blocks per
//! second. This module generates that stream: a [`TrafficConfig`] holds
//! one or more [`TrafficClass`]es, each a seeded Poisson origination
//! process (`λ` messages per node per round) with its own message size
//! and [`GossipMode`] — flood, Bitcoin-style INV/GETDATA, or the
//! push/pull hybrid ([`GossipMode::PushPull`]).
//!
//! # Determinism
//!
//! Origination counts are **pure hashes**, not RNG draws: each
//! `(seed, round, class, node)` key is mixed through the same SplitMix64
//! finalizer the fault layer uses and fed to Knuth's inversion loop, so
//! the message list for a round is a function of the config alone —
//! independent of thread count, simulation order and of how many other
//! subsystems consumed randomness. Messages are emitted in
//! canonical order (classes in config order, nodes ascending, repeats
//! adjacent), which is the batch order the engine simulates them in.
//!
//! # Batched simulation
//!
//! A round's messages are meant to be pushed through
//! [`TopologyView::gossip_batch_into`](crate::TopologyView::gossip_batch_into)
//! — tens of thousands of messages share one reused
//! [`GossipScratch`](crate::GossipScratch), with no per-edge state. The
//! canonical order puts a node's messages of one class next to each
//! other, and a message's run depends only on its source and class, so
//! only the first of such a run of copies pays an O(n) reset and a kernel
//! pass; the batch serves the others from the scratch. Traffic is
//! fault-free by contract: link faults are a block-path concern, and the
//! traffic stream measures steady-state relay cost.

use crate::bandwidth::TransferModel;
use crate::error::NetsimError;
use crate::faults::{mix, u01};
use crate::gossip::{BatchMessage, GossipConfig, GossipMode};
use crate::node::NodeId;
use crate::population::Population;

/// Largest per-class origination rate accepted by
/// [`TrafficConfig::validate`]. Knuth's inversion loop runs `O(λ)`
/// iterations per `(node, class)` key, and rates beyond this are far
/// outside any measured per-node transaction load.
pub const MAX_LAMBDA_PER_NODE: f64 = 64.0;

/// One class of traffic: a name for reporting, a Poisson origination
/// rate, a message size and a fan-out policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficClass {
    /// Reporting label (`"tx"`, `"announce"`, …).
    pub name: String,
    /// Poisson origination rate: expected messages per alive node per
    /// round.
    pub lambda_per_node: f64,
    /// Message size in MB, fed to the [`TransferModel`] of every message
    /// of this class (`0.0` = negligible transfer).
    pub size_mb: f64,
    /// How messages of this class fan out.
    pub policy: GossipMode,
}

impl TrafficClass {
    /// The [`GossipConfig`] every message of this class propagates under.
    pub fn gossip_config(&self) -> GossipConfig {
        GossipConfig {
            mode: self.policy,
            transfer: TransferModel::new(self.size_mb),
        }
    }
}

/// One originated message of a round's traffic stream: who sends it and
/// which class it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficMessage {
    /// Originating node.
    pub source: NodeId,
    /// Index into [`TrafficConfig::classes`].
    pub class: u32,
}

/// A seeded multi-class traffic workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficConfig {
    /// Seed of the hash-based origination process (independent of every
    /// other subsystem seed).
    pub seed: u64,
    /// Traffic classes, in reporting and batch order.
    pub classes: Vec<TrafficClass>,
}

impl TrafficConfig {
    /// A workload shaped like a public transaction network's steady
    /// state, totalling 10.5 expected messages per node per round —
    /// ≥10k messages per round at 1000 nodes with > 4σ margin:
    ///
    /// * `tx` — λ = 8.0, ~500 byte transactions over INV/GETDATA
    ///   (Bitcoin relay);
    /// * `announce` — λ = 2.0, ~2 KB bundles over push/pull with
    ///   `push_degree = 3` (Ethereum-style `sqrt(peers)` pushes);
    /// * `control` — λ = 0.5, negligible-size floods (pings, address
    ///   gossip).
    pub fn paper_stream(seed: u64) -> Self {
        TrafficConfig {
            seed,
            classes: vec![
                TrafficClass {
                    name: "tx".to_owned(),
                    lambda_per_node: 8.0,
                    size_mb: 0.0005,
                    policy: GossipMode::InvGetData,
                },
                TrafficClass {
                    name: "announce".to_owned(),
                    lambda_per_node: 2.0,
                    size_mb: 0.002,
                    policy: GossipMode::PushPull { push_degree: 3 },
                },
                TrafficClass {
                    name: "control".to_owned(),
                    lambda_per_node: 0.5,
                    size_mb: 0.0,
                    policy: GossipMode::Flood,
                },
            ],
        }
    }

    /// Validates every class: finite non-negative rate at most
    /// [`MAX_LAMBDA_PER_NODE`], finite non-negative size, non-empty
    /// class list.
    pub fn validate(&self) -> Result<(), NetsimError> {
        if self.classes.is_empty() {
            return Err(NetsimError::InvalidConfig(
                "traffic config needs at least one class",
            ));
        }
        for class in &self.classes {
            if !class.lambda_per_node.is_finite()
                || class.lambda_per_node < 0.0
                || class.lambda_per_node > MAX_LAMBDA_PER_NODE
            {
                return Err(NetsimError::InvalidConfig(
                    "traffic class rate must be finite, non-negative and at most 64 per node",
                ));
            }
            TransferModel::new(class.size_mb).validate()?;
        }
        Ok(())
    }

    /// Expected number of messages per round with `alive` alive nodes.
    pub fn expected_messages(&self, alive: usize) -> f64 {
        alive as f64 * self.classes.iter().map(|c| c.lambda_per_node).sum::<f64>()
    }

    /// Generates round `round`'s message list in canonical batch order:
    /// classes in config order, alive source nodes ascending, a node's
    /// repeat originations adjacent. Retired (churned-out) nodes
    /// originate nothing. Pure function of `(config, round, alive set)`.
    pub fn messages_for_round(&self, round: u64, population: &Population) -> Vec<TrafficMessage> {
        let mut out =
            Vec::with_capacity(self.expected_messages(population.alive_count()).ceil() as usize);
        self.messages_for_round_into(round, population, &mut out);
        out
    }

    /// [`TrafficConfig::messages_for_round`] into a reused buffer.
    pub fn messages_for_round_into(
        &self,
        round: u64,
        population: &Population,
        out: &mut Vec<TrafficMessage>,
    ) {
        out.clear();
        for (class_idx, class) in self.classes.iter().enumerate() {
            if class.lambda_per_node <= 0.0 {
                continue;
            }
            // exp(-λ), hoisted out of the per-node inversion loop.
            let floor = (-class.lambda_per_node).exp();
            for node in 0..population.len() as u32 {
                let id = NodeId::new(node);
                if !population.is_alive(id) {
                    continue;
                }
                let count = poisson_count(self.seed, round, class_idx as u64, node, floor);
                for _ in 0..count {
                    out.push(TrafficMessage {
                        source: id,
                        class: class_idx as u32,
                    });
                }
            }
        }
    }

    /// Maps a round's messages to the [`BatchMessage`] list
    /// [`TopologyView::gossip_batch_into`](crate::TopologyView::gossip_batch_into)
    /// consumes, resolving each message's class to its [`GossipConfig`]
    /// once.
    pub fn batch_for(&self, messages: &[TrafficMessage], out: &mut Vec<BatchMessage>) {
        let configs: Vec<GossipConfig> = self.classes.iter().map(|c| c.gossip_config()).collect();
        out.clear();
        out.reserve(messages.len());
        out.extend(messages.iter().map(|m| BatchMessage {
            source: m.source,
            config: configs[m.class as usize],
        }));
    }
}

/// Knuth's Poisson inversion on a hash stream: multiplies uniform draws
/// keyed by `(seed, round, class, node, draw index)` until the product
/// falls below `floor = exp(-λ)`. `O(λ)` mixes per key, no RNG state.
fn poisson_count(seed: u64, round: u64, class: u64, node: u32, floor: f64) -> u32 {
    // Decorrelate the key dimensions with one mix layer each, like the
    // fault layer's draw keys.
    let key = mix(seed ^ mix(round ^ mix((class << 32) ^ node as u64)));
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        // Odd stride walks the full 2^64 ring, so draw indices never
        // collide for one key.
        p *= u01(mix(
            key.wrapping_add((k as u64).wrapping_mul(0xA076_1D64_78BD_642F))
        ));
        if p <= floor {
            return k;
        }
        k += 1;
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`): traffic rides in the
    //! run snapshot so a resumed run regenerates the identical stream.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::{TrafficClass, TrafficConfig};

    impl Encode for TrafficClass {
        fn encode(&self, out: &mut Vec<u8>) {
            self.name.encode(out);
            self.lambda_per_node.encode(out);
            self.size_mb.encode(out);
            self.policy.encode(out);
        }
    }

    impl Decode for TrafficClass {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(TrafficClass {
                name: Decode::decode(r)?,
                lambda_per_node: Decode::decode(r)?,
                size_mb: Decode::decode(r)?,
                policy: Decode::decode(r)?,
            })
        }
    }

    impl Encode for TrafficConfig {
        fn encode(&self, out: &mut Vec<u8>) {
            self.seed.encode(out);
            self.classes.encode(out);
        }
    }

    impl Decode for TrafficConfig {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(TrafficConfig {
                seed: Decode::decode(r)?,
                classes: Decode::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serde::bin::{Decode, Encode, Reader};

    fn population(n: usize, seed: u64) -> Population {
        let mut rng = StdRng::seed_from_u64(seed);
        PopulationBuilder::new(n).build(&mut rng).unwrap()
    }

    #[test]
    fn stream_is_deterministic_and_in_canonical_order() {
        let pop = population(200, 1);
        let cfg = TrafficConfig::paper_stream(99);
        let a = cfg.messages_for_round(7, &pop);
        let b = cfg.messages_for_round(7, &pop);
        assert_eq!(a, b);
        // Classes ascending, sources ascending within a class.
        for w in a.windows(2) {
            assert!(
                w[0].class < w[1].class || (w[0].class == w[1].class && w[0].source <= w[1].source)
            );
        }
        // Different rounds and seeds decorrelate.
        assert_ne!(a, cfg.messages_for_round(8, &pop));
        assert_ne!(
            a,
            TrafficConfig::paper_stream(100).messages_for_round(7, &pop)
        );
    }

    #[test]
    fn volume_tracks_expectation() {
        let pop = population(1000, 2);
        let cfg = TrafficConfig::paper_stream(5);
        let expect = cfg.expected_messages(pop.alive_count());
        let got = cfg.messages_for_round(0, &pop).len() as f64;
        // 4σ band around λ·n.
        let sigma = expect.sqrt();
        assert!(
            (got - expect).abs() < 4.0 * sigma,
            "got {got}, expected {expect} ± {sigma}"
        );
        assert!(got >= 10_000.0, "paper stream must clear 10k messages");
    }

    #[test]
    fn retired_nodes_originate_nothing() {
        let mut pop = population(50, 3);
        let victim = NodeId::new(17);
        pop.retire(victim);
        let cfg = TrafficConfig::paper_stream(11);
        let msgs = cfg.messages_for_round(4, &pop);
        assert!(msgs.iter().all(|m| m.source != victim));
        // Survivors' draws are unchanged by the retirement.
        let full = population(50, 3);
        let all = cfg.messages_for_round(4, &full);
        let filtered: Vec<_> = all.iter().filter(|m| m.source != victim).copied().collect();
        assert_eq!(msgs, filtered);
    }

    #[test]
    fn validate_rejects_bad_classes() {
        let mut cfg = TrafficConfig::paper_stream(0);
        cfg.classes[0].lambda_per_node = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.classes[0].lambda_per_node = -1.0;
        assert!(cfg.validate().is_err());
        cfg.classes[0].lambda_per_node = MAX_LAMBDA_PER_NODE * 2.0;
        assert!(cfg.validate().is_err());
        cfg.classes[0].lambda_per_node = 1.0;
        for size in [f64::INFINITY, f64::NAN, -0.001] {
            cfg.classes[0].size_mb = size;
            assert_eq!(
                cfg.validate(),
                TransferModel::new(size).validate(),
                "one size rule for traffic classes and block configs"
            );
            assert!(cfg.validate().is_err());
        }
        cfg.classes[0].size_mb = 0.1;
        assert!(cfg.validate().is_ok());
        cfg.classes.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn codec_round_trips() {
        let cfg = TrafficConfig::paper_stream(1234);
        let mut bytes = Vec::new();
        cfg.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = TrafficConfig::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(cfg, back);
    }

    #[test]
    fn class_policies_encode_with_the_gossip_mode_tags() {
        // A class's policy encodes with the `GossipMode` tags — 0 flood,
        // 1 INV/GETDATA, 2 plus a `u32` push/pull — the bytes traffic
        // workloads have always had in snapshot bodies; the length and
        // digest pin them.
        let mut bytes = Vec::new();
        TrafficConfig::paper_stream(7).encode(&mut bytes);
        assert_eq!(bytes.len(), 112);
        assert_eq!(serde::bin::fnv1a64(&bytes), 0xe5a7_d358_c8eb_22b9);
        let mut bad = bytes.clone();
        bad[42] = 3; // the `tx` class's policy tag
        assert!(TrafficConfig::decode(&mut Reader::new(&bad)).is_err());
    }

    #[test]
    fn batch_for_maps_classes_to_configs() {
        let pop = population(60, 9);
        let cfg = TrafficConfig::paper_stream(21);
        let msgs = cfg.messages_for_round(0, &pop);
        let mut batch = Vec::new();
        cfg.batch_for(&msgs, &mut batch);
        assert_eq!(batch.len(), msgs.len());
        for (m, b) in msgs.iter().zip(&batch) {
            assert_eq!(b.source, m.source);
            assert_eq!(b.config, cfg.classes[m.class as usize].gossip_config());
        }
    }
}
