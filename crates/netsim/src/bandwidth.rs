//! Transmission-delay model.
//!
//! §2.1 folds transmission delay into `δ(u,v)`; the default evaluation
//! setting assumes blocks are small relative to node bandwidth, so the
//! transfer time is zero. This module provides the optional non-zero model
//! used by the bandwidth-heterogeneity extension experiments: a block of
//! `block_size_mb` megabytes moves at the bottleneck of the sender's uplink
//! and the receiver's downlink.

use serde::{Deserialize, Serialize};

use crate::error::NetsimError;
use crate::node::NodeId;
use crate::population::Population;
use crate::time::SimTime;

/// Computes per-pair block transfer times from node access bandwidth.
///
/// # Examples
///
/// ```
/// use perigee_netsim::{TransferModel, PopulationBuilder, NodeId};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let pop = PopulationBuilder::new(2).build(&mut rng).unwrap();
/// // Default profile is 33 Mbps; a 1 MB block takes 8e6/33e6 s ≈ 242 ms.
/// let model = TransferModel::new(1.0);
/// let t = model.transfer_time(&pop, NodeId::new(0), NodeId::new(1));
/// assert!((t.as_ms() - 242.42).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    block_size_mb: f64,
}

impl TransferModel {
    /// A model for blocks of `block_size_mb` megabytes.
    pub fn new(block_size_mb: f64) -> Self {
        TransferModel { block_size_mb }
    }

    /// The paper's default: negligible block size (zero transfer time).
    pub fn negligible() -> Self {
        TransferModel { block_size_mb: 0.0 }
    }

    /// The configured block size in megabytes.
    pub fn block_size_mb(&self) -> f64 {
        self.block_size_mb
    }

    /// Checks the size is finite and non-negative: the one rule behind
    /// every config that carries a transfer model — an engine's block
    /// [`GossipConfig`](crate::GossipConfig), a traffic class, and a
    /// decoded checkpoint. A negative size would move deliveries back in
    /// time and a NaN one would poison the event order.
    ///
    /// # Errors
    ///
    /// [`NetsimError::InvalidConfig`] for a NaN, infinite or negative size.
    pub fn validate(&self) -> Result<(), NetsimError> {
        if self.block_size_mb.is_finite() && self.block_size_mb >= 0.0 {
            Ok(())
        } else {
            Err(NetsimError::InvalidConfig(
                "message size must be finite and non-negative",
            ))
        }
    }

    /// Time to push one block from `u` to `v`, bottlenecked by
    /// `min(uplink(u), downlink(v))`.
    pub fn transfer_time(&self, population: &Population, u: NodeId, v: NodeId) -> SimTime {
        self.transfer_time_mbps(
            population.profile(u).uplink_mbps,
            population.profile(v).downlink_mbps,
        )
    }

    /// [`TransferModel::transfer_time`] on raw link rates: sender uplink
    /// and receiver downlink in Mbit/s. Used by the view-based gossip
    /// engine, which caches the rates per node instead of holding a
    /// [`Population`] reference; bit-identical to the profile-based path
    /// by construction.
    #[inline]
    pub fn transfer_time_mbps(&self, uplink_mbps: f64, downlink_mbps: f64) -> SimTime {
        if self.block_size_mb == 0.0 {
            return SimTime::ZERO;
        }
        let bottleneck_mbps = uplink_mbps.min(downlink_mbps).max(f64::MIN_POSITIVE);
        let bits = self.block_size_mb * 8.0 * 1_000_000.0;
        SimTime::from_ms(bits / (bottleneck_mbps * 1_000_000.0) * 1_000.0)
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        Self::negligible()
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::TransferModel;

    impl Encode for TransferModel {
        fn encode(&self, out: &mut Vec<u8>) {
            self.block_size_mb.encode(out);
        }
    }

    impl Decode for TransferModel {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let model = TransferModel {
                block_size_mb: f64::decode(r)?,
            };
            model
                .validate()
                .map_err(|_| DecodeError::new("illegal block size"))?;
            Ok(model)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeProfile;

    fn pop(ups: &[f64], downs: &[f64]) -> Population {
        let profiles = ups
            .iter()
            .zip(downs)
            .map(|(&u, &d)| NodeProfile {
                hash_power: 1.0,
                uplink_mbps: u,
                downlink_mbps: d,
                ..NodeProfile::default()
            })
            .collect();
        Population::from_profiles(profiles).unwrap()
    }

    #[test]
    fn sizes_must_be_finite_and_non_negative_in_configs_and_checkpoints() {
        use serde::bin::{Decode, Encode, Reader};
        for size in [0.0, -0.0, 0.5, 1e6] {
            assert_eq!(TransferModel::new(size).validate(), Ok(()));
        }
        for size in [-1.0, -0.001, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                TransferModel::new(size).validate(),
                Err(NetsimError::InvalidConfig(_))
            ));
            let mut bytes = Vec::new();
            TransferModel::new(size).encode(&mut bytes);
            assert!(
                TransferModel::decode(&mut Reader::new(&bytes)).is_err(),
                "the decoder applies the same rule to {size}"
            );
        }
    }

    #[test]
    fn negligible_blocks_transfer_instantly() {
        let p = pop(&[10.0, 10.0], &[10.0, 10.0]);
        let m = TransferModel::negligible();
        assert_eq!(
            m.transfer_time(&p, NodeId::new(0), NodeId::new(1)),
            SimTime::ZERO
        );
    }

    #[test]
    fn bottleneck_is_min_of_up_and_down() {
        let p = pop(&[100.0, 8.0], &[4.0, 50.0]);
        let m = TransferModel::new(1.0); // 8 Mbit
                                         // 0 -> 1: min(up0=100, down1=50) = 50 Mbps -> 160 ms
        let t01 = m.transfer_time(&p, NodeId::new(0), NodeId::new(1));
        assert!((t01.as_ms() - 160.0).abs() < 1e-6);
        // 1 -> 0: min(up1=8, down0=4) = 4 Mbps -> 2000 ms
        let t10 = m.transfer_time(&p, NodeId::new(1), NodeId::new(0));
        assert!((t10.as_ms() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn bigger_blocks_take_proportionally_longer() {
        let p = pop(&[33.0, 33.0], &[33.0, 33.0]);
        let t1 = TransferModel::new(1.0).transfer_time(&p, NodeId::new(0), NodeId::new(1));
        let t2 = TransferModel::new(2.0).transfer_time(&p, NodeId::new(0), NodeId::new(1));
        assert!((t2.as_ms() - 2.0 * t1.as_ms()).abs() < 1e-9);
    }
}
