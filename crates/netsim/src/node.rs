//! Node identities and per-node attributes.
//!
//! A *node* is a Bitcoin-style server (§2.1 of the paper): it accepts
//! incoming connections, relays blocks, may mine, and spends a fixed
//! validation delay `Δv` on every block it receives. Nodes are identified by
//! dense [`NodeId`] indices so that all per-node state lives in flat vectors.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Dense identifier of a node in the simulated network.
///
/// Ids are indices into the [`Population`](crate::Population); they are
/// assigned contiguously from zero.
///
/// # Examples
///
/// ```
/// use perigee_netsim::NodeId;
///
/// let id = NodeId::new(7);
/// assert_eq!(id.index(), 7);
/// assert_eq!(id.to_string(), "n7");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> u32 {
        id.0
    }
}

/// Geographic region of a node (§5.1: the Bitnodes dataset spans seven
/// regions).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Region {
    /// North America.
    #[default]
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Europe.
    Europe,
    /// Asia (excluding China, which the dataset tracks separately).
    Asia,
    /// Africa.
    Africa,
    /// China.
    China,
    /// Oceania.
    Oceania,
}

impl Region {
    /// All seven regions, in a fixed order used for matrix indexing.
    pub const ALL: [Region; 7] = [
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Europe,
        Region::Asia,
        Region::Africa,
        Region::China,
        Region::Oceania,
    ];

    /// Dense index of the region inside [`Region::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Region::NorthAmerica => 0,
            Region::SouthAmerica => 1,
            Region::Europe => 2,
            Region::Asia => 3,
            Region::Africa => 4,
            Region::China => 5,
            Region::Oceania => 6,
        }
    }

    /// Short human-readable code (`NA`, `SA`, `EU`, `AS`, `AF`, `CN`, `OC`).
    pub fn code(self) -> &'static str {
        match self {
            Region::NorthAmerica => "NA",
            Region::SouthAmerica => "SA",
            Region::Europe => "EU",
            Region::Asia => "AS",
            Region::Africa => "AF",
            Region::China => "CN",
            Region::Oceania => "OC",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How a node behaves when relaying blocks.
///
/// `Honest` nodes follow the protocol. The other variants model the
/// adversarial/deviant behaviours discussed in §1 and §6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Behavior {
    /// Follows the protocol: validates then relays to every neighbor.
    #[default]
    Honest,
    /// Receives blocks but never relays them (a free-rider). Its neighbors
    /// observe `t = ∞` from it and Perigee will eventually disconnect it.
    Silent,
    /// Relays, but only after an extra fixed delay (e.g. a throttling or
    /// withholding adversary).
    Delay(SimTime),
}

impl Behavior {
    /// Returns `true` for the protocol-following behaviour.
    #[inline]
    pub fn is_honest(self) -> bool {
        matches!(self, Behavior::Honest)
    }
}

/// Whether `t` may delay a relay: finite and non-negative. Both
/// propagation engines schedule a relay at its receipt time plus the
/// node's delays on a queue that only moves forward, so a negative delay
/// would schedule an event behind the queue's cursor.
#[inline]
pub(crate) fn is_relay_delay(t: SimTime) -> bool {
    t.is_finite() && t.as_ms() >= 0.0
}

/// Static attributes of a single node.
///
/// Constructed through [`PopulationBuilder`](crate::PopulationBuilder); the
/// fields are public because this is passive configuration data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeProfile {
    /// Geographic region (drives the [`GeoLatencyModel`](crate::GeoLatencyModel)).
    pub region: Region,
    /// Fraction of total network hash power held by this node (`fv`, §2.1).
    /// The population normalizes these to sum to 1.
    pub hash_power: f64,
    /// Fixed block-validation delay `Δv` (§2.1).
    pub validation_delay: SimTime,
    /// Coordinates in the metric-embedding model (§3.1); empty when the
    /// geographic model is used instead.
    pub coords: Vec<f64>,
    /// Uplink bandwidth in Mbit/s (used only when a bandwidth model is
    /// enabled; §2.1 notes δ includes transmission delay).
    pub uplink_mbps: f64,
    /// Downlink bandwidth in Mbit/s.
    pub downlink_mbps: f64,
    /// Relay behaviour (honest by default).
    pub behavior: Behavior,
}

impl NodeProfile {
    /// Whether every delay this node adds to a relay — its validation
    /// delay and a [`Behavior::Delay`] extra — is finite and
    /// non-negative. The propagation engines' queues only move forward,
    /// so a negative delay would schedule a relay behind their cursor.
    #[inline]
    pub fn has_valid_delays(&self) -> bool {
        let extra = match self.behavior {
            Behavior::Delay(extra) => extra,
            Behavior::Honest | Behavior::Silent => SimTime::ZERO,
        };
        is_relay_delay(self.validation_delay) && is_relay_delay(extra)
    }
}

impl Default for NodeProfile {
    fn default() -> Self {
        NodeProfile {
            region: Region::default(),
            hash_power: 0.0,
            validation_delay: SimTime::from_ms(50.0),
            coords: Vec::new(),
            uplink_mbps: 33.0,
            downlink_mbps: 33.0,
            behavior: Behavior::Honest,
        }
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`): explicit tag bytes per
    //! enum variant so the on-disk format is independent of declaration
    //! order changes that keep the tags stable.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::*;

    impl Encode for NodeId {
        #[inline]
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
    }

    impl Decode for NodeId {
        #[inline]
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(NodeId(u32::decode(r)?))
        }
    }

    impl Encode for Region {
        fn encode(&self, out: &mut Vec<u8>) {
            (self.index() as u8).encode(out);
        }
    }

    impl Decode for Region {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let tag = u8::decode(r)? as usize;
            Region::ALL
                .get(tag)
                .copied()
                .ok_or(DecodeError::new("invalid region tag"))
        }
    }

    impl Encode for Behavior {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Behavior::Honest => 0u8.encode(out),
                Behavior::Silent => 1u8.encode(out),
                Behavior::Delay(extra) => {
                    2u8.encode(out);
                    extra.encode(out);
                }
            }
        }
    }

    impl Decode for Behavior {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(Behavior::Honest),
                1 => Ok(Behavior::Silent),
                2 => {
                    let extra = SimTime::decode(r)?;
                    if !is_relay_delay(extra) {
                        return Err(DecodeError::new("relay delay is negative, NaN or infinite"));
                    }
                    Ok(Behavior::Delay(extra))
                }
                _ => Err(DecodeError::new("invalid behavior tag")),
            }
        }
    }

    impl Encode for NodeProfile {
        fn encode(&self, out: &mut Vec<u8>) {
            self.region.encode(out);
            self.hash_power.encode(out);
            self.validation_delay.encode(out);
            self.coords.encode(out);
            self.uplink_mbps.encode(out);
            self.downlink_mbps.encode(out);
            self.behavior.encode(out);
        }
    }

    impl Decode for NodeProfile {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let region = Region::decode(r)?;
            let hash_power = f64::decode(r)?;
            let validation_delay = SimTime::decode(r)?;
            if !is_relay_delay(validation_delay) {
                return Err(DecodeError::new(
                    "validation delay is negative, NaN or infinite",
                ));
            }
            Ok(NodeProfile {
                region,
                hash_power,
                validation_delay,
                coords: Vec::decode(r)?,
                uplink_mbps: f64::decode(r)?,
                downlink_mbps: f64::decode(r)?,
                behavior: Behavior::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn region_indices_are_dense_and_unique() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    /// The values no relay may wait: negative, NaN and infinite delays.
    const BAD_DELAYS_MS: [f64; 4] = [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    #[test]
    fn decoders_refuse_invalid_relay_delays() {
        use serde::bin::{Decode, Encode};
        for bad in BAD_DELAYS_MS.map(SimTime::from_ms) {
            let slow = NodeProfile {
                validation_delay: bad,
                ..NodeProfile::default()
            };
            let throttled = NodeProfile {
                behavior: Behavior::Delay(bad),
                ..NodeProfile::default()
            };
            for profile in [slow, throttled] {
                assert!(!profile.has_valid_delays(), "{profile:?}");
                assert!(NodeProfile::from_bytes(&profile.to_bytes()).is_err());
            }
            assert!(Behavior::from_bytes(&Behavior::Delay(bad).to_bytes()).is_err());
        }
        // Zero is a delay like any other.
        let instant = NodeProfile {
            validation_delay: SimTime::ZERO,
            behavior: Behavior::Delay(SimTime::ZERO),
            ..NodeProfile::default()
        };
        assert!(instant.has_valid_delays());
        assert_eq!(NodeProfile::from_bytes(&instant.to_bytes()), Ok(instant));
    }

    #[test]
    fn region_codes_are_distinct() {
        let mut codes: Vec<_> = Region::ALL.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 7);
    }

    #[test]
    fn behavior_default_is_honest() {
        assert!(Behavior::default().is_honest());
        assert!(!Behavior::Silent.is_honest());
        assert!(!Behavior::Delay(SimTime::from_ms(10.0)).is_honest());
    }

    #[test]
    fn default_profile_matches_paper_defaults() {
        let p = NodeProfile::default();
        assert_eq!(p.validation_delay, SimTime::from_ms(50.0));
        assert!(p.behavior.is_honest());
    }
}
