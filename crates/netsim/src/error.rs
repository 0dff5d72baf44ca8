//! Error types for the simulator substrate.

use std::error::Error;
use std::fmt;

use crate::node::NodeId;

/// Errors produced by the simulator substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetsimError {
    /// A population must contain at least one node.
    EmptyPopulation,
    /// Hash powers must be non-negative and not all zero.
    InvalidHashPower,
    /// A node id referred outside the population.
    UnknownNode(NodeId),
    /// A configuration value was out of its valid range.
    InvalidConfig(&'static str),
    /// A node's validation delay or [`Behavior::Delay`](crate::Behavior::Delay)
    /// extra was negative, NaN or infinite.
    InvalidDelay(NodeId),
    /// A world was too large for the message-level engine's packed event
    /// words: node count or directed-edge count at or beyond the 2^30
    /// payload cap ([`PACKED_PAYLOAD_CAP`](crate::gossip::PACKED_PAYLOAD_CAP)).
    /// Reported at snapshot/scratch construction time so oversized worlds
    /// fail loudly instead of silently corrupting packed `u128` events in
    /// release builds.
    WorldTooLarge {
        /// Node count of the rejected world.
        nodes: usize,
        /// Directed CSR edge count of the rejected world.
        directed_edges: usize,
    },
}

impl fmt::Display for NetsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetsimError::EmptyPopulation => write!(f, "population must contain at least one node"),
            NetsimError::InvalidHashPower => {
                write!(f, "hash powers must be non-negative and not all zero")
            }
            NetsimError::UnknownNode(id) => write!(f, "node {id} is not part of the population"),
            NetsimError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            NetsimError::InvalidDelay(id) => write!(
                f,
                "node {id} has a negative, NaN or infinite validation or relay delay"
            ),
            NetsimError::WorldTooLarge {
                nodes,
                directed_edges,
            } => write!(
                f,
                "world of {nodes} nodes / {directed_edges} directed edges exceeds \
                 the 2^30 packed-event payload cap"
            ),
        }
    }
}

impl Error for NetsimError {}

/// Errors produced while mutating a [`Topology`](crate::Topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConnectError {
    /// A node cannot connect to itself.
    SelfConnection(NodeId),
    /// The requested edge already exists (in either direction).
    AlreadyConnected(NodeId, NodeId),
    /// The initiating node already has its maximum number of outgoing
    /// connections.
    OutgoingFull(NodeId),
    /// The target node declined because its incoming slots are full (§5.1).
    IncomingFull(NodeId),
    /// A node id referred outside the topology.
    UnknownNode(NodeId),
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::SelfConnection(u) => write!(f, "node {u} cannot connect to itself"),
            ConnectError::AlreadyConnected(u, v) => {
                write!(f, "nodes {u} and {v} are already connected")
            }
            ConnectError::OutgoingFull(u) => {
                write!(f, "node {u} has no free outgoing connection slots")
            }
            ConnectError::IncomingFull(v) => {
                write!(f, "node {v} declined: incoming connection slots full")
            }
            ConnectError::UnknownNode(u) => write!(f, "node {u} is not part of the topology"),
        }
    }
}

impl Error for ConnectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NetsimError::UnknownNode(NodeId::new(3));
        assert_eq!(e.to_string(), "node n3 is not part of the population");
        let c = ConnectError::IncomingFull(NodeId::new(9));
        assert!(c.to_string().contains("n9"));
        assert!(c.to_string().starts_with(char::is_lowercase));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetsimError>();
        assert_send_sync::<ConnectError>();
    }
}
