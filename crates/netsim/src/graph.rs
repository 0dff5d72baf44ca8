//! The p2p overlay graph.
//!
//! A [`Topology`] tracks, per node, its *outgoing* connections (the ones it
//! chose, at most `dout`) and its *incoming* connections (chosen by others,
//! at most `din_max`, §2.1). Once established, a connection is undirected
//! for communication: blocks flow both ways. *Pinned* edges model permanent
//! overlay links (the relay tree of §5.4) that no node may remove.
//!
//! All collections are `BTreeSet`s so that iteration order — and therefore
//! every simulation — is deterministic.
//!
//! The incoming sets mirror the outgoing ones and each pinned edge is held
//! by both of its ends, so degrees stay O(1) reads. A checkpoint stores
//! each fact once — the outgoing sets, every pinned pair once and the
//! limits — and decoding rebuilds both mirrors through
//! [`Topology::connect`] and [`Topology::pin`], so a body naming a node
//! outside the world, a self-loop, a pair held twice or an overfull slot
//! is refused rather than resumed.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::error::ConnectError;
use crate::node::NodeId;

/// Connection-count limits (§2.1: Bitcoin uses 8 outgoing; the paper's
/// experiments accept up to 20 incoming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionLimits {
    /// Maximum outgoing connections per node.
    pub dout: usize,
    /// Maximum incoming connections per node; `None` means unlimited
    /// (used by the theoretical constructions: geometric, fully-connected).
    pub din_max: Option<usize>,
}

impl ConnectionLimits {
    /// The paper's evaluation setting: 8 outgoing, at most 20 incoming.
    pub const fn paper_default() -> Self {
        ConnectionLimits {
            dout: 8,
            din_max: Some(20),
        }
    }

    /// No limits at all (theoretical constructions).
    pub const fn unlimited() -> Self {
        ConnectionLimits {
            dout: usize::MAX,
            din_max: None,
        }
    }

    /// Custom limits.
    pub const fn new(dout: usize, din_max: Option<usize>) -> Self {
        ConnectionLimits { dout, din_max }
    }
}

impl Default for ConnectionLimits {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The p2p overlay: per-node outgoing/incoming/pinned adjacency under
/// [`ConnectionLimits`].
///
/// # Examples
///
/// ```
/// use perigee_netsim::{Topology, ConnectionLimits, NodeId};
///
/// let mut topo = Topology::new(4, ConnectionLimits::new(2, Some(2)));
/// let (a, b) = (NodeId::new(0), NodeId::new(1));
/// topo.connect(a, b)?;
/// assert!(topo.are_connected(a, b));
/// assert_eq!(topo.out_degree(a), 1);
/// assert_eq!(topo.in_degree(b), 1);
/// // Communication is bidirectional: b sees a as a neighbor too.
/// assert_eq!(topo.neighbors(b), vec![a]);
/// # Ok::<(), perigee_netsim::ConnectError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    out: Vec<BTreeSet<NodeId>>,
    incoming: Vec<BTreeSet<NodeId>>,
    pinned: Vec<BTreeSet<NodeId>>,
    limits: ConnectionLimits,
}

impl Topology {
    /// Creates an edgeless topology over `n` nodes.
    pub fn new(n: usize, limits: ConnectionLimits) -> Self {
        Topology {
            out: vec![BTreeSet::new(); n],
            incoming: vec![BTreeSet::new(); n],
            pinned: vec![BTreeSet::new(); n],
            limits,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Returns `true` if the topology covers no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The configured limits.
    #[inline]
    pub fn limits(&self) -> ConnectionLimits {
        self.limits
    }

    fn check_node(&self, u: NodeId) -> Result<(), ConnectError> {
        if u.index() >= self.len() {
            Err(ConnectError::UnknownNode(u))
        } else {
            Ok(())
        }
    }

    /// Establishes the outgoing connection `u → v`.
    ///
    /// # Errors
    ///
    /// Fails with the specific [`ConnectError`] when `u == v`, either id is
    /// out of range, the pair is already connected (in either direction or
    /// pinned), `u` is at its outgoing limit, or `v` declines because its
    /// incoming slots are full.
    pub fn connect(&mut self, u: NodeId, v: NodeId) -> Result<(), ConnectError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(ConnectError::SelfConnection(u));
        }
        if self.are_connected(u, v) {
            return Err(ConnectError::AlreadyConnected(u, v));
        }
        if self.out[u.index()].len() >= self.limits.dout {
            return Err(ConnectError::OutgoingFull(u));
        }
        if let Some(cap) = self.limits.din_max {
            if self.incoming[v.index()].len() >= cap {
                return Err(ConnectError::IncomingFull(v));
            }
        }
        self.out[u.index()].insert(v);
        self.incoming[v.index()].insert(u);
        Ok(())
    }

    /// Removes the outgoing connection `u → v`. Returns `true` if it existed.
    pub fn disconnect(&mut self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.len() || v.index() >= self.len() {
            return false;
        }
        let removed = self.out[u.index()].remove(&v);
        if removed {
            self.incoming[v.index()].remove(&u);
        }
        removed
    }

    /// Removes **all** outgoing connections of `u`, returning them.
    pub fn clear_outgoing(&mut self, u: NodeId) -> Vec<NodeId> {
        let old: Vec<NodeId> = self.out[u.index()].iter().copied().collect();
        for &v in &old {
            self.incoming[v.index()].remove(&u);
        }
        self.out[u.index()].clear();
        old
    }

    /// Grows the topology to cover `n` nodes; the new slots start with no
    /// connections. Node departures never shrink the topology — dead slots
    /// simply keep empty adjacency (the stable-id contract of
    /// [`Population`](crate::Population)).
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than the current node count.
    pub fn grow_to(&mut self, n: usize) {
        assert!(n >= self.len(), "topologies never shrink (stable ids)");
        self.out.resize_with(n, BTreeSet::new);
        self.incoming.resize_with(n, BTreeSet::new);
        self.pinned.resize_with(n, BTreeSet::new);
    }

    /// Applies a free-list compaction plan (see
    /// [`Population::compaction_plan`](crate::Population::compaction_plan)):
    /// dead slots' (empty) rows are deleted and every stored id is
    /// renumbered through the plan. The remap is monotone on live ids, so
    /// the `BTreeSet` orderings — and therefore
    /// [`Topology::neighbors`]' iteration order — are preserved
    /// survivor-for-survivor.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count, if a dead slot
    /// still holds edges (its teardown leaked), or if a surviving row
    /// references a dead id.
    pub fn compact(&mut self, plan: &crate::population::IdRemap) {
        assert_eq!(
            plan.old_len(),
            self.len(),
            "compaction plan covers a different world size"
        );
        let remap_rows = |rows: &mut Vec<BTreeSet<NodeId>>, kind: &str| {
            let mut new_rows = Vec::with_capacity(plan.new_len());
            for (i, row) in rows.iter().enumerate() {
                if plan.new_id(NodeId::new(i as u32)).is_none() {
                    assert!(
                        row.is_empty(),
                        "compaction: dead node {i} still holds {kind} edges"
                    );
                    continue;
                }
                new_rows.push(row.iter().map(|&u| plan.remap(u)).collect());
            }
            *rows = new_rows;
        };
        remap_rows(&mut self.out, "outgoing");
        remap_rows(&mut self.incoming, "incoming");
        remap_rows(&mut self.pinned, "pinned");
    }

    /// Tears down **every** connection of `v` — outgoing, incoming and
    /// pinned — returning its former communication neighbors (ascending,
    /// deduplicated). The *departure* path of the
    /// [`dynamics`](crate::dynamics) subsystem: the returned pairs
    /// `(v, u)` are exactly the undirected edges a
    /// [`RoundDelta`](crate::RoundDelta) must log as removed.
    pub fn clear_node(&mut self, v: NodeId) -> Vec<NodeId> {
        let neighbors = self.neighbors(v);
        for &u in &neighbors {
            self.out[u.index()].remove(&v);
            self.incoming[u.index()].remove(&v);
            self.pinned[u.index()].remove(&v);
        }
        self.out[v.index()].clear();
        self.incoming[v.index()].clear();
        self.pinned[v.index()].clear();
        neighbors
    }

    /// Adds a permanent undirected edge that does not count against either
    /// node's limits and cannot be removed by protocol decisions (relay
    /// overlay links, §5.4).
    ///
    /// # Errors
    ///
    /// Fails on self-loops, unknown nodes, or already-connected pairs.
    pub fn pin(&mut self, u: NodeId, v: NodeId) -> Result<(), ConnectError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(ConnectError::SelfConnection(u));
        }
        if self.are_connected(u, v) {
            return Err(ConnectError::AlreadyConnected(u, v));
        }
        self.pinned[u.index()].insert(v);
        self.pinned[v.index()].insert(u);
        Ok(())
    }

    /// Returns `true` if `u` and `v` share a connection of any kind
    /// (outgoing either way, or pinned).
    pub fn are_connected(&self, u: NodeId, v: NodeId) -> bool {
        self.out[u.index()].contains(&v)
            || self.out[v.index()].contains(&u)
            || self.pinned[u.index()].contains(&v)
    }

    /// `u`'s outgoing neighbors (the set Perigee re-selects each round).
    pub fn outgoing(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out[u.index()].iter().copied()
    }

    /// `u`'s outgoing neighbors as a vector.
    pub fn outgoing_vec(&self, u: NodeId) -> Vec<NodeId> {
        self.out[u.index()].iter().copied().collect()
    }

    /// `u`'s incoming neighbors.
    pub fn incoming(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incoming[u.index()].iter().copied()
    }

    /// All communication neighbors of `u` (outgoing ∪ incoming ∪ pinned),
    /// deduplicated, in ascending id order.
    pub fn neighbors(&self, u: NodeId) -> Vec<NodeId> {
        let mut all: BTreeSet<NodeId> = self.out[u.index()].clone();
        all.extend(self.incoming[u.index()].iter().copied());
        all.extend(self.pinned[u.index()].iter().copied());
        all.into_iter().collect()
    }

    /// Number of outgoing connections of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out[u.index()].len()
    }

    /// Number of incoming connections of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.incoming[u.index()].len()
    }

    /// Total communication degree of `u` (out + in + pinned).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.out[u.index()].len() + self.incoming[u.index()].len() + self.pinned[u.index()].len()
    }

    /// Returns `true` if `v` still has a free incoming slot.
    pub fn accepts_incoming(&self, v: NodeId) -> bool {
        match self.limits.din_max {
            Some(cap) => self.incoming[v.index()].len() < cap,
            None => true,
        }
    }

    /// Every undirected communication edge exactly once (`u < v`), pinned
    /// edges included. Used for the Fig. 5 edge-latency histograms.
    pub fn undirected_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for u in 0..self.len() as u32 {
            let u = NodeId::new(u);
            for &v in &self.out[u.index()] {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                edges.push((a, b));
            }
            for &v in &self.pinned[u.index()] {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.undirected_edges().len()
    }

    /// Returns `true` if every node can reach every other node over
    /// communication edges.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.len()
    }

    /// Debug-checks internal invariants: out/in mirror images, limits
    /// respected, no self-loops, no out↔out duplicates.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any violated invariant. Intended for
    /// tests and debug assertions.
    pub fn assert_invariants(&self) {
        for u in 0..self.len() as u32 {
            let u = NodeId::new(u);
            assert!(
                self.out[u.index()].len() <= self.limits.dout,
                "{u} exceeds dout"
            );
            if let Some(cap) = self.limits.din_max {
                assert!(self.incoming[u.index()].len() <= cap, "{u} exceeds din");
            }
            assert!(!self.out[u.index()].contains(&u), "{u} has a self loop");
            for &v in &self.out[u.index()] {
                assert!(
                    self.incoming[v.index()].contains(&u),
                    "missing incoming mirror for {u}->{v}"
                );
                assert!(
                    !self.out[v.index()].contains(&u),
                    "double edge {u}<->{v} in both outgoing sets"
                );
            }
            for &v in &self.incoming[u.index()] {
                assert!(
                    self.out[v.index()].contains(&u),
                    "missing outgoing mirror for {v}->{u}"
                );
            }
            for &v in &self.pinned[u.index()] {
                assert!(
                    self.pinned[v.index()].contains(&u),
                    "pinned edge {u}-{v} not symmetric"
                );
            }
        }
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::*;

    impl Encode for ConnectionLimits {
        fn encode(&self, out: &mut Vec<u8>) {
            self.dout.encode(out);
            self.din_max.encode(out);
        }
    }

    impl Decode for ConnectionLimits {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(ConnectionLimits {
                dout: usize::decode(r)?,
                din_max: Option::decode(r)?,
            })
        }
    }

    impl Encode for Topology {
        /// The outgoing sets, each pinned pair once as `(u, v)` with
        /// `u < v`, then the limits: no mirror is written.
        fn encode(&self, out: &mut Vec<u8>) {
            self.out.encode(out);
            let pins: Vec<(NodeId, NodeId)> = self
                .pinned
                .iter()
                .enumerate()
                .flat_map(|(u, row)| {
                    let u = NodeId::new(u as u32);
                    row.iter().filter(move |&&v| u < v).map(move |&v| (u, v))
                })
                .collect();
            pins.encode(out);
            self.limits.encode(out);
        }
    }

    impl Decode for Topology {
        /// Replays every stored edge through [`Topology::connect`] and
        /// [`Topology::pin`], which rebuild the mirrors and refuse what
        /// the API never builds.
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let out: Vec<BTreeSet<NodeId>> = Vec::decode(r)?;
            let pins: Vec<(NodeId, NodeId)> = Vec::decode(r)?;
            let mut topo = Topology::new(out.len(), ConnectionLimits::decode(r)?);
            for (u, row) in out.iter().enumerate() {
                for &v in row {
                    topo.connect(NodeId::new(u as u32), v).map_err(refusal)?;
                }
            }
            for (u, v) in pins {
                topo.pin(u, v).map_err(refusal)?;
            }
            Ok(topo)
        }
    }

    /// The decode error for an edge the topology refuses.
    fn refusal(e: ConnectError) -> DecodeError {
        DecodeError::new(match e {
            ConnectError::UnknownNode(_) => "topology edge names a node outside the world",
            ConnectError::SelfConnection(_) => "topology edge is a self-loop",
            ConnectError::AlreadyConnected(..) => "topology holds a pair twice",
            ConnectError::OutgoingFull(_) | ConnectError::IncomingFull(_) => {
                "topology exceeds its connection limits"
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn connect_and_disconnect() {
        let mut t = Topology::new(3, ConnectionLimits::new(2, Some(2)));
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        t.connect(a, b).unwrap();
        t.connect(a, c).unwrap();
        assert_eq!(t.out_degree(a), 2);
        assert_eq!(t.neighbors(a), ids(&[1, 2]));
        assert_eq!(t.neighbors(b), ids(&[0]));
        assert!(t.disconnect(a, b));
        assert!(!t.disconnect(a, b), "double disconnect returns false");
        assert!(!t.are_connected(a, b));
        t.assert_invariants();
    }

    #[test]
    fn rejects_self_and_duplicate_connections() {
        let mut t = Topology::new(3, ConnectionLimits::new(8, Some(8)));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(t.connect(a, a), Err(ConnectError::SelfConnection(a)));
        t.connect(a, b).unwrap();
        assert_eq!(t.connect(a, b), Err(ConnectError::AlreadyConnected(a, b)));
        // Reverse direction is also a duplicate: the link is undirected.
        assert_eq!(t.connect(b, a), Err(ConnectError::AlreadyConnected(b, a)));
    }

    #[test]
    fn enforces_outgoing_limit() {
        let mut t = Topology::new(4, ConnectionLimits::new(2, None));
        let a = NodeId::new(0);
        t.connect(a, NodeId::new(1)).unwrap();
        t.connect(a, NodeId::new(2)).unwrap();
        assert_eq!(
            t.connect(a, NodeId::new(3)),
            Err(ConnectError::OutgoingFull(a))
        );
    }

    #[test]
    fn enforces_incoming_limit() {
        let mut t = Topology::new(4, ConnectionLimits::new(8, Some(2)));
        let v = NodeId::new(3);
        t.connect(NodeId::new(0), v).unwrap();
        t.connect(NodeId::new(1), v).unwrap();
        assert_eq!(
            t.connect(NodeId::new(2), v),
            Err(ConnectError::IncomingFull(v))
        );
        assert!(!t.accepts_incoming(v));
    }

    #[test]
    fn unknown_node_is_an_error() {
        let mut t = Topology::new(2, ConnectionLimits::unlimited());
        let far = NodeId::new(7);
        assert_eq!(
            t.connect(NodeId::new(0), far),
            Err(ConnectError::UnknownNode(far))
        );
    }

    #[test]
    fn clear_outgoing_returns_old_set() {
        let mut t = Topology::new(4, ConnectionLimits::new(3, None));
        let a = NodeId::new(0);
        t.connect(a, NodeId::new(1)).unwrap();
        t.connect(a, NodeId::new(3)).unwrap();
        let old = t.clear_outgoing(a);
        assert_eq!(old, ids(&[1, 3]));
        assert_eq!(t.out_degree(a), 0);
        assert_eq!(t.in_degree(NodeId::new(1)), 0);
        t.assert_invariants();
    }

    #[test]
    fn pinned_edges_do_not_consume_limits() {
        let mut t = Topology::new(3, ConnectionLimits::new(1, Some(1)));
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        t.pin(a, b).unwrap();
        assert_eq!(t.out_degree(a), 0);
        assert!(t.are_connected(a, b));
        // Regular connection capacity is still available.
        t.connect(a, c).unwrap();
        assert_eq!(t.neighbors(a), ids(&[1, 2]));
        assert_eq!(t.pin(b, a), Err(ConnectError::AlreadyConnected(b, a)));
        t.assert_invariants();
    }

    #[test]
    fn undirected_edges_dedup() {
        let mut t = Topology::new(4, ConnectionLimits::unlimited());
        t.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        t.connect(NodeId::new(2), NodeId::new(1)).unwrap();
        t.pin(NodeId::new(3), NodeId::new(0)).unwrap();
        let edges = t.undirected_edges();
        assert_eq!(edges.len(), 3);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(
            edges,
            vec![
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(0), NodeId::new(3)),
                (NodeId::new(1), NodeId::new(2)),
            ]
        );
    }

    #[test]
    fn grow_to_adds_isolated_slots() {
        let mut t = Topology::new(3, ConnectionLimits::paper_default());
        t.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        t.grow_to(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.degree(NodeId::new(4)), 0);
        t.connect(NodeId::new(4), NodeId::new(0)).unwrap();
        assert!(t.are_connected(NodeId::new(4), NodeId::new(0)));
        t.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "never shrink")]
    fn grow_to_smaller_panics() {
        Topology::new(3, ConnectionLimits::unlimited()).grow_to(2);
    }

    #[test]
    fn clear_node_tears_down_all_edge_kinds() {
        let mut t = Topology::new(5, ConnectionLimits::unlimited());
        let v = NodeId::new(2);
        t.connect(v, NodeId::new(0)).unwrap(); // outgoing
        t.connect(NodeId::new(1), v).unwrap(); // incoming
        t.pin(v, NodeId::new(3)).unwrap(); // pinned
        let gone = t.clear_node(v);
        assert_eq!(gone, ids(&[0, 1, 3]));
        assert_eq!(t.degree(v), 0);
        for u in [0u32, 1, 3] {
            assert!(!t.are_connected(v, NodeId::new(u)));
            assert_eq!(t.degree(NodeId::new(u)), 0);
        }
        t.assert_invariants();
    }

    #[test]
    fn connectivity_check() {
        let mut t = Topology::new(4, ConnectionLimits::unlimited());
        t.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        t.connect(NodeId::new(2), NodeId::new(3)).unwrap();
        assert!(!t.is_connected());
        t.connect(NodeId::new(1), NodeId::new(2)).unwrap();
        assert!(t.is_connected());
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(Topology::new(0, ConnectionLimits::unlimited()).is_connected());
    }

    /// A topology body in the codec's layout: `out` rows, then pinned
    /// pairs, then unlimited limits.
    fn body(out: &[&[u32]], pins: &[(u32, u32)]) -> Vec<u8> {
        use serde::bin::Encode;
        let rows: Vec<BTreeSet<NodeId>> = out
            .iter()
            .map(|row| ids(row).into_iter().collect())
            .collect();
        let pins: Vec<(NodeId, NodeId)> = pins
            .iter()
            .map(|&(u, v)| (NodeId::new(u), NodeId::new(v)))
            .collect();
        let mut bytes = rows.to_bytes();
        pins.encode(&mut bytes);
        ConnectionLimits::unlimited().encode(&mut bytes);
        bytes
    }

    #[test]
    fn roundtrip_rebuilds_the_mirrors_from_each_fact_once() {
        use serde::bin::{Decode, Encode};
        let mut t = Topology::new(5, ConnectionLimits::new(3, Some(4)));
        t.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        t.connect(NodeId::new(4), NodeId::new(2)).unwrap();
        t.connect(NodeId::new(2), NodeId::new(1)).unwrap();
        t.pin(NodeId::new(3), NodeId::new(1)).unwrap();
        t.pin(NodeId::new(0), NodeId::new(4)).unwrap();
        let bytes = t.to_bytes();
        let back = Topology::from_bytes(&bytes).unwrap();
        assert_eq!(back, t, "incoming sets and pin mirrors are rebuilt");
        assert_eq!(back.to_bytes(), bytes);
        back.assert_invariants();
        // No mirror is written: the same world in the codec's layout.
        let mut plain = body(&[&[2], &[], &[1], &[], &[2]], &[(0, 4), (1, 3)]);
        plain.truncate(plain.len() - 9);
        ConnectionLimits::new(3, Some(4)).encode(&mut plain);
        assert_eq!(bytes, plain);
    }

    /// Bodies the API never builds are refused while decoding, never
    /// resumed into a view build that panics.
    #[test]
    fn decoding_refuses_edges_the_topology_never_holds() {
        use serde::bin::{Decode, DecodeError};
        let refused = |out: &[&[u32]], pins: &[(u32, u32)]| Topology::from_bytes(&body(out, pins));
        let err = |why| Err(DecodeError::new(why));
        let outside = "topology edge names a node outside the world";
        assert_eq!(refused(&[&[7], &[], &[]], &[]), err(outside));
        assert_eq!(refused(&[&[1], &[], &[]], &[(2, 9)]), err(outside));
        let self_loop = "topology edge is a self-loop";
        assert_eq!(refused(&[&[], &[1], &[]], &[]), err(self_loop));
        assert_eq!(refused(&[&[], &[], &[]], &[(2, 2)]), err(self_loop));
        let twice = "topology holds a pair twice";
        assert_eq!(refused(&[&[1], &[0], &[]], &[]), err(twice));
        assert_eq!(refused(&[&[1], &[], &[]], &[(1, 0)]), err(twice));
        assert_eq!(refused(&[&[], &[], &[]], &[(0, 2), (2, 0)]), err(twice));
        let mut full = body(&[&[1, 2], &[], &[]], &[]);
        full.truncate(full.len() - 9);
        serde::bin::Encode::encode(&ConnectionLimits::new(1, None), &mut full);
        assert_eq!(
            Topology::from_bytes(&full),
            err("topology exceeds its connection limits")
        );
        assert!(refused(&[&[1], &[2], &[]], &[(0, 2)]).is_ok());
    }

    #[test]
    fn compact_renumbers_edges_and_keeps_pins() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut pop = crate::population::PopulationBuilder::new(6)
            .build(&mut rng)
            .unwrap();
        let mut t = Topology::new(6, ConnectionLimits::unlimited());
        t.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        t.connect(NodeId::new(2), NodeId::new(5)).unwrap();
        t.connect(NodeId::new(3), NodeId::new(5)).unwrap();
        t.pin(NodeId::new(3), NodeId::new(0)).unwrap();
        // Tear down 1 and 4 exactly as the engine does before retiring.
        for dead in [1u32, 4] {
            t.clear_node(NodeId::new(dead));
            pop.retire(NodeId::new(dead));
        }
        let plan = pop.compaction_plan().unwrap();
        t.compact(&plan);
        assert_eq!(t.len(), 4);
        // Old ids 0,2,3,5 became 0,1,2,3; adjacency follows.
        assert_eq!(t.neighbors(NodeId::new(0)), ids(&[1, 2]));
        assert_eq!(t.neighbors(NodeId::new(1)), ids(&[0, 3]));
        assert_eq!(t.neighbors(NodeId::new(2)), ids(&[0, 3]));
        t.assert_invariants();
    }
}
