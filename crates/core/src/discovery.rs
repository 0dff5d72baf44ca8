//! Peer discovery with partial views (§2.1's `addrMan`, §6's open
//! question).
//!
//! The paper's evaluation assumes every node knows all peer addresses. Real
//! Bitcoin nodes keep a bounded local address database seeded by a
//! bootstrap server and refreshed by gossiping addresses with neighbors.
//! [`AddressBook`] models exactly that: per-node bounded known-peer sets,
//! random bootstrap seeding, and a per-round address-exchange step in which
//! every node learns a few addresses known to its current neighbors.
//!
//! Install a book into a [`PerigeeEngine`](crate::PerigeeEngine) with
//! [`set_address_book`](crate::PerigeeEngine::set_address_book): exploration
//! then samples from each node's partial view instead of the whole network,
//! and addresses are gossiped between neighbors after every round. The
//! `perigee-experiments` crate's `discovery` module measures how much this
//! partial knowledge costs Perigee (spoiler: little — exploration only
//! needs *some* fresh candidates, not a global view).

use std::collections::BTreeSet;

use rand::Rng;

use perigee_netsim::{NodeId, Topology};

/// Bounded per-node address databases with gossip refresh.
///
/// Under a dynamic world ([`perigee_netsim::dynamics`]) the book follows
/// the stable-id contract: [`AddressBook::grow_to`] appends empty books
/// for joiners (the engine seeds them with bootstrap addresses, the
/// bootstrap-server path a real joining node takes) and
/// [`AddressBook::retire`] clears a departed node's own book. Addresses
/// *of* a departed node may linger in other books — exactly like real
/// addrman databases full of stale addresses — and are rejected lazily
/// when a connection attempt finds the peer dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressBook {
    known: Vec<BTreeSet<NodeId>>,
    capacity: usize,
    /// The bootstrap-list size new nodes are seeded with.
    bootstrap: usize,
}

impl AddressBook {
    /// Creates address books for `n` nodes, each seeded with
    /// `bootstrap_size` uniformly random peers (the bootstrap-server list)
    /// and capped at `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `bootstrap_size > capacity`.
    pub fn bootstrap<R: Rng + ?Sized>(
        n: usize,
        bootstrap_size: usize,
        capacity: usize,
        rng: &mut R,
    ) -> Self {
        assert!(capacity >= 1, "address book capacity must be positive");
        assert!(
            bootstrap_size <= capacity,
            "bootstrap list cannot exceed capacity"
        );
        let mut known = Vec::with_capacity(n);
        for i in 0..n {
            let mut set = BTreeSet::new();
            let want = bootstrap_size.min(n.saturating_sub(1));
            let mut guard = 0;
            while set.len() < want && guard < 100 * want.max(1) {
                guard += 1;
                let candidate = NodeId::new(rng.gen_range(0..n as u32));
                if candidate.index() != i {
                    set.insert(candidate);
                }
            }
            known.push(set);
        }
        AddressBook {
            known,
            capacity,
            bootstrap: bootstrap_size,
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// The bootstrap-list size this book was created with — what the
    /// engine seeds a joiner's fresh book with.
    pub fn bootstrap_size(&self) -> usize {
        self.bootstrap
    }

    /// Grows the book to cover `n` nodes; new books start empty (seed
    /// them via [`AddressBook::insert`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than the current coverage.
    pub fn grow_to(&mut self, n: usize) {
        assert!(
            n >= self.known.len(),
            "address books never shrink (stable ids)"
        );
        self.known.resize_with(n, BTreeSet::new);
    }

    /// Clears the book of a departed (or resetting) node. Stale entries
    /// pointing *at* the node elsewhere are left to lazy rejection.
    pub fn retire(&mut self, v: NodeId) {
        self.known[v.index()].clear();
    }

    /// Applies a free-list compaction plan: dead nodes' books are dropped
    /// (they are already empty — [`AddressBook::retire`] cleared them)
    /// and every surviving book's addresses are renumbered. Stale
    /// addresses *of* departed nodes — deliberately left in place by
    /// `retire` for lazy rejection — are unmappable and dropped here:
    /// after renumbering they would collide with live ids.
    pub fn compact(&mut self, plan: &perigee_netsim::IdRemap) {
        plan.retain_live(&mut self.known);
        for book in &mut self.known {
            *book = book.iter().filter_map(|&a| plan.new_id(a)).collect();
        }
    }

    /// Returns `true` when the book covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }

    /// The addresses currently known to `v`.
    pub fn known(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.known[v.index()].iter().copied()
    }

    /// How many addresses `v` currently knows.
    pub fn known_count(&self, v: NodeId) -> usize {
        self.known[v.index()].len()
    }

    /// Inserts an address directly (e.g. a new inbound connection), evicting
    /// a pseudo-random entry if at capacity.
    ///
    /// # Panics
    ///
    /// Panics, naming the id, if `v` or `addr` is not a node of the
    /// book's world (`≥` [`AddressBook::len`]): a refill would sample
    /// that address and index past the population.
    pub fn insert<R: Rng + ?Sized>(&mut self, v: NodeId, addr: NodeId, rng: &mut R) {
        for id in [v, addr] {
            assert!(
                id.index() < self.known.len(),
                "address book entry {id} lies outside the {}-node world",
                self.known.len()
            );
        }
        if v == addr {
            return;
        }
        let set = &mut self.known[v.index()];
        if set.contains(&addr) {
            return;
        }
        if set.len() >= self.capacity {
            // Evict a random entry to make room (Bitcoin's addrman also
            // overwrites buckets).
            let idx = rng.gen_range(0..set.len());
            let victim = *set.iter().nth(idx).expect("index in range");
            set.remove(&victim);
        }
        set.insert(addr);
    }

    /// One round of address gossip: every node receives `per_neighbor`
    /// random addresses from each current communication neighbor.
    pub fn exchange<R: Rng + ?Sized>(
        &mut self,
        topology: &Topology,
        per_neighbor: usize,
        rng: &mut R,
    ) {
        debug_assert_eq!(topology.len(), self.len());
        // Snapshot sender views first so the exchange is symmetric and
        // order-independent within a round.
        let snapshot: Vec<Vec<NodeId>> = self
            .known
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        for i in 0..topology.len() as u32 {
            let v = NodeId::new(i);
            for u in topology.neighbors(v) {
                // Learning the neighbor's own address is free.
                self.insert(v, u, rng);
                let from = &snapshot[u.index()];
                for _ in 0..per_neighbor {
                    if from.is_empty() {
                        break;
                    }
                    let addr = from[rng.gen_range(0..from.len())];
                    self.insert(v, addr, rng);
                }
            }
        }
    }

    /// Samples a uniformly random known address of `v` with one draw, or
    /// returns `None` without drawing when `v` knows no address.
    pub fn sample_peer<R: Rng + ?Sized>(&self, v: NodeId, rng: &mut R) -> Option<NodeId> {
        let known = &self.known[v.index()];
        if known.is_empty() {
            return None;
        }
        known.iter().nth(rng.gen_range(0..known.len())).copied()
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::AddressBook;

    impl Encode for AddressBook {
        fn encode(&self, out: &mut Vec<u8>) {
            self.known.encode(out);
            self.capacity.encode(out);
            self.bootstrap.encode(out);
        }
    }

    impl Decode for AddressBook {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let book = AddressBook {
                known: Vec::decode(r)?,
                capacity: usize::decode(r)?,
                bootstrap: usize::decode(r)?,
            };
            if book.capacity == 0 || book.bootstrap > book.capacity {
                return Err(DecodeError::new("address book bounds inconsistent"));
            }
            if book.known.iter().any(|set| set.len() > book.capacity) {
                return Err(DecodeError::new("address book exceeds its capacity"));
            }
            // Sets are ordered, so each one's last address is its largest.
            let world = book.known.len();
            if book
                .known
                .iter()
                .any(|set| set.last().is_some_and(|a| a.index() >= world))
            {
                return Err(DecodeError::new(
                    "address book names a node outside the world",
                ));
            }
            Ok(book)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::ConnectionLimits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bootstrap_seeds_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let book = AddressBook::bootstrap(50, 10, 30, &mut rng);
        for i in 0..50u32 {
            let v = NodeId::new(i);
            assert_eq!(book.known_count(v), 10);
            assert!(book.known(v).all(|a| a != v), "no self addresses");
        }
    }

    #[test]
    fn capacity_is_enforced_with_eviction() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut book = AddressBook::bootstrap(20, 5, 5, &mut rng);
        let v = NodeId::new(0);
        for i in 1..20u32 {
            book.insert(v, NodeId::new(i), &mut rng);
            assert!(book.known_count(v) <= 5);
        }
    }

    #[test]
    #[should_panic(expected = "address book entry n6000 lies outside the 60-node world")]
    fn insert_refuses_an_address_past_the_world() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut book = AddressBook::bootstrap(60, 4, 24, &mut rng);
        book.insert(NodeId::new(7), NodeId::new(6000), &mut rng);
    }

    #[test]
    fn self_and_duplicate_inserts_are_ignored() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut book = AddressBook::bootstrap(10, 0, 5, &mut rng);
        let v = NodeId::new(4);
        book.insert(v, v, &mut rng);
        assert_eq!(book.known_count(v), 0);
        book.insert(v, NodeId::new(5), &mut rng);
        book.insert(v, NodeId::new(5), &mut rng);
        assert_eq!(book.known_count(v), 1);
    }

    #[test]
    fn exchange_spreads_addresses_along_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut book = AddressBook::bootstrap(4, 0, 10, &mut rng);
        // Path 0-1-2-3; seed node 0 with node 3's address.
        let mut topo = Topology::new(4, ConnectionLimits::unlimited());
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(1), NodeId::new(2)).unwrap();
        topo.connect(NodeId::new(2), NodeId::new(3)).unwrap();
        book.insert(NodeId::new(0), NodeId::new(3), &mut rng);
        for _ in 0..6 {
            book.exchange(&topo, 3, &mut rng);
        }
        // Everyone now knows their neighbors, and node 2 learned about
        // node 0 (two hops away) through gossip.
        assert!(book.known(NodeId::new(1)).any(|a| a == NodeId::new(0)));
        assert!(book.known(NodeId::new(2)).any(|a| a == NodeId::new(0)));
    }

    #[test]
    fn sample_peer_draws_from_the_book() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut book = AddressBook::bootstrap(5, 0, 5, &mut rng);
        let v = NodeId::new(0);
        // An empty book yields nothing and leaves the stream untouched.
        let before = rng.clone();
        assert_eq!(book.sample_peer(v, &mut rng), None);
        assert_eq!(rng, before);
        book.insert(v, NodeId::new(1), &mut rng);
        book.insert(v, NodeId::new(3), &mut rng);
        let mut drawn = BTreeSet::new();
        for _ in 0..64 {
            // One draw per sample: its index picks the address.
            let mut expect = rng.clone();
            let i = expect.gen_range(0..2);
            let got = book
                .sample_peer(v, &mut rng)
                .expect("the book is not empty");
            assert_eq!(got, [NodeId::new(1), NodeId::new(3)][i]);
            assert_eq!(rng, expect);
            drawn.insert(got);
        }
        assert_eq!(drawn.len(), 2, "both addresses are drawn");
    }

    #[test]
    fn grow_and_retire_follow_stable_ids() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut book = AddressBook::bootstrap(4, 2, 8, &mut rng);
        assert_eq!(book.bootstrap_size(), 2);
        book.grow_to(6);
        assert_eq!(book.len(), 6);
        assert_eq!(book.known_count(NodeId::new(5)), 0, "joiners start empty");
        book.insert(NodeId::new(5), NodeId::new(1), &mut rng);
        assert_eq!(book.known_count(NodeId::new(5)), 1);
        book.retire(NodeId::new(5));
        assert_eq!(book.known_count(NodeId::new(5)), 0);
    }

    #[test]
    #[should_panic(expected = "bootstrap list cannot exceed capacity")]
    fn oversized_bootstrap_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = AddressBook::bootstrap(10, 8, 5, &mut rng);
    }
}
