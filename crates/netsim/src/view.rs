//! Frozen, flood-optimized topology snapshots.
//!
//! [`Topology`] is built for *mutation*: per-node `BTreeSet`s give cheap
//! connect/disconnect with deterministic iteration, but make the flood hot
//! path allocate a fresh neighbor vector per visited node and recompute
//! `δ(u,v)` (a hash + square root for the geographic model) per edge per
//! block. A [`TopologyView`] freezes the communication graph
//! (out ∪ in ∪ pinned) into CSR arrays — flat `offsets`/`edges` with the
//! per-edge latency and per-node relay profile precomputed **once** — so
//! that [`TopologyView::broadcast_into`] performs zero heap allocation and
//! zero latency-model calls per block.
//!
//! # Lifecycle
//!
//! A view is a *snapshot* of one overlay: flood any number of blocks
//! through it, and never mutate the topology under it. Either build a
//! fresh one after each change, or patch it in step with the change
//! ([`TopologyView::apply_delta`], [`TopologyView::compact`]), which
//! leaves it field-for-field equal to a
//! fresh build. The engine builds its one view in its first round and
//! patches it between rounds (its `view_rebuilds` counter stays 1 on
//! churny runs), which keeps the §2.1 synchronous-round semantics:
//! neighbor sets and latencies are constant within a round by
//! construction.
//!
//! Every build, patch and compaction ends by folding the CSR `offsets`
//! and `edges` into [`TopologyView::csr_fingerprint`], so anything keyed
//! to one overlay's CSR index space (an observation collector, say) can
//! check in O(1) that a view is that overlay.
//!
//! # Determinism
//!
//! A flood is a pure function of the view and the source: adjacency is
//! stored in the ascending-id order [`Topology::neighbors`] yields, cached
//! latencies are the exact `f64`s the latency model returns, and the
//! Dijkstra queue breaks exact-time ties by ascending node id — so
//! arrival, relay and delivery times are the same IEEE-754 values on any
//! thread, through a fresh or a reused [`GossipScratch`] (the one
//! propagation scratch, which the message-level kernel runs on too), and
//! equal to the message-level engine's in
//! [`GossipMode::Flood`](crate::GossipMode).
//!
//! # Bucket quantization and determinism
//!
//! The Dijkstra frontier is the scratch's calendar queue
//! ([`CalendarQueue`](crate::CalendarQueue)). It *places* a key by
//! quantizing its time into a sub-millisecond bucket but *orders* by the
//! exact packed key — `time.to_bits()` over the node id in one `u128`,
//! whose high bits are the untouched IEEE-754 time — sorting each bucket
//! before draining it. Quantized placement is a coarsening of the exact
//! order, so ascending buckets refined by ascending in-bucket keys pop
//! keys in exactly a binary heap's order: no float is rounded anywhere,
//! ties at the exact same time still break by ascending node id, and
//! every downstream arrival/relay float is the one the seed's heap-based
//! engines computed (the pq tests and proptests check the queue against a
//! `BinaryHeap`, `tests/gossip_legacy.rs` the floods against the seed
//! engine, `gossip_block` of the dev-only `perigee-oracle` crate).

use crate::error::NetsimError;
use crate::faults::{BlockFaults, FaultLens, NoFaults};
use crate::gossip::{check_payload_cap, event_time, pack_settle, GossipConfig, GossipScratch};
use crate::graph::Topology;
use crate::latency::LatencyModel;
use crate::node::{Behavior, NodeId, NodeProfile};
use crate::population::{IdRemap, Population};
use crate::pq::QueueKind;
use crate::time::SimTime;

/// How a node relays once it first holds a block (resolved from
/// [`Behavior`] and the validation delay at snapshot time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RelayProfile {
    /// Validates for the given delay, then relays.
    Honest { validation: SimTime },
    /// Receives but never relays.
    Silent,
    /// Validates, then waits `extra` before relaying.
    Delayed { validation: SimTime, extra: SimTime },
}

impl RelayProfile {
    #[inline]
    pub(crate) fn relay_time(self, t: SimTime, is_miner: bool) -> SimTime {
        match self {
            RelayProfile::Honest { validation } => {
                if is_miner {
                    t
                } else {
                    t + validation
                }
            }
            RelayProfile::Silent => SimTime::INFINITY,
            RelayProfile::Delayed { validation, extra } => {
                let validated = if is_miner { t } else { t + validation };
                validated + extra
            }
        }
    }
}

/// A frozen CSR snapshot of a [`Topology`] with per-edge latencies and
/// per-node relay profiles precomputed.
///
/// # Examples
///
/// ```
/// use perigee_netsim::{
///     ConnectionLimits, GeoLatencyModel, GossipScratch, NodeId, PopulationBuilder, SimTime,
///     Topology, TopologyView,
/// };
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pop = PopulationBuilder::new(50).build(&mut rng).unwrap();
/// let lat = GeoLatencyModel::new(&pop, 1);
/// let mut topo = Topology::new(50, ConnectionLimits::paper_default());
/// for i in 0..50u32 {
///     topo.connect(NodeId::new(i), NodeId::new((i + 1) % 50))?;
/// }
///
/// let view = TopologyView::new(&topo, &lat, &pop);
/// let mut scratch = GossipScratch::new();
/// view.broadcast_into(NodeId::new(0), &mut scratch);
/// assert_eq!(scratch.arrival(NodeId::new(0)), SimTime::ZERO);
/// assert_eq!(scratch.reached(), 50);
/// // Node 1 hears the miner's block one link latency after mining.
/// assert_eq!(scratch.arrival(NodeId::new(1)), view.neighbor_delays(NodeId::new(0))[0]);
/// # Ok::<(), perigee_netsim::ConnectError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyView {
    /// CSR row starts: node `u`'s adjacency is `edges[offsets[u]..offsets[u+1]]`.
    pub(crate) offsets: Vec<usize>,
    /// Neighbor ids, ascending within each node (the [`Topology::neighbors`] order).
    pub(crate) edges: Vec<u32>,
    /// `δ(u, edges[e])` for every directed adjacency entry, cached once.
    pub(crate) delay: Vec<SimTime>,
    /// `reverse[e]` is the index of the opposite directed entry: for
    /// `e = (u → v)`, `edges[reverse[e]] == u` and `reverse[e]` lies in
    /// `v`'s row. The communication graph (out ∪ in ∪ pinned) is symmetric
    /// by construction, so every entry has an opposite.
    pub(crate) reverse: Vec<u32>,
    /// Per-node relay profile (validation delay + behavior).
    pub(crate) relay: Vec<RelayProfile>,
    /// Per-node hash power `fv` (for coverage times).
    pub(crate) hash_power: Vec<f64>,
    /// Per-node access uplink (Mbit/s), for bandwidth-limited transfers.
    pub(crate) uplink_mbps: Vec<f64>,
    /// Per-node access downlink (Mbit/s), for bandwidth-limited transfers.
    pub(crate) downlink_mbps: Vec<f64>,
    /// When every node holds bit-identical hash power (the paper's default
    /// uniform setting), coverage times reduce to an order statistic of
    /// the arrivals — computed by selection instead of a full sort.
    pub(crate) uniform_weight: Option<f64>,
    /// A hash of `offsets` and `edges`, refolded by every path that
    /// changes them (see [`TopologyView::csr_fingerprint`]).
    fingerprint: u64,
}

impl TopologyView {
    /// Snapshots `topology` with latencies from `latency` and relay
    /// profiles from `population`.
    ///
    /// Cost: one `δ(u,v)` evaluation per directed edge — paid once instead
    /// of once per block.
    ///
    /// # Panics
    ///
    /// Panics if the topology, latency model and population disagree on
    /// the node count, if a node's validation delay or
    /// [`Behavior::Delay`] extra is negative, NaN or infinite, or if the
    /// world exceeds the message-level engine's 2^30 packed-payload cap
    /// ([`TopologyView::try_new`] returns the structured error instead).
    pub fn new<L: LatencyModel + ?Sized>(
        topology: &Topology,
        latency: &L,
        population: &Population,
    ) -> Self {
        match Self::try_new(topology, latency, population) {
            Ok(view) => view,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`TopologyView::new`]: snapshots the world, rejecting one
    /// whose node count or directed-edge count is at or beyond the 2^30
    /// packed-event payload cap
    /// ([`PACKED_PAYLOAD_CAP`](crate::gossip::PACKED_PAYLOAD_CAP)) with
    /// [`NetsimError::WorldTooLarge`] instead of letting the gossip
    /// engine's packed `u128` event words silently corrupt in release
    /// builds. Incremental growth is guarded too:
    /// [`TopologyView::apply_delta`] panics rather than grow a
    /// snapshot past the cap.
    ///
    /// # Errors
    ///
    /// [`NetsimError::WorldTooLarge`] when the cap is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if the topology, latency model and population disagree on
    /// the node count, or if a node's validation delay or
    /// [`Behavior::Delay`] extra is negative, NaN or infinite.
    pub fn try_new<L: LatencyModel + ?Sized>(
        topology: &Topology,
        latency: &L,
        population: &Population,
    ) -> Result<Self, NetsimError> {
        let n = topology.len();
        assert_eq!(n, population.len(), "topology and population must agree");
        assert_eq!(n, latency.len(), "topology and latency model must agree");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        let mut delay = Vec::new();
        offsets.push(0);
        for i in 0..n as u32 {
            let u = NodeId::new(i);
            for v in topology.neighbors(u) {
                edges.push(v.as_u32());
                delay.push(latency.delay(u, v));
            }
            offsets.push(edges.len());
        }
        check_payload_cap(n, edges.len())?;
        let mut view = TopologyView {
            offsets,
            edges,
            delay,
            reverse: Vec::new(),
            relay: Vec::new(),
            hash_power: Vec::new(),
            uplink_mbps: Vec::new(),
            downlink_mbps: Vec::new(),
            uniform_weight: None,
            fingerprint: 0,
        };
        view.rebuild_reverse();
        view.refresh_node_attributes(population);
        Ok(view)
    }

    /// Number of nodes in the snapshot.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the snapshot covers no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed adjacency entries (twice the undirected
    /// edge count).
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `u`'s communication neighbors as raw ids, ascending — exactly
    /// [`Topology::neighbors`] at snapshot time.
    #[inline]
    pub fn neighbors_raw(&self, u: NodeId) -> &[u32] {
        &self.edges[self.offsets[u.index()]..self.offsets[u.index() + 1]]
    }

    /// The CSR row-start array: node `u`'s adjacency entries occupy
    /// directed-edge indices `csr_offsets()[u]..csr_offsets()[u + 1]`.
    /// Length is `len() + 1`. This index space addresses all per-edge
    /// data — the view's cached delays, the delivery rows the scratch
    /// derives, and the flat observation store built on top of the view.
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat neighbor-id array underlying every CSR row, aligned with
    /// [`TopologyView::csr_offsets`].
    #[inline]
    pub fn csr_edges(&self) -> &[u32] {
        &self.edges
    }

    /// The cached per-directed-edge latencies, aligned with
    /// [`TopologyView::csr_edges`].
    #[inline]
    pub fn csr_delays(&self) -> &[SimTime] {
        &self.delay
    }

    /// The reverse-edge map, aligned with [`TopologyView::csr_edges`]:
    /// `csr_reverse()[e]` is the directed-edge index of the opposite
    /// direction of edge `e` (an entry in the target node's row). This is
    /// the index a link-fault lens must be consulted with to replay the
    /// announcement that *arrived over* edge `e`'s link: the announcer
    /// crossed `reverse[e]`, not `e`.
    #[inline]
    pub fn csr_reverse(&self) -> &[u32] {
        &self.reverse
    }

    /// A 64-bit hash of [`TopologyView::csr_offsets`] and
    /// [`TopologyView::csr_edges`], recomputed by every build, patch and
    /// compaction. Two views over different CSR index spaces — even of
    /// the same size and the same degrees — read different fingerprints
    /// but for a hash collision, so state keyed to one view's edge
    /// indices checks another view in O(1) instead of an m-length
    /// comparison.
    #[inline]
    pub fn csr_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The range of directed-edge indices forming `u`'s CSR row — the
    /// index space of per-edge data such as a delivery row
    /// ([`GossipScratch::write_rows`](crate::GossipScratch::write_rows)).
    #[inline]
    pub fn edge_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.offsets[u.index()]..self.offsets[u.index() + 1]
    }

    /// `u`'s communication neighbors as [`NodeId`]s, ascending.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors_raw(u).iter().copied().map(NodeId::new)
    }

    /// The cached latencies aligned with [`TopologyView::neighbors_raw`].
    #[inline]
    pub fn neighbor_delays(&self, u: NodeId) -> &[SimTime] {
        &self.delay[self.offsets[u.index()]..self.offsets[u.index() + 1]]
    }

    /// The hash power of node `u` at snapshot time.
    #[inline]
    pub fn hash_power(&self, u: NodeId) -> f64 {
        self.hash_power[u.index()]
    }

    /// Floods one block from `source`, writing arrival and relay times
    /// into `scratch` without allocating (after `scratch` has warmed up to
    /// this network size once), and leaving [`GossipConfig::flood`] as its
    /// config, so its delivery rows follow the flood's rule.
    ///
    /// Behavioural deviations are honoured: [`Behavior::Silent`] nodes
    /// receive but never relay; [`Behavior::Delay`] nodes add their extra
    /// delay before relaying. The miner relays its own block without
    /// validating it; every other node validates (`Δu`) between first
    /// receipt and relaying. See the module docs for the determinism
    /// guarantee.
    pub fn broadcast_into(&self, source: NodeId, scratch: &mut GossipScratch) {
        self.flood(source, scratch, NoFaults);
    }

    /// [`TopologyView::broadcast_into`] with a link-fault lens applied to
    /// every announcement leg: each relaxation edge `e` crosses at
    /// [`BlockFaults::announce_leg`]`(e, delay[e])` instead of `delay[e]`
    /// — or not at all (`None`: the link is down or the block was
    /// dropped).
    ///
    /// Both entry points run the same flood body; with `faults: None` it
    /// is instantiated on the no-fault lens, and with an inert plan the
    /// lens returns the base delay bitwise, so both are bit-identical to
    /// the fault-free flood.
    pub fn broadcast_into_faulted(
        &self,
        source: NodeId,
        scratch: &mut GossipScratch,
        faults: Option<&BlockFaults<'_>>,
    ) {
        match faults {
            Some(faults) => self.flood(source, scratch, faults),
            None => self.flood(source, scratch, NoFaults),
        }
    }

    /// The one flood body: a Dijkstra over the announcement legs as the
    /// lens `faults` sees them.
    fn flood<F: FaultLens>(&self, source: NodeId, scratch: &mut GossipScratch, faults: F) {
        scratch.begin(source, GossipConfig::flood(), self.len());
        scratch.first_arrival[source.index()] = SimTime::ZERO;
        scratch
            .queue
            .push(pack_settle(SimTime::ZERO, source.as_u32()));

        while let Some(word) = scratch.queue.pop() {
            scratch.counters.flood_pops += 1;
            let u = word as u32;
            let ui = u as usize;
            let t = event_time(word);
            // Raw f64 compare: times are never NaN and never -0.0, so
            // this matches SimTime's total order at lower cost.
            if t.as_ms() > scratch.first_arrival[ui].as_ms() {
                continue; // stale entry
            }
            let relay = self.relay[ui].relay_time(t, u == source.as_u32());
            scratch.relay_at[ui] = relay;
            if relay.is_infinite() {
                continue; // silent node: absorbs the block
            }
            let (start, end) = (self.offsets[ui], self.offsets[ui + 1]);
            scratch.counters.flood_relaxations += (end - start) as u64;
            let row = self.edges[start..end].iter().zip(&self.delay[start..end]);
            for (k, (&v, &delay)) in row.enumerate() {
                let Some(leg) = faults.announce(start + k, delay, &mut scratch.counters) else {
                    continue; // dropped or the link is down
                };
                let vi = v as usize;
                let tv = relay + leg;
                if tv.as_ms() < scratch.first_arrival[vi].as_ms() {
                    scratch.first_arrival[vi] = tv;
                    scratch.counters.flood_improvements += 1;
                    scratch.queue.push(pack_settle(tv, v));
                }
            }
            scratch.counters.queue_peak =
                scratch.counters.queue_peak.max(scratch.queue.len() as u64);
        }
    }

    /// Patches the snapshot across one round instead of rebuilding it:
    /// the round's edge rewiring and, in a dynamic world, node arrivals
    /// and departures, in one incremental pass.
    ///
    /// A Perigee round rewires only the dropped/refilled connections —
    /// about `2·n` of the `~14·n` directed edges — yet a fresh
    /// [`TopologyView::new`] pays one latency-model evaluation (a hash
    /// plus a square root for the geographic model) *per directed edge*
    /// and one `BTreeSet` walk plus a `Vec` allocation per node. This
    /// method merges the delta into the CSR arrays in one linear pass:
    /// cached delays of surviving edges are copied verbatim, the latency
    /// model is consulted only for the added edges (which include every
    /// new node's bootstrap links), and the reverse-edge map is
    /// recomputed index-for-index.
    ///
    /// `delta` must contain every communication edge the round tore down
    /// or created, *including* the torn-down edges of departing nodes and
    /// the bootstrap edges of joiners — exactly what a caller that logs
    /// all disconnect/connect operations already produces. `population`
    /// is the **post-round** population: new slots grow the CSR by empty
    /// rows in the same linear pass as the edge merge, departed slots keep
    /// an empty row (the stable-id contract — ids are never reused, so a
    /// dead row costs one `offsets` entry and nothing else), and the
    /// per-node attributes (relay profiles, hash power, link rates) are
    /// refilled from it in place, because retirements zero hash power and
    /// the renormalization rescales every live node. An empty delta on an
    /// unchanged node count leaves the CSR arrays untouched.
    ///
    /// The patched view is **field-for-field equal** to a freshly built
    /// `TopologyView::new` on the post-round world (asserted by the
    /// `netsim` proptest suite and, in debug builds, by the engine after
    /// every round).
    ///
    /// # Panics
    ///
    /// Panics if the population shrank (ids are stable, worlds only grow
    /// in slot count), if the latency model does not cover the grown
    /// population, if the delta is inconsistent with the snapshot (a
    /// removed edge that the view does not hold, an added edge it already
    /// holds, or an endpoint out of range), or if a node's validation
    /// delay or [`Behavior::Delay`] extra is negative, NaN or infinite.
    pub fn apply_delta<L: LatencyModel + ?Sized>(
        &mut self,
        delta: &RoundDelta,
        latency: &L,
        population: &Population,
    ) {
        let n_new = population.len();
        assert!(n_new >= self.len(), "populations never shrink (stable ids)");
        assert_eq!(
            latency.len(),
            n_new,
            "latency model must cover the grown population"
        );
        if !delta.is_empty() || n_new != self.len() {
            self.merge_rewiring(delta, latency, n_new);
        }
        self.refresh_node_attributes(population);
    }

    /// Applies a free-list compaction plan to the carried snapshot in one
    /// linear pass, **without a single latency-model call**: dead slots'
    /// (empty) CSR rows are deleted, surviving rows shift down with every
    /// stored id renumbered through the plan, and the cached per-edge
    /// delay floats are copied verbatim — the latency model's
    /// [`compact`](crate::LatencyModel::compact) contract guarantees
    /// `delay(new_u, new_v) == delay(old_u, old_v)` bit for bit, so the
    /// copied floats are exactly what a fresh build would recompute. The
    /// remap is monotone on live ids, so rows stay ascending without
    /// re-sorting; the reverse-edge map is recomputed index-for-index
    /// (integer work only) and per-node attributes are refreshed from the
    /// compacted `population`, exactly as in [`TopologyView::new`].
    ///
    /// Call this with the *same* plan, in the same step, as
    /// `Population::compact`, `Topology::compact` and the latency model's
    /// `compact` — the patched view is field-for-field equal to a fresh
    /// `TopologyView::new` over the compacted world (asserted in debug
    /// builds by the engine).
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count, if `population`
    /// is not the compacted (post-plan) population, if a dead slot still
    /// holds edges, or if a node's validation delay or [`Behavior::Delay`]
    /// extra is negative, NaN or infinite.
    pub fn compact(&mut self, plan: &IdRemap, population: &Population) {
        assert_eq!(
            plan.old_len(),
            self.len(),
            "compaction plan covers a different world size"
        );
        assert_eq!(
            population.len(),
            plan.new_len(),
            "population must already be compacted"
        );
        let n_new = plan.new_len();
        let mut offsets = Vec::with_capacity(n_new + 1);
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut delay = Vec::with_capacity(self.delay.len());
        offsets.push(0);
        for old in 0..self.len() {
            let (start, end) = (self.offsets[old], self.offsets[old + 1]);
            if plan.new_id(NodeId::new(old as u32)).is_none() {
                assert!(
                    start == end,
                    "compaction: dead node {old} still holds edges"
                );
                continue;
            }
            for e in start..end {
                edges.push(plan.remap(NodeId::new(self.edges[e])).as_u32());
                delay.push(self.delay[e]);
            }
            offsets.push(edges.len());
        }
        self.offsets = offsets;
        self.edges = edges;
        self.delay = delay;
        self.rebuild_reverse();
        self.refresh_node_attributes(population);
    }

    /// The one-pass CSR merge behind [`TopologyView::apply_delta`]: rows
    /// `>= self.len()` are treated as (new, empty) rows, so growing the
    /// world and patching its edges is a single linear sweep.
    fn merge_rewiring<L: LatencyModel + ?Sized>(
        &mut self,
        delta: &RoundDelta,
        latency: &L,
        n_new: usize,
    ) {
        let n_old = self.len();
        // Expand the undirected delta into directed adjacency entries,
        // sorted by (row, neighbor) so one cursor pass covers all rows.
        let mut removed: Vec<(u32, u32)> = Vec::with_capacity(delta.removed.len() * 2);
        for &(a, b) in &delta.removed {
            removed.push((a, b));
            removed.push((b, a));
        }
        removed.sort_unstable();
        let mut added: Vec<(u32, u32)> = Vec::with_capacity(delta.added.len() * 2);
        for &(a, b) in &delta.added {
            added.push((a, b));
            added.push((b, a));
        }
        added.sort_unstable();
        if let Some(&(u, v)) = removed.last().into_iter().chain(added.last()).max() {
            assert!(
                (u as usize) < n_new && (v as usize) < n_new,
                "delta endpoint out of range"
            );
        }

        let m_new = self.edges.len() + added.len() - removed.len();
        // Incremental growth obeys the same packed-payload cap that
        // `try_new` enforces at construction: refuse to grow a snapshot
        // the gossip engine could no longer address.
        if let Err(e) = check_payload_cap(n_new, m_new) {
            panic!("{e}");
        }
        let mut edges = Vec::with_capacity(m_new);
        let mut delay = Vec::with_capacity(m_new);
        let mut offsets = Vec::with_capacity(n_new + 1);
        offsets.push(0);
        let (mut ri, mut ai) = (0usize, 0usize);
        for u in 0..n_new as u32 {
            // Rows past the old node count are brand new: no surviving
            // entries, only additions.
            let (start, end) = if (u as usize) < n_old {
                (self.offsets[u as usize], self.offsets[u as usize + 1])
            } else {
                (0, 0)
            };
            let mut e = start;
            // Merge the surviving old entries with the (ascending) added
            // neighbors; both sequences are sorted, so the output row is.
            while e < end || (ai < added.len() && added[ai].0 == u) {
                let old_v = if e < end { Some(self.edges[e]) } else { None };
                let add_v = if ai < added.len() && added[ai].0 == u {
                    Some(added[ai].1)
                } else {
                    None
                };
                match (old_v, add_v) {
                    (Some(ov), av) if av.is_none_or(|a| ov < a) => {
                        if ri < removed.len() && removed[ri] == (u, ov) {
                            ri += 1; // dropped edge: skip it
                        } else {
                            edges.push(ov);
                            delay.push(self.delay[e]);
                        }
                        e += 1;
                    }
                    (ov, Some(av)) => {
                        assert!(
                            ov != Some(av),
                            "delta adds edge {u}-{av} the view already holds"
                        );
                        edges.push(av);
                        delay.push(latency.delay(NodeId::new(u), NodeId::new(av)));
                        ai += 1;
                    }
                    _ => unreachable!("loop condition guarantees one side"),
                }
            }
            offsets.push(edges.len());
        }
        assert!(
            ri == removed.len() && ai == added.len(),
            "delta removes an edge the view does not hold"
        );
        self.edges = edges;
        self.delay = delay;
        self.offsets = offsets;
        // All offsets after the first touched row shifted, so reverse
        // indices are recomputed globally.
        self.rebuild_reverse();
    }

    /// Recomputes the reverse-edge map and the CSR fingerprint from the
    /// CSR arrays — integer work only, no float math. Every construction
    /// and patch path ends here, so patched and freshly built views can
    /// only agree or both be wrong.
    fn rebuild_reverse(&mut self) {
        self.reverse.clear();
        self.reverse.resize(self.edges.len(), 0);
        // FNV-1a over whole words: each step is a bijection of the running
        // hash, so two CSRs that differ in a single word always fold to
        // different fingerprints, and one multiply per edge costs next to
        // nothing beside the binary search.
        let fold = |h: u64, word: usize| (h ^ word as u64).wrapping_mul(0x0000_0100_0000_01B3);
        let mut fingerprint = fold(0xCBF2_9CE4_8422_2325, self.len());
        for u in 0..self.len() {
            for e in self.offsets[u]..self.offsets[u + 1] {
                let v = self.edges[e] as usize;
                fingerprint = fold(fingerprint, v);
                let row = &self.edges[self.offsets[v]..self.offsets[v + 1]];
                let k = row
                    .binary_search(&(u as u32))
                    .expect("communication graph is symmetric");
                self.reverse[e] = (self.offsets[v] + k) as u32;
            }
            fingerprint = fold(fingerprint, self.offsets[u + 1]);
        }
        self.fingerprint = fingerprint;
    }

    /// Installs the per-node attributes of `population` — relay profiles,
    /// hash power, link rates — shared verbatim by construction and every
    /// path that moves the node set.
    ///
    /// # Panics
    ///
    /// Panics, naming the node, if a validation delay or
    /// [`Behavior::Delay`] extra is negative, NaN or infinite — before any
    /// propagation queues an event behind its cursor.
    fn refresh_node_attributes(&mut self, population: &Population) {
        for (i, p) in population.iter().enumerate() {
            assert!(
                p.has_valid_delays(),
                "node n{i} relays after a negative, NaN or infinite delay \
                 (validation {}, {:?})",
                p.validation_delay,
                p.behavior
            );
        }
        refill(&mut self.relay, population, |p| match p.behavior {
            Behavior::Honest => RelayProfile::Honest {
                validation: p.validation_delay,
            },
            Behavior::Silent => RelayProfile::Silent,
            Behavior::Delay(extra) => RelayProfile::Delayed {
                validation: p.validation_delay,
                extra,
            },
        });
        refill(&mut self.hash_power, population, |p| p.hash_power);
        self.uniform_weight = match self.hash_power.split_first() {
            Some((&w, rest)) if rest.iter().all(|&x| x == w) => Some(w),
            _ => None,
        };
        refill(&mut self.uplink_mbps, population, |p| p.uplink_mbps);
        refill(&mut self.downlink_mbps, population, |p| p.downlink_mbps);
    }
}

/// Refills a per-node vector from `population` in place: a refresh over
/// an unchanged node count allocates nothing, and one over a grown or
/// compacted world leaves exactly one slot of capacity per node, as a
/// fresh build does.
fn refill<T>(v: &mut Vec<T>, population: &Population, f: impl Fn(&NodeProfile) -> T) {
    v.clear();
    v.reserve_exact(population.len());
    v.extend(population.iter().map(f));
    v.shrink_to(population.len());
}

/// The net change one round of rewiring makes to the undirected
/// communication graph: which edges disappeared and which appeared.
///
/// Built by [`RoundDelta::new`] from the raw removal/addition logs of a
/// rewiring phase; pairs are normalized (`u < v`), deduplicated, and an
/// edge that was removed and then re-added within the same round cancels
/// out entirely (its cached latency is still valid). Consumed by
/// [`TopologyView::apply_delta`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundDelta {
    removed: Vec<(u32, u32)>,
    added: Vec<(u32, u32)>,
}

impl RoundDelta {
    /// Normalizes raw removal/addition logs into a net delta.
    ///
    /// Each pair is an undirected communication edge in either endpoint
    /// order. For any single pair, a well-formed log alternates removals
    /// and additions (an edge must exist to be removed and be absent to
    /// be added), so the *counts* decide the net effect: one more removal
    /// than addition nets to "removed", one more addition nets to
    /// "added", equal counts cancel out entirely — the view's cached
    /// state for a dropped-and-re-established edge is still exact.
    pub fn new(removed: Vec<(NodeId, NodeId)>, added: Vec<(NodeId, NodeId)>) -> Self {
        let normalize = |pairs: Vec<(NodeId, NodeId)>| -> Vec<(u32, u32)> {
            let mut out: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(a, b)| {
                    let (a, b) = (a.as_u32(), b.as_u32());
                    if a < b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                })
                .collect();
            out.sort_unstable();
            out
        };
        let rem = normalize(removed);
        let add = normalize(added);
        let mut removed = Vec::new();
        let mut added = Vec::new();
        // Merge-walk the two sorted multisets, netting counts per pair.
        let (mut i, mut j) = (0usize, 0usize);
        while i < rem.len() || j < add.len() {
            let pair = match (rem.get(i), add.get(j)) {
                (Some(&r), Some(&a)) => r.min(a),
                (Some(&r), None) => r,
                (None, Some(&a)) => a,
                (None, None) => unreachable!(),
            };
            let mut r_count = 0usize;
            while rem.get(i) == Some(&pair) {
                r_count += 1;
                i += 1;
            }
            let mut a_count = 0usize;
            while add.get(j) == Some(&pair) {
                a_count += 1;
                j += 1;
            }
            match r_count.cmp(&a_count) {
                std::cmp::Ordering::Greater => removed.push(pair),
                std::cmp::Ordering::Less => added.push(pair),
                std::cmp::Ordering::Equal => {}
            }
        }
        RoundDelta { removed, added }
    }

    /// `true` when the round changed nothing — patching is a no-op.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }

    /// Number of net removed undirected edges.
    pub fn removed_count(&self) -> usize {
        self.removed.len()
    }

    /// Number of net added undirected edges.
    pub fn added_count(&self) -> usize {
        self.added.len()
    }
}

/// A constructor shim over the one propagation scratch: it holds a
/// [`GossipScratch`] and derefs to it, so both kernels and every accessor
/// take it. Kept only because roundbench's replay builds the flood's
/// former scratch type by name.
#[derive(Debug, Clone)]
pub struct BroadcastScratch(GossipScratch);

impl BroadcastScratch {
    /// A scratch pre-sized for `n` nodes
    /// ([`GossipScratch::with_capacity`], no edges checked), under the
    /// name roundbench's replay calls; [`QueueKind`] has one value.
    ///
    /// # Panics
    ///
    /// Panics if `n` reaches the packed-payload cap.
    pub fn with_capacity_and_queue(n: usize, _: QueueKind) -> Self {
        BroadcastScratch(GossipScratch::with_capacity(n, 0))
    }
}

impl std::ops::Deref for BroadcastScratch {
    type Target = GossipScratch;

    fn deref(&self) -> &GossipScratch {
        &self.0
    }
}

impl std::ops::DerefMut for BroadcastScratch {
    fn deref_mut(&mut self) -> &mut GossipScratch {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConnectionLimits;
    use crate::latency::{GeoLatencyModel, MetricLatencyModel};
    use crate::node::NodeProfile;
    use crate::population::{HashPowerDist, PopulationBuilder};
    use crate::LatencyModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_world(n: usize, seed: u64) -> (Population, GeoLatencyModel, Topology, StdRng) {
        random_world_with(n, seed, HashPowerDist::Uniform)
    }

    fn random_world_with(
        n: usize,
        seed: u64,
        hash_power: HashPowerDist,
    ) -> (Population, GeoLatencyModel, Topology, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n)
            .hash_power(hash_power)
            .build(&mut rng)
            .unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(n, ConnectionLimits::paper_default());
        for i in 0..n as u32 {
            let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % n as u32));
        }
        for _ in 0..3 * n {
            let u = NodeId::new(rng.gen_range(0..n as u32));
            let v = NodeId::new(rng.gen_range(0..n as u32));
            let _ = topo.connect(u, v);
        }
        (pop, lat, topo, rng)
    }

    #[test]
    fn csr_matches_topology_neighbors() {
        let (pop, lat, topo, _) = random_world(80, 3);
        let view = TopologyView::new(&topo, &lat, &pop);
        for i in 0..80u32 {
            let u = NodeId::new(i);
            let from_view: Vec<NodeId> = view.neighbors(u).collect();
            assert_eq!(from_view, topo.neighbors(u));
            let delays = view.neighbor_delays(u);
            for (k, v) in view.neighbors(u).enumerate() {
                assert_eq!(delays[k], lat.delay(u, v));
            }
        }
    }

    #[test]
    fn scratch_reuse_across_network_sizes() {
        let mut scratch = GossipScratch::new();
        for n in [10usize, 50, 20] {
            let (pop, lat, topo, _) = random_world(n, n as u64);
            let view = TopologyView::new(&topo, &lat, &pop);
            view.broadcast_into(NodeId::new(0), &mut scratch);
            assert_eq!(scratch.arrivals().len(), n);
            assert_eq!(scratch.reached(), n, "ring keeps the overlay connected");
        }
    }

    type EdgeLog = Vec<(NodeId, NodeId)>;

    /// Applies `ops` (connect/disconnect pairs) to `topo`, returning the
    /// net communication-graph delta the way the engine tracks it: edge
    /// presence compared around each individual operation.
    fn apply_ops(topo: &mut Topology, ops: &[(u32, u32, bool)]) -> (EdgeLog, EdgeLog) {
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        for &(a, b, connect) in ops {
            let (u, v) = (NodeId::new(a), NodeId::new(b));
            if connect {
                if topo.connect(u, v).is_ok() {
                    added.push((u, v));
                }
            } else {
                let was = topo.are_connected(u, v);
                topo.disconnect(u, v);
                if was && !topo.are_connected(u, v) {
                    removed.push((u, v));
                }
            }
        }
        (removed, added)
    }

    #[test]
    fn patched_view_equals_fresh_build() {
        let (pop, lat, mut topo, mut rng) = random_world(60, 11);
        let mut view = TopologyView::new(&topo, &lat, &pop);
        for round in 0..5 {
            let ops: Vec<(u32, u32, bool)> = (0..40)
                .map(|_| {
                    (
                        rng.gen_range(0..60u32),
                        rng.gen_range(0..60u32),
                        rng.gen_range(0..3u8) > 0,
                    )
                })
                .filter(|&(a, b, _)| a != b)
                .collect();
            let (removed, added) = apply_ops(&mut topo, &ops);
            view.apply_delta(&RoundDelta::new(removed, added), &lat, &pop);
            assert_eq!(
                view,
                TopologyView::new(&topo, &lat, &pop),
                "patched view diverged from a fresh build in round {round}"
            );
        }
    }

    #[test]
    fn world_delta_patch_equals_fresh_build_with_join_and_departure() {
        let (mut pop, mut lat, mut topo, mut rng) = random_world(40, 21);
        let mut view = TopologyView::new(&topo, &lat, &pop);
        for round in 0..4 {
            let (mut removed, mut added) = (Vec::new(), Vec::new());
            // A departure: tear down one live node's edges.
            let depart = pop
                .ids_alive()
                .nth(rng.gen_range(0..pop.alive_count()))
                .unwrap();
            for u in topo.clear_node(depart) {
                removed.push((depart, u));
            }
            pop.retire(depart);
            // A join: spawn, grow the world, bootstrap random edges.
            let mut profile = crate::node::NodeProfile {
                hash_power: pop.mean_alive_hash_power(),
                ..crate::node::NodeProfile::default()
            };
            profile.region = crate::node::Region::Europe;
            let id = pop.spawn(profile);
            topo.grow_to(pop.len());
            lat.extend_for(&pop);
            for _ in 0..4 {
                let u = pop
                    .ids_alive()
                    .nth(rng.gen_range(0..pop.alive_count()))
                    .unwrap();
                if u != id && topo.connect(id, u).is_ok() {
                    added.push((id, u));
                }
            }
            // Plus ordinary rewiring among survivors.
            for _ in 0..20 {
                let a = NodeId::new(rng.gen_range(0..pop.len() as u32));
                let b = NodeId::new(rng.gen_range(0..pop.len() as u32));
                if a == b || !pop.is_alive(a) || !pop.is_alive(b) {
                    continue;
                }
                if rng.gen_range(0..3u8) > 0 {
                    if topo.connect(a, b).is_ok() {
                        added.push((a, b));
                    }
                } else {
                    let was = topo.are_connected(a, b);
                    topo.disconnect(a, b);
                    if was && !topo.are_connected(a, b) {
                        removed.push((a, b));
                    }
                }
            }
            pop.renormalize_hash_power();
            view.apply_delta(&RoundDelta::new(removed, added), &lat, &pop);
            assert_eq!(
                view,
                TopologyView::new(&topo, &lat, &pop),
                "world-delta patch diverged from a fresh build in round {round}"
            );
        }
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let (pop, lat, topo, _) = random_world(30, 4);
        let mut view = TopologyView::new(&topo, &lat, &pop);
        let before = view.clone();
        view.apply_delta(&RoundDelta::default(), &lat, &pop);
        assert_eq!(view, before);
        // The CSR stays, but the node attributes follow the population,
        // so a departure that tore down no edge still reaches the view.
        let mut pop = pop;
        pop.profile_mut(NodeId::new(2)).hash_power *= 3.0;
        pop.renormalize_hash_power();
        view.apply_delta(&RoundDelta::default(), &lat, &pop);
        assert_ne!(view, before);
        assert_eq!(view, TopologyView::new(&topo, &lat, &pop));
    }

    #[test]
    fn removed_then_readded_edges_cancel() {
        let e = (NodeId::new(3), NodeId::new(7));
        let delta = RoundDelta::new(vec![e, (NodeId::new(1), NodeId::new(2))], vec![(e.1, e.0)]);
        assert_eq!(delta.removed_count(), 1, "only the uncancelled removal");
        assert_eq!(delta.added_count(), 0);
    }

    #[test]
    fn delta_nets_by_count_parity() {
        // remove → re-add → remove again: net effect is one removal.
        let e = (NodeId::new(3), NodeId::new(7));
        let delta = RoundDelta::new(vec![e, e], vec![(e.1, e.0)]);
        assert_eq!((delta.removed_count(), delta.added_count()), (1, 0));
        // add → remove → re-add: net effect is one addition.
        let delta = RoundDelta::new(vec![e], vec![e, e]);
        assert_eq!((delta.removed_count(), delta.added_count()), (0, 1));
        assert!(RoundDelta::new(vec![e], vec![e]).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn removing_a_missing_edge_panics() {
        let (pop, lat, topo, _) = random_world(20, 5);
        let mut view = TopologyView::new(&topo, &lat, &pop);
        // Nodes 4 and 5 may or may not be linked; pick a pair that is not.
        let mut pair = None;
        'outer: for a in 0..20u32 {
            for b in (a + 1)..20u32 {
                if !topo.are_connected(NodeId::new(a), NodeId::new(b)) {
                    pair = Some((NodeId::new(a), NodeId::new(b)));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("a sparse graph has a non-edge");
        view.apply_delta(&RoundDelta::new(vec![(a, b)], Vec::new()), &lat, &pop);
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn mismatched_population_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let pop = PopulationBuilder::new(5).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 0);
        let topo = Topology::new(6, ConnectionLimits::paper_default());
        let _ = TopologyView::new(&topo, &lat, &pop);
    }

    #[test]
    fn compacted_view_equals_fresh_build_over_compacted_world() {
        let (mut pop, mut lat, mut topo, mut rng) = random_world(60, 17);
        let mut view = TopologyView::new(&topo, &lat, &pop);
        // Tear down and retire a handful of nodes exactly like the
        // engine's departure path, patching the view along the way.
        for dead in [3u32, 19, 20, 58] {
            let v = NodeId::new(dead);
            let severed: Vec<(NodeId, NodeId)> =
                topo.clear_node(v).into_iter().map(|u| (v, u)).collect();
            pop.retire(v);
            view.apply_delta(&RoundDelta::new(severed, Vec::new()), &lat, &pop);
        }
        let plan = pop.compaction_plan().expect("four dead slots");
        topo.compact(&plan);
        lat.compact(&plan);
        pop.compact(&plan);
        view.compact(&plan, &pop);
        let fresh = TopologyView::new(&topo, &lat, &pop);
        assert_eq!(view, fresh, "compacted view must equal a fresh build");
        // And the compacted world floods like any other.
        let src = NodeId::new(rng.gen_range(0..pop.len() as u32));
        let mut scratch = GossipScratch::new();
        view.broadcast_into(src, &mut scratch);
        let mut expected = GossipScratch::new();
        fresh.broadcast_into(src, &mut expected);
        assert_eq!(scratch.arrivals(), expected.arrivals());
    }

    /// A tiny deterministic world: nodes on a line at given 1-d coords,
    /// unit scale (so delay in ms equals coordinate distance).
    fn line_world(coords: &[f64], validation_ms: f64) -> (Population, MetricLatencyModel) {
        let profiles: Vec<NodeProfile> = coords
            .iter()
            .map(|&x| NodeProfile {
                coords: vec![x],
                hash_power: 1.0,
                validation_delay: SimTime::from_ms(validation_ms),
                ..NodeProfile::default()
            })
            .collect();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 1.0);
        (pop, lat)
    }

    fn path_topology(n: usize) -> Topology {
        let mut t = Topology::new(n, ConnectionLimits::unlimited());
        for i in 0..n - 1 {
            t.connect(NodeId::new(i as u32), NodeId::new(i as u32 + 1))
                .unwrap();
        }
        t
    }

    /// Floods one block from `source` through a fresh view of the world.
    fn flood(
        topo: &Topology,
        lat: &MetricLatencyModel,
        pop: &Population,
        source: u32,
    ) -> (TopologyView, GossipScratch) {
        let view = TopologyView::new(topo, lat, pop);
        let mut scratch = GossipScratch::new();
        view.broadcast_into(NodeId::new(source), &mut scratch);
        (view, scratch)
    }

    #[test]
    fn line_arrival_times_are_exact() {
        // Nodes at 0, 10, 30; validation 5ms; source node 0.
        let (pop, lat) = line_world(&[0.0, 10.0, 30.0], 5.0);
        let (_, s) = flood(&path_topology(3), &lat, &pop, 0);
        // miner relays immediately: node1 at 10; node1 validates 5 then
        // relays: node2 at 10+5+20 = 35.
        assert_eq!(s.arrival(NodeId::new(0)).as_ms(), 0.0);
        assert_eq!(s.arrival(NodeId::new(1)).as_ms(), 10.0);
        assert_eq!(s.arrival(NodeId::new(2)).as_ms(), 35.0);
        assert_eq!(s.reached(), 3);
    }

    #[test]
    fn delivery_times_cover_all_neighbors_even_late_ones() {
        let (pop, lat) = line_world(&[0.0, 10.0, 30.0], 5.0);
        let mut topo = path_topology(3);
        // Triangle: also connect 0-2 directly.
        topo.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        let (_, s) = flood(&topo, &lat, &pop, 0);
        let delivery = |u: u32, v: u32| {
            s.relay_start(NodeId::new(u)) + lat.delay(NodeId::new(u), NodeId::new(v))
        };
        // node2 hears directly from the miner at 30.
        assert_eq!(s.arrival(NodeId::new(2)).as_ms(), 30.0);
        // ...but node1 would still deliver to node2 at 10+5+20 = 35.
        assert_eq!(delivery(1, 2).as_ms(), 35.0);
        // And node2 (validating at 30+5) would deliver back to node1 at 55.
        assert_eq!(delivery(2, 1).as_ms(), 55.0);
    }

    #[test]
    fn silent_node_blocks_the_path() {
        let (mut pop, lat) = line_world(&[0.0, 10.0, 30.0], 5.0);
        pop.profile_mut(NodeId::new(1)).behavior = Behavior::Silent;
        let (_, s) = flood(&path_topology(3), &lat, &pop, 0);
        assert_eq!(s.arrival(NodeId::new(1)).as_ms(), 10.0);
        assert!(s.arrival(NodeId::new(2)).is_infinite());
        assert!(s.relay_start(NodeId::new(1)).is_infinite());
        assert_eq!(s.reached(), 2);
        let delivery = s.relay_start(NodeId::new(1)) + lat.delay(NodeId::new(1), NodeId::new(2));
        assert!(delivery.is_infinite());
    }

    #[test]
    fn delaying_node_slows_the_path() {
        let (mut pop, lat) = line_world(&[0.0, 10.0, 30.0], 5.0);
        pop.profile_mut(NodeId::new(1)).behavior = Behavior::Delay(SimTime::from_ms(100.0));
        let (_, s) = flood(&path_topology(3), &lat, &pop, 0);
        assert_eq!(s.arrival(NodeId::new(2)).as_ms(), 135.0);
    }

    #[test]
    fn silent_miner_never_shares_its_block() {
        let (mut pop, lat) = line_world(&[0.0, 10.0], 5.0);
        pop.profile_mut(NodeId::new(0)).behavior = Behavior::Silent;
        let (_, s) = flood(&path_topology(2), &lat, &pop, 0);
        assert!(s.arrival(NodeId::new(1)).is_infinite());
    }

    /// The production λ(f) takes the selection branch exactly when every
    /// node holds the same power, on a fresh build and after each patch. `tests/oracle.rs` checks both branches' values
    /// on these worlds against the sort-and-scan definition.
    #[test]
    fn uniform_power_takes_the_selection_branch() {
        for (dist, uniform) in [
            (HashPowerDist::Uniform, true),
            (HashPowerDist::Exponential, false),
        ] {
            let (mut pop, lat, topo, _) = random_world_with(100, 9, dist.clone());
            let mut view = TopologyView::new(&topo, &lat, &pop);
            assert_eq!(view.uniform_weight.is_some(), uniform, "{dist:?}");
            view.apply_delta(&RoundDelta::default(), &lat, &pop);
            assert_eq!(view.uniform_weight.is_some(), uniform, "{dist:?}, patched");
            // Swap the branch: flatten a skewed world, skew a flat one.
            for v in 0..100u32 {
                let skewed = uniform && v == 0;
                pop.profile_mut(NodeId::new(v)).hash_power = if skewed { 0.5 } else { 0.01 };
            }
            view.apply_delta(&RoundDelta::default(), &lat, &pop);
            assert_eq!(view.uniform_weight.is_some(), !uniform, "{dist:?}, swapped");
        }
    }

    #[test]
    fn coverage_time_uses_hash_power_weights() {
        // Node powers: 0.5, 0.25, 0.25. Arrivals 0, 10, 35.
        let (pop, lat) = line_world(&[0.0, 10.0, 30.0], 5.0);
        let mut profiles: Vec<NodeProfile> = pop.iter().cloned().collect();
        profiles[0].hash_power = 0.5;
        profiles[1].hash_power = 0.25;
        profiles[2].hash_power = 0.25;
        let pop = Population::from_profiles(profiles).unwrap();
        let (view, mut s) = flood(&path_topology(3), &lat, &pop, 0);
        assert!(view.uniform_weight.is_none(), "the weighted branch runs");
        let mut cov = [SimTime::ZERO; 3];
        s.coverage_times_into(&view, &[0.5, 0.75, 1.0], &mut cov);
        // 50% covered instantly by the miner itself.
        assert_eq!(cov[0].as_ms(), 0.0);
        // 75% needs node1 (t=10).
        assert_eq!(cov[1].as_ms(), 10.0);
        // 100% needs node2 (t=35).
        assert_eq!(cov[2].as_ms(), 35.0);
    }

    #[test]
    fn unreachable_coverage_is_infinite() {
        let (pop, lat) = line_world(&[0.0, 10.0, 30.0], 5.0);
        let mut topo = Topology::new(3, ConnectionLimits::unlimited());
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        // Node 2 isolated.
        let (view, mut s) = flood(&topo, &lat, &pop, 0);
        let mut cov = [SimTime::ZERO; 2];
        s.coverage_times_into(&view, &[0.9, 0.6], &mut cov);
        assert!(cov[0].is_infinite());
        assert_eq!(cov[1].as_ms(), 10.0);
    }

    #[test]
    fn shortest_path_beats_direct_slow_link() {
        // 0 at x=0, 1 at x=5, 2 at x=9; triangle; with zero validation the
        // direct 0->2 link (9ms) beats the two-hop (5+4=9 plus validation).
        let (pop, lat) = line_world(&[0.0, 5.0, 9.0], 3.0);
        let mut topo = path_topology(3);
        topo.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        let (_, s) = flood(&topo, &lat, &pop, 0);
        assert_eq!(s.arrival(NodeId::new(2)).as_ms(), 9.0);
    }
}
