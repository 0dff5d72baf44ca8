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
//! A view is a *snapshot*: build one per round (or per static evaluation),
//! flood any number of blocks through it, drop it before mutating the
//! topology again. The engine rebuilds its view at the start of every
//! round, which keeps the §2.1 synchronous-round semantics: neighbor sets
//! and latencies are constant within a round by construction.
//!
//! # Determinism
//!
//! A flood is a pure function of the view and the source: adjacency is
//! stored in the ascending-id order [`Topology::neighbors`] yields, cached
//! latencies are the exact `f64`s the latency model returns, and the
//! Dijkstra queue breaks exact-time ties by ascending node id — so
//! arrival, relay and delivery times are the same IEEE-754 values on any
//! thread, through a fresh or a reused [`BroadcastScratch`], and equal to
//! the message-level engine's in [`GossipMode::Flood`](crate::GossipMode).
//!
//! # Bucket quantization and determinism
//!
//! The Dijkstra frontier is a [`PackedQueue`]: either the reference
//! `BinaryHeap` or (by default) the calendar queue of [`crate::pq`],
//! selected per scratch via [`QueueKind`]. The calendar *places* a key by
//! quantizing its time into a sub-millisecond bucket but *orders* by the
//! exact packed key — `(time.to_bits(), node id)`, whose high bits are
//! the untouched IEEE-754 time — sorting each bucket before draining it.
//! Quantized placement is a coarsening of the exact order, so ascending
//! buckets refined by ascending in-bucket keys reproduce the heap's pop
//! sequence key for key: no float is rounded anywhere, ties at the exact
//! same time still break by ascending node id, and every downstream
//! arrival/relay float is bit-identical whichever queue ran (proven by
//! `tests/pq_equivalence.rs` and the pq proptests).

use crate::counters::SimCounters;
use crate::dynamics::WorldDelta;
use crate::error::NetsimError;
use crate::faults::{BlockFaults, FaultLens, NoFaults};
use crate::graph::Topology;
use crate::latency::LatencyModel;
use crate::node::{Behavior, NodeId};
use crate::population::{IdRemap, Population};
use crate::pq::{PackedQueue, QueueKind};
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
///     BroadcastScratch, ConnectionLimits, GeoLatencyModel, NodeId, PopulationBuilder, SimTime,
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
/// let mut scratch = BroadcastScratch::new();
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
    /// the node count, or if the world exceeds the message-level engine's
    /// 2^30 packed-payload cap ([`TopologyView::try_new`] returns the
    /// structured error instead).
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
    /// [`TopologyView::apply_rewiring`] and
    /// [`TopologyView::apply_world_delta`] panic rather than grow a
    /// snapshot past the cap.
    ///
    /// # Errors
    ///
    /// [`NetsimError::WorldTooLarge`] when the cap is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if the topology, latency model and population disagree on
    /// the node count.
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
        if n >= crate::gossip::PACKED_PAYLOAD_CAP
            || edges.len() >= crate::gossip::PACKED_PAYLOAD_CAP
        {
            return Err(NetsimError::WorldTooLarge {
                nodes: n,
                directed_edges: edges.len(),
            });
        }
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
    /// data — the view's cached delays, the gossip delivery matrix, and
    /// the flat observation store built on top of the view.
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

    /// The range of directed-edge indices forming `u`'s CSR row — the
    /// index space of per-edge data such as the gossip engine's delivery
    /// matrix ([`GossipScratch::delivery`](crate::GossipScratch::delivery)).
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
    /// this network size once).
    ///
    /// Behavioural deviations are honoured: [`Behavior::Silent`] nodes
    /// receive but never relay; [`Behavior::Delay`] nodes add their extra
    /// delay before relaying. The miner relays its own block without
    /// validating it; every other node validates (`Δu`) between first
    /// receipt and relaying. See the module docs for the determinism
    /// guarantee.
    pub fn broadcast_into(&self, source: NodeId, scratch: &mut BroadcastScratch) {
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
        scratch: &mut BroadcastScratch,
        faults: Option<&BlockFaults<'_>>,
    ) {
        match faults {
            Some(faults) => self.flood(source, scratch, faults),
            None => self.flood(source, scratch, NoFaults),
        }
    }

    /// The one flood body: a Dijkstra over the announcement legs as the
    /// lens `faults` sees them.
    fn flood<F: FaultLens>(&self, source: NodeId, scratch: &mut BroadcastScratch, faults: F) {
        let n = self.len();
        scratch.source = source;
        scratch.arrival.clear();
        scratch.arrival.resize(n, SimTime::INFINITY);
        scratch.relay_at.clear();
        scratch.relay_at.resize(n, SimTime::INFINITY);
        scratch.queue.clear();

        scratch.arrival[source.index()] = SimTime::ZERO;
        scratch
            .queue
            .push((SimTime::ZERO.as_ms().to_bits(), source.as_u32()));

        while let Some((t_bits, u)) = scratch.queue.pop() {
            scratch.counters.flood_pops += 1;
            let ui = u as usize;
            let t = SimTime::from_ms(f64::from_bits(t_bits));
            // Raw f64 compare: times are never NaN and never -0.0, so
            // this matches SimTime's total order at lower cost.
            if t.as_ms() > scratch.arrival[ui].as_ms() {
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
                if tv.as_ms() < scratch.arrival[vi].as_ms() {
                    scratch.arrival[vi] = tv;
                    scratch.counters.flood_improvements += 1;
                    scratch.queue.push((tv.as_ms().to_bits(), v));
                }
            }
            scratch.counters.queue_peak =
                scratch.counters.queue_peak.max(scratch.queue.len() as u64);
        }
    }

    /// Patches the snapshot to reflect one round of rewiring instead of
    /// rebuilding it from scratch.
    ///
    /// A Perigee round rewires only the dropped/refilled connections —
    /// about `2·n` of the `~14·n` directed edges — yet a fresh
    /// [`TopologyView::new`] pays one latency-model evaluation (a hash
    /// plus a square root for the geographic model) *per directed edge*
    /// and one `BTreeSet` walk plus a `Vec` allocation per node. This
    /// method merges the delta into the CSR arrays in one linear pass:
    /// cached delays of surviving edges are copied verbatim, the latency
    /// model is consulted only for the added edges, and the reverse-edge
    /// map is recomputed index-for-index. Per-node state (relay profiles,
    /// hash power, link rates) is untouched — rewiring never changes it.
    ///
    /// The patched view is **field-for-field equal** to a freshly built
    /// `TopologyView::new` on the rewired topology (asserted by the
    /// `netsim` proptest suite and, in debug builds, by the engine after
    /// every round).
    ///
    /// # Panics
    ///
    /// Panics if the delta is inconsistent with the snapshot: a removed
    /// edge that the view does not hold, an added edge it already holds,
    /// or an endpoint out of range.
    pub fn apply_rewiring<L: LatencyModel + ?Sized>(&mut self, delta: &RoundDelta, latency: &L) {
        if delta.is_empty() {
            return;
        }
        let n = self.len();
        self.merge_rewiring(delta, latency, n);
    }

    /// Patches the snapshot across one round of a *dynamic* world —
    /// node arrivals, departures and the round's edge rewiring in one
    /// incremental pass, extending [`TopologyView::apply_rewiring`] to
    /// worlds whose node set moves.
    ///
    /// `rewiring` must contain every communication edge the round tore
    /// down or created, *including* the torn-down edges of departing
    /// nodes and the bootstrap edges of joiners — exactly what a driver
    /// that logs all disconnect/connect operations already produces.
    /// `population` is the **post-delta** population: new slots grow the
    /// CSR by empty rows before the merge (CSR row insert/delete happens
    /// in the same one linear pass as the edge merge), departed slots
    /// keep an empty row (the stable-id contract — ids are never reused,
    /// so a dead row costs one `offsets` entry and nothing else), and all
    /// per-node attributes (relay profiles, hash power, link rates) are
    /// refreshed from the population because retirements zero hash power
    /// and the renormalization rescales every live node.
    ///
    /// Cost: one linear merge over the CSR arrays plus an `O(n)`
    /// attribute copy — latency-model calls **only** for the added edges
    /// (which include every new node's bootstrap links). The patched view
    /// is field-for-field equal to `TopologyView::new` on the post-delta
    /// world (asserted by the netsim proptests and, in debug builds, by
    /// the engine after every churny round).
    ///
    /// # Panics
    ///
    /// Panics if the population shrank (ids are stable, worlds only grow
    /// in slot count), if the latency model does not cover the grown
    /// population, or if `rewiring` is inconsistent with the snapshot
    /// (see [`TopologyView::apply_rewiring`]).
    pub fn apply_world_delta<L: LatencyModel + ?Sized>(
        &mut self,
        delta: &WorldDelta,
        rewiring: &RoundDelta,
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
        self.merge_rewiring(rewiring, latency, n_new);
        self.refresh_node_attributes(population);
        #[cfg(debug_assertions)]
        for v in delta.retired() {
            debug_assert!(
                self.edge_range(v).is_empty(),
                "departed node {v} still holds edges — the rewiring log missed its teardown"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = delta;
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
    /// is not the compacted (post-plan) population, or if a dead slot
    /// still holds edges.
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

    /// The shared one-pass CSR merge behind [`TopologyView::apply_rewiring`]
    /// and [`TopologyView::apply_world_delta`]: rows `>= self.len()` are
    /// treated as (new, empty) rows, so growing the world and patching its
    /// edges is a single linear sweep.
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
        assert!(
            n_new < crate::gossip::PACKED_PAYLOAD_CAP && m_new < crate::gossip::PACKED_PAYLOAD_CAP,
            "{}",
            NetsimError::WorldTooLarge {
                nodes: n_new,
                directed_edges: m_new,
            }
        );
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

    /// Recomputes the reverse-edge map from the CSR arrays — integer work
    /// only, no float math. Every construction and patch path ends here,
    /// so patched and freshly built views can only agree or both be
    /// wrong.
    fn rebuild_reverse(&mut self) {
        self.reverse.clear();
        self.reverse.resize(self.edges.len(), 0);
        for u in 0..self.len() {
            for e in self.offsets[u]..self.offsets[u + 1] {
                let v = self.edges[e] as usize;
                let row = &self.edges[self.offsets[v]..self.offsets[v + 1]];
                let k = row
                    .binary_search(&(u as u32))
                    .expect("communication graph is symmetric");
                self.reverse[e] = (self.offsets[v] + k) as u32;
            }
        }
    }

    /// Installs the per-node attributes of `population` — relay profiles,
    /// hash power, link rates — shared verbatim by construction and every
    /// path that moves the node set.
    fn refresh_node_attributes(&mut self, population: &Population) {
        self.relay = population
            .iter()
            .map(|p| match p.behavior {
                Behavior::Honest => RelayProfile::Honest {
                    validation: p.validation_delay,
                },
                Behavior::Silent => RelayProfile::Silent,
                Behavior::Delay(extra) => RelayProfile::Delayed {
                    validation: p.validation_delay,
                    extra,
                },
            })
            .collect();
        self.hash_power = population.iter().map(|p| p.hash_power).collect();
        self.uniform_weight = match self.hash_power.split_first() {
            Some((&w, rest)) if rest.iter().all(|&x| x == w) => Some(w),
            _ => None,
        };
        self.uplink_mbps = population.iter().map(|p| p.uplink_mbps).collect();
        self.downlink_mbps = population.iter().map(|p| p.downlink_mbps).collect();
    }
}

/// The net change one round of rewiring makes to the undirected
/// communication graph: which edges disappeared and which appeared.
///
/// Built by [`RoundDelta::new`] from the raw removal/addition logs of a
/// rewiring phase; pairs are normalized (`u < v`), deduplicated, and an
/// edge that was removed and then re-added within the same round cancels
/// out entirely (its cached latency is still valid). Consumed by
/// [`TopologyView::apply_rewiring`].
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

/// Reusable flood state: arrival/relay buffers, the Dijkstra frontier
/// queue and the coverage sort buffer.
///
/// Create once per worker thread and reuse across blocks; after the first
/// flood of a given network size, subsequent floods perform no heap
/// allocation. The frontier is a [`PackedQueue`] — the calendar queue by
/// default, the reference `BinaryHeap` on request
/// ([`BroadcastScratch::with_queue`]); pop order, and therefore every
/// output float, is bit-identical either way (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct BroadcastScratch {
    source: NodeId,
    arrival: Vec<SimTime>,
    relay_at: Vec<SimTime>,
    /// Keys are `(t.to_bits(), node)`: simulated times are non-negative,
    /// where the IEEE-754 bit pattern is monotone in the value, so integer
    /// ordering reproduces `SimTime`'s total order exactly at lower
    /// compare cost, with exact-time ties broken by ascending node id.
    queue: PackedQueue<(u64, u32)>,
    coverage: Vec<(SimTime, f64)>,
    select: Vec<SimTime>,
    /// Hot-path event tallies, accumulated across floods until harvested
    /// with [`BroadcastScratch::take_counters`]. Write-only from the
    /// simulation's point of view (see [`crate::counters`]).
    counters: SimCounters,
}

impl BroadcastScratch {
    /// Creates an empty scratch (buffers grow on first use) on the
    /// default queue kind.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty scratch running on the given queue kind.
    pub fn with_queue(kind: QueueKind) -> Self {
        BroadcastScratch {
            queue: PackedQueue::with_kind(kind),
            ..Self::default()
        }
    }

    /// Creates a scratch pre-sized for `n` nodes on the default queue
    /// kind.
    pub fn with_capacity(n: usize) -> Self {
        Self::with_capacity_and_queue(n, QueueKind::default())
    }

    /// Creates a scratch pre-sized for `n` nodes on the given queue kind.
    pub fn with_capacity_and_queue(n: usize, kind: QueueKind) -> Self {
        BroadcastScratch {
            source: NodeId::new(0),
            arrival: Vec::with_capacity(n),
            relay_at: Vec::with_capacity(n),
            queue: PackedQueue::with_kind_and_capacity(kind, n),
            coverage: Vec::with_capacity(n),
            select: Vec::with_capacity(n),
            counters: SimCounters::ZERO,
        }
    }

    /// The hot-path tallies accumulated since the last
    /// [`BroadcastScratch::take_counters`].
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// Harvests and zeroes the accumulated tallies (telemetry merge
    /// point).
    pub fn take_counters(&mut self) -> SimCounters {
        std::mem::take(&mut self.counters)
    }

    /// Which priority-queue implementation this scratch floods on.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// The source of the last flood.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// First-arrival time of the last flood at `v`.
    #[inline]
    pub fn arrival(&self, v: NodeId) -> SimTime {
        self.arrival[v.index()]
    }

    /// All first-arrival times of the last flood, indexed by node.
    #[inline]
    pub fn arrivals(&self) -> &[SimTime] {
        &self.arrival
    }

    /// When `u` began relaying in the last flood (`INFINITY` for silent or
    /// unreached nodes).
    #[inline]
    pub fn relay_start(&self, u: NodeId) -> SimTime {
        self.relay_at[u.index()]
    }

    /// All relay-start times of the last flood, indexed by node.
    #[inline]
    pub fn relay_starts(&self) -> &[SimTime] {
        &self.relay_at
    }

    /// Number of nodes the last flood reached.
    pub fn reached(&self) -> usize {
        self.arrival.iter().filter(|t| t.is_finite()).count()
    }

    /// Computes λ(fraction) of the last flood for every entry of
    /// `fractions` in one pass over a reusable sorted buffer, writing into
    /// `out` (`out.len()` must equal `fractions.len()`).
    ///
    /// Bit-identical to the sort-and-scan definition,
    /// [`reference::coverage_times`](crate::reference::coverage_times),
    /// without its per-call allocation, and without any sort when hash
    /// power is uniform.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `fractions` have different lengths.
    pub fn coverage_times_into(
        &mut self,
        view: &TopologyView,
        fractions: &[f64],
        out: &mut [SimTime],
    ) {
        coverage_times_from_arrivals(
            view,
            &self.arrival,
            fractions,
            out,
            &mut self.coverage,
            &mut self.select,
        );
    }
}

/// Validates a coverage fraction under the shared contract of every
/// `coverage_time`/`coverage_times`/`coverage_times_into` entry point:
/// `NaN` is a programming error and panics; any other out-of-range value
/// clamps into `[0, 1]` (so `-0.3` asks for the first arrival and `1.7`
/// for full coverage) instead of silently scanning past the cumulative
/// weight and returning garbage.
#[inline]
pub(crate) fn clamp_fraction(fraction: f64) -> f64 {
    assert!(!fraction.is_nan(), "coverage fraction must not be NaN");
    fraction.clamp(0.0, 1.0)
}

/// Computes λ(fraction) for every entry of `fractions` from one arrival
/// vector, reusing the caller's sort/selection buffers — the shared
/// implementation behind [`BroadcastScratch::coverage_times_into`] and
/// [`GossipScratch::coverage_times_into`](crate::GossipScratch::coverage_times_into).
/// Fractions go through [`clamp_fraction`] (NaN panics, out-of-range
/// clamps).
pub(crate) fn coverage_times_from_arrivals(
    view: &TopologyView,
    arrival: &[SimTime],
    fractions: &[f64],
    out: &mut [SimTime],
    coverage: &mut Vec<(SimTime, f64)>,
    select: &mut Vec<SimTime>,
) {
    assert_eq!(fractions.len(), out.len(), "one output slot per fraction");
    if let Some(w) = view.uniform_weight {
        // Uniform hash power: the crossing index of the cumulative
        // weight scan is independent of arrival order, so λ(f) is the
        // k-th smallest arrival — an O(n) selection, no sort. The
        // accumulation below replays the scan's float additions
        // exactly, keeping the result bit-identical to the weighted
        // path.
        select.clear();
        select.extend_from_slice(arrival);
        for (slot, &fraction) in out.iter_mut().zip(fractions) {
            let fraction = clamp_fraction(fraction);
            let mut acc = 0.0;
            let mut k = 0usize;
            for _ in 0..select.len() {
                acc += w;
                k += 1;
                if acc >= fraction - 1e-12 {
                    break;
                }
            }
            *slot = if k > 0 && acc >= fraction - 1e-12 {
                *select.select_nth_unstable(k - 1).1
            } else {
                SimTime::INFINITY
            };
        }
        return;
    }
    coverage.clear();
    coverage.extend(arrival.iter().zip(&view.hash_power).map(|(&t, &w)| (t, w)));
    coverage.sort_unstable_by_key(|&(t, _)| t);
    for (slot, &fraction) in out.iter_mut().zip(fractions) {
        *slot = coverage_scan(coverage, fraction);
    }
}

/// Scans weighted arrivals (sorted ascending by time) for the first time
/// at which the cumulative weight reaches `fraction`. The fraction goes
/// through [`clamp_fraction`] (NaN panics, out-of-range clamps).
fn coverage_scan(sorted: &[(SimTime, f64)], fraction: f64) -> SimTime {
    let fraction = clamp_fraction(fraction);
    let mut acc = 0.0;
    for &(t, w) in sorted {
        acc += w;
        if acc >= fraction - 1e-12 {
            return t;
        }
    }
    SimTime::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::GossipConfig;
    use crate::graph::ConnectionLimits;
    use crate::latency::{GeoLatencyModel, MetricLatencyModel};
    use crate::node::NodeProfile;
    use crate::population::{HashPowerDist, PopulationBuilder};
    use crate::{reference, LatencyModel};
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

    /// Both branches of the production λ(f) — the selection under
    /// uniform hash power and the sort-and-scan otherwise — against the
    /// reference definition.
    #[test]
    fn scratch_coverage_matches_reference_coverage() {
        for (dist, uniform) in [
            (HashPowerDist::Uniform, true),
            (HashPowerDist::Exponential, false),
        ] {
            let (pop, lat, topo, _) = random_world_with(100, 9, dist.clone());
            let view = TopologyView::new(&topo, &lat, &pop);
            assert_eq!(view.uniform_weight.is_some(), uniform, "{dist:?}");
            let mut scratch = BroadcastScratch::new();
            for src in [4u32, 57] {
                view.broadcast_into(NodeId::new(src), &mut scratch);
                let fractions = [0.0, 0.5, 0.9, 1.0];
                let mut cov = [SimTime::ZERO; 4];
                scratch.coverage_times_into(&view, &fractions, &mut cov);
                let expected = reference::coverage_times(scratch.arrivals(), &pop, &fractions);
                assert_eq!(cov.as_slice(), expected.as_slice(), "{dist:?} source {src}");
            }
        }
    }

    #[test]
    fn behaviors_are_honoured_through_the_view() {
        let (mut pop, lat, topo, _) = random_world(40, 5);
        pop.profile_mut(NodeId::new(3)).behavior = Behavior::Silent;
        pop.profile_mut(NodeId::new(7)).behavior = Behavior::Delay(SimTime::from_ms(250.0));
        let view = TopologyView::new(&topo, &lat, &pop);
        let (expected, _) =
            reference::gossip_block(&topo, &lat, &pop, NodeId::new(0), &GossipConfig::flood());
        let mut scratch = BroadcastScratch::new();
        view.broadcast_into(NodeId::new(0), &mut scratch);
        assert_eq!(scratch.arrivals(), expected.as_slice());
        assert!(scratch.relay_start(NodeId::new(3)).is_infinite());
    }

    #[test]
    fn scratch_reuse_across_network_sizes() {
        let mut scratch = BroadcastScratch::new();
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
            view.apply_rewiring(&RoundDelta::new(removed, added), &lat);
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
            let delta = crate::dynamics::WorldDelta {
                joined: vec![id],
                departed: vec![depart],
            };
            view.apply_world_delta(&delta, &RoundDelta::new(removed, added), &lat, &pop);
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
        view.apply_rewiring(&RoundDelta::default(), &lat);
        assert_eq!(view, before);
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
        view.apply_rewiring(&RoundDelta::new(vec![(a, b)], Vec::new()), &lat);
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
            view.apply_rewiring(&RoundDelta::new(severed, Vec::new()), &lat);
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
        let mut scratch = BroadcastScratch::new();
        view.broadcast_into(src, &mut scratch);
        let mut expected = BroadcastScratch::new();
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
    ) -> (TopologyView, BroadcastScratch) {
        let view = TopologyView::new(topo, lat, pop);
        let mut scratch = BroadcastScratch::new();
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
