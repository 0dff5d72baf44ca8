//! Message-level gossip engine, and the one propagation scratch.
//!
//! The analytic engine, [`TopologyView::broadcast_into`], computes arrival
//! times under the paper's §2 model. This module simulates the same
//! flood at the *message* level: either direct block pushes
//! ([`GossipMode::Flood`]), or Bitcoin's three-leg `INV → GETDATA → BLOCK`
//! exchange ([`GossipMode::InvGetData`], §1.1.2), or the push/pull hybrid,
//! with optional per-transfer bandwidth delay.
//!
//! Flooding a zero-size block is the §2 model itself, and this engine
//! then agrees exactly with the analytic one — arrivals, relay starts,
//! coverage and per-neighbour deliveries, under link faults too. Engines
//! rely on that equality: for a config where [`GossipConfig::is_analytic`]
//! holds they run the cheaper analytic flood (the proptests and the core
//! determinism suite pin it).
//!
//! # One scratch, two kernels
//!
//! Both kernels run on one reusable [`GossipScratch`] and leave the same
//! state in it: the last message's config and its per-node first
//! arrivals and relay (announce) times. The analytic flood
//! ([`TopologyView::broadcast_into`]) is a Dijkstra over first arrivals;
//! the message-level pass below is a label-setting kernel over
//! have-times. Both queue the same settle keys, `(time.to_bits(), node)`
//! packed into one `u128`, on the scratch's [`CalendarQueue`].
//! [`BroadcastScratch`](crate::BroadcastScratch) is only a constructor
//! shim over this scratch, kept for roundbench's replay.
//!
//! Every message-level entry point runs the same per-message pass:
//! [`TopologyView::gossip_batch_into`] over a batch of messages,
//! [`TopologyView::gossip_into`] / [`TopologyView::gossip_into_faulted`]
//! over a batch of one. A run is a deterministic function of the view
//! and the message, so a batch message equal to its predecessor is not
//! simulated again: the scratch still holds that run, unless something
//! else has run on the scratch since. The pass is generic over a
//! crate-private link-fault lens, so the fault-free instance compiles to
//! the plain code and the faulted one reads the same code. Every fan-out
//! policy is a push prefix of the announcer's CSR row followed by INVs:
//! flooding pushes every leg, INV/GETDATA none, push/pull its first
//! `push_degree`.
//!
//! **Rows from relay times.** A node announces once, at `relay(u)`: its
//! have-time plus validation, or `∞` for a silent node, a withholding
//! miner or a node the message never reached. So what `v` hears from its
//! neighbour `u` is fixed the moment `u` announces: `relay(u) + δ(u,v)`,
//! plus the transfer `u → v` when `u` pushes the whole message to `v`,
//! and `∞` when the fault lens drops that announce leg. That rule is
//! written once, for both kernels' messages, and applied when a row is
//! read, so no per-edge state is kept: [`GossipScratch::write_rows`]
//! hands every row of a message to a [`RowSink`], with the lens and the
//! push shape picked once per message.
//!
//! **The kernel.** `have(v)` is a minimum: of the earliest push arrival,
//! and of the block pulled from the announcer of `v`'s earliest INV, whose
//! GETDATA and BLOCK legs are reliable. One Dijkstra-like pass therefore
//! computes the whole message. Nodes settle in have-time order, keyed
//! like the analytic flood's arrivals. A settling node records its
//! arrival and relay time and offers each neighbour a push or an INV. An
//! earlier INV can come from an announcer with a slower round trip, so a
//! node's key can *rise*: queue entries are lazy, and a pop is skipped
//! when its node has settled or its time is no longer the node's key.
//! Every key pushed is ≥ the pop that produced it, so the calendar
//! queue's monotone contract holds. A message
//! costs an O(n) reset, about one pop per node and one relaxation per
//! directed edge.
//!
//! **The tie rule.** Only one choice of the event loop depends on order
//! alone. When two INVs reach a node at the same float time, it requests
//! from the one with the lower insertion sequence, and the kernel keeps no
//! sequence numbers. So the kernel detects that tie: two equal-time INVs
//! whose pulled blocks would land at different times, either of them
//! before the node's best push. It also counts when the later INV reaches
//! a node already settled by an INV, which is possible only over
//! zero-latency legs. On a tie the message goes back to the event loop,
//! which recomputes it from a fresh reset. The kernel pass's tallies are
//! dropped, so a fallback leaves the event loop's tallies plus one
//! [`SimCounters::gossip_fallbacks`]. Continuous latencies practically
//! never tie; integer-valued ones (metric grids, co-located pairs) do.
//!
//! **The event loop** stays private, as the one exact path for tied
//! inputs. Its events are single packed `u128` words (time bits ·
//! insertion sequence · kind · CSR edge index — no boxed events, no
//! per-event allocation) in the same reusable queue. A node announces at
//! most once, so events that can no longer have any effect — an INV to a
//! node that already requested, a flood BLOCK to a node that already
//! holds it — never enter the queue at all, only consuming their
//! insertion-sequence number so every later tie-break stays exact. After
//! the first message of a given network size, simulating further messages
//! performs no heap allocation, except that the first fallbacks size the
//! GETDATA flags and grow the queue to the event loop's size.
//!
//! Both paths are bit-identical to the seed's event-queue engine, kept as
//! the oracle `gossip_block` of the dev-only `perigee-oracle` crate: the
//! same arrivals and the same per-neighbour delivery logs
//! (`tests/gossip_legacy.rs` on continuous latencies, `tests/gossip_ties.rs`
//! on an exact-tie grid where the fallback runs).

use crate::bandwidth::TransferModel;
use crate::counters::SimCounters;
use crate::error::NetsimError;
use crate::faults::{BlockFaults, FaultLens, NoFaults};
use crate::node::NodeId;
use crate::pq::{key_time, CalendarQueue, QueueKind};
use crate::time::SimTime;
use crate::view::TopologyView;

/// Packed events carry a 30-bit payload (a directed CSR edge index or a
/// node id), so the message-level engine supports worlds with fewer than
/// `2^30` nodes *and* fewer than `2^30` directed edges. The cap is
/// enforced with checked errors at construction time —
/// [`TopologyView::try_new`](crate::TopologyView::try_new) and
/// [`GossipScratch::try_with_capacity`] return
/// [`NetsimError::WorldTooLarge`](crate::NetsimError) — and re-asserted
/// (release builds included) when a view grows and at the top of every
/// simulation entry point, so an oversized world can never silently
/// corrupt packed `u128` event words. All four sites share one check.
pub const PACKED_PAYLOAD_CAP: usize = 1 << 30;

/// The one packed-payload cap check: a world of `nodes` nodes and
/// `directed_edges` CSR entries fits the packed event words iff both
/// stay below [`PACKED_PAYLOAD_CAP`].
pub(crate) fn check_payload_cap(nodes: usize, directed_edges: usize) -> Result<(), NetsimError> {
    if nodes < PACKED_PAYLOAD_CAP && directed_edges < PACKED_PAYLOAD_CAP {
        Ok(())
    } else {
        Err(NetsimError::WorldTooLarge {
            nodes,
            directed_edges,
        })
    }
}

/// How blocks move between peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GossipMode {
    /// Validated blocks are pushed whole to every neighbor; one leg costs
    /// `δ(u,v)`. Equivalent to the analytic engine.
    #[default]
    Flood,
    /// Bitcoin-style announce/request/deliver. Each leg costs one link
    /// latency `δ(u,v)`, so a full delivery costs `3 · δ(u,v)` plus the
    /// transfer time; a node requests the block from the first announcer
    /// only.
    InvGetData,
    /// Push/pull hybrid (Ethereum's `sqrt(peers)` transaction relay, see
    /// the Ethna measurement study): each announcer pushes the full
    /// message to its first `push_degree` neighbors in CSR row order
    /// (one leg plus transfer, like [`GossipMode::Flood`]) and sends a
    /// plain INV to the rest, who pull via GETDATA exactly as in
    /// [`GossipMode::InvGetData`]. `push_degree = 0` degenerates to pure
    /// INV; `push_degree ≥ max degree` degenerates to flooding (with the
    /// INV bookkeeping retained for already-pushed nodes).
    PushPull {
        /// Number of leading CSR-row neighbors that receive full pushes.
        push_degree: u32,
    },
}

/// Configuration of the message-level engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GossipConfig {
    /// Message exchange pattern.
    pub mode: GossipMode,
    /// Block transfer (bandwidth) model; negligible by default.
    pub transfer: TransferModel,
}

impl GossipConfig {
    /// Flooding with negligible transfer time (matches the fast engine).
    pub fn flood() -> Self {
        GossipConfig {
            mode: GossipMode::Flood,
            transfer: TransferModel::negligible(),
        }
    }

    /// Bitcoin-style INV/GETDATA with the given block size in MB.
    pub fn inv_getdata(block_size_mb: f64) -> Self {
        GossipConfig {
            mode: GossipMode::InvGetData,
            transfer: TransferModel::new(block_size_mb),
        }
    }

    /// Push/pull hybrid: full pushes to the first `push_degree` CSR-row
    /// neighbors, INV/GETDATA to the rest, with the given message size in
    /// MB.
    pub fn push_pull(message_size_mb: f64, push_degree: u32) -> Self {
        GossipConfig {
            mode: GossipMode::PushPull { push_degree },
            transfer: TransferModel::new(message_size_mb),
        }
    }

    /// Whether this config is the §2 flood model itself — flooding with a
    /// zero block size — whose arrivals, relay times, coverage and
    /// per-neighbour deliveries the analytic flood
    /// ([`TopologyView::broadcast_into`], faulted or not) computes bit for
    /// bit. An engine runs that cheaper kernel
    /// exactly when this holds.
    pub fn is_analytic(&self) -> bool {
        self.mode == GossipMode::Flood && self.transfer.block_size_mb() == 0.0
    }
}

mod config_codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::{GossipConfig, GossipMode};

    impl Encode for GossipMode {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                GossipMode::Flood => 0u8.encode(out),
                GossipMode::InvGetData => 1u8.encode(out),
                GossipMode::PushPull { push_degree } => {
                    2u8.encode(out);
                    push_degree.encode(out);
                }
            }
        }
    }

    impl Decode for GossipMode {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(GossipMode::Flood),
                1 => Ok(GossipMode::InvGetData),
                2 => Ok(GossipMode::PushPull {
                    push_degree: Decode::decode(r)?,
                }),
                _ => Err(DecodeError::new("unknown gossip mode tag")),
            }
        }
    }

    impl Encode for GossipConfig {
        fn encode(&self, out: &mut Vec<u8>) {
            self.mode.encode(out);
            self.transfer.encode(out);
        }
    }

    impl Decode for GossipConfig {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(GossipConfig {
                mode: Decode::decode(r)?,
                transfer: Decode::decode(r)?,
            })
        }
    }
}

/// Event kinds of the pooled message-level engine. The discriminants are
/// the 2-bit kind field of the packed event word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A neighbor announces the block (INV mode only).
    Inv = 0,
    /// An announcer is asked for the block (INV mode only).
    GetData = 1,
    /// The full block lands.
    Block = 2,
    /// A node finished validating and starts announcing.
    Announce = 3,
}

/// Events are single `u128` words — no event pool lookup at all:
///
/// ```text
/// bits 127..64   event time as f64 bits (non-negative ⇒ bit order = value order)
/// bits  63..32   insertion sequence (the seed engine's tie-break)
/// bits  31..30   EventKind
/// bits  29..0    payload: a directed CSR edge index, or a node id
/// ```
///
/// Integer order on the whole word is therefore exactly "by time, ties by
/// insertion sequence" (the sequence is unique, so the low bits never
/// decide), which is the pop order of the seed engine, the oracle
/// `perigee_oracle::gossip_block`. The 30-bit payload caps supported snapshots at
/// [`PACKED_PAYLOAD_CAP`] nodes/directed edges — an 8 GB+ view, far
/// beyond simulation scale. The cap is *guaranteed* before any event is
/// packed: view and scratch construction return
/// [`NetsimError::WorldTooLarge`](crate::NetsimError) for oversized
/// worlds and every simulation entry point re-asserts it in release
/// builds, so the per-event check here stays a debug assertion.
#[inline]
fn pack_event(time: SimTime, seq: u32, kind: EventKind, payload: u32) -> u128 {
    debug_assert!(
        (payload as usize) < PACKED_PAYLOAD_CAP,
        "payload exceeds 30 bits"
    );
    ((time.as_ms().to_bits() as u128) << 64)
        | ((seq as u128) << 32)
        | ((kind as u128) << 30)
        | payload as u128
}

#[inline]
pub(crate) fn event_time(word: u128) -> SimTime {
    SimTime::from_ms(key_time(word))
}

#[inline]
fn event_kind(word: u128) -> u32 {
    (word as u32) >> 30
}

#[inline]
fn event_payload(word: u128) -> usize {
    (word as u32 & 0x3FFF_FFFF) as usize
}

/// The settle key both kernels queue: the time bits over the node id, so
/// integer order is "by time, ties by ascending node id". The analytic
/// flood keys first arrivals by it, the label-setting kernel have-times.
#[inline]
pub(crate) fn pack_settle(time: SimTime, node: u32) -> u128 {
    ((time.as_ms().to_bits() as u128) << 64) | node as u128
}

/// A node's tentative labels in the label-setting kernel, for the current
/// message.
#[derive(Debug, Clone, Copy)]
struct Label {
    /// The earliest push arrival offered so far.
    push: SimTime,
    /// The earliest INV arrival so far.
    inv: SimTime,
    /// When the block requested from that INV's announcer would land.
    pull: SimTime,
}

impl Label {
    const UNSET: Label = Label {
        push: SimTime::INFINITY,
        inv: SimTime::INFINITY,
        pull: SimTime::INFINITY,
    };

    /// The node's have-time if it settled now. Raw `f64` compares, like
    /// the analytic flood: times are never NaN and never `-0.0`.
    #[inline]
    fn key(&self) -> SimTime {
        if self.push.as_ms() <= self.pull.as_ms() {
            self.push
        } else {
            self.pull
        }
    }
}

/// The length of the push prefix of every announcer's row under `mode`.
#[inline]
fn push_degree(mode: GossipMode) -> u32 {
    match mode {
        GossipMode::Flood => u32::MAX,
        GossipMode::InvGetData => 0,
        GossipMode::PushPull { push_degree } => push_degree,
    }
}

/// Receives the delivery rows [`GossipScratch::write_rows`] derives, one
/// node at a time, in node order.
pub trait RowSink {
    /// Takes node `v`'s row: one delivery time per entry of
    /// [`TopologyView::neighbors_raw`]`(v)`, in that order.
    fn row<I: ExactSizeIterator<Item = SimTime>>(&mut self, v: NodeId, deliveries: I);
}

/// The one propagation scratch: the packed queue, and what the last
/// message leaves behind — its per-node first arrivals and relay times,
/// and its config, from which every delivery row follows (see the module
/// docs) — plus the label-setting kernel's labels and the event loop's
/// GETDATA flags. Both kernels run on it: the analytic flood
/// ([`TopologyView::broadcast_into`]) and the message-level pass
/// ([`TopologyView::gossip_into`]).
///
/// Create once per worker thread and reuse across messages; after the
/// first message of a given network size, subsequent messages perform no
/// heap allocation (bar a fallback growing the queue, see the module
/// docs). Inside a [`TopologyView::gossip_batch_into`] visit every
/// accessor reads the message being visited.
#[derive(Debug, Clone, Default)]
pub struct GossipScratch {
    source: NodeId,
    /// The last message's fan-out policy and transfer model.
    config: GossipConfig,
    /// Min-queue of packed `u128` words. Both kernels queue settle keys (see
    /// [`pack_settle`]); the event loop queues events (see
    /// [`pack_event`]). On the event loop only events with a possible
    /// side effect are ever pushed; provably-inert ones (an INV to a node
    /// that has already requested, a flood BLOCK to a node that already
    /// holds it) only consume a sequence number, so the pop order of the
    /// rest replays the legacy queue exactly.
    pub(crate) queue: CalendarQueue,
    /// Next insertion sequence of the event loop (reset per message).
    /// Counts every event the legacy engine would have scheduled, pushed
    /// or not.
    seq: u32,
    /// Per-node "already sent a GETDATA" flags of the event loop, cleared
    /// when a fallback starts.
    pulled: Vec<bool>,
    /// Per-node kernel labels, sized by the first message-level pass: a
    /// scratch that only floods never allocates them.
    labels: Vec<Label>,
    /// Per-node first arrivals; a node holds the message iff its entry is
    /// finite.
    pub(crate) first_arrival: Vec<SimTime>,
    /// Per-node announce times, `INFINITY` for a node that never
    /// announced.
    pub(crate) relay_at: Vec<SimTime>,
    coverage: Vec<(SimTime, f64)>,
    select: Vec<SimTime>,
    /// Hot-path event tallies, accumulated across messages until harvested
    /// with [`GossipScratch::take_counters`]. Write-only from the
    /// simulation's point of view (see [`crate::counters`]).
    pub(crate) counters: SimCounters,
    /// The run stamp: bumped by every [`GossipScratch::begin`], so a batch
    /// can tell that nothing has run on the scratch since its last message.
    run: u64,
}

impl GossipScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for `nodes` nodes; `directed_edges`
    /// (see [`TopologyView::directed_edge_count`]) is checked against the
    /// packed-payload cap.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `directed_edges` reaches
    /// [`PACKED_PAYLOAD_CAP`]; use [`GossipScratch::try_with_capacity`]
    /// for a checked error.
    pub fn with_capacity(nodes: usize, directed_edges: usize) -> Self {
        match Self::try_with_capacity(nodes, directed_edges) {
            Ok(scratch) => scratch,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`GossipScratch::with_capacity`] under its former name, whose
    /// [`QueueKind`] has one value. Kept only because roundbench's replay
    /// calls it.
    ///
    /// # Panics
    ///
    /// As [`GossipScratch::with_capacity`].
    pub fn with_capacity_and_queue(nodes: usize, directed_edges: usize, _: QueueKind) -> Self {
        Self::with_capacity(nodes, directed_edges)
    }

    /// Checked [`GossipScratch::with_capacity`]: returns
    /// [`NetsimError::WorldTooLarge`] instead of panicking when the
    /// requested world reaches the [`PACKED_PAYLOAD_CAP`] packed-event
    /// payload cap.
    pub fn try_with_capacity(nodes: usize, directed_edges: usize) -> Result<Self, NetsimError> {
        check_payload_cap(nodes, directed_edges)?;
        Ok(GossipScratch {
            first_arrival: Vec::with_capacity(nodes),
            relay_at: Vec::with_capacity(nodes),
            coverage: Vec::with_capacity(nodes),
            select: Vec::with_capacity(nodes),
            ..Self::default()
        })
    }

    /// The hot-path tallies accumulated since the last
    /// [`GossipScratch::take_counters`].
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// Harvests and zeroes the accumulated tallies (telemetry merge
    /// point).
    pub fn take_counters(&mut self) -> SimCounters {
        std::mem::take(&mut self.counters)
    }

    /// The source of the last simulated message.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The last message's config: [`GossipConfig::flood`] after an
    /// analytic flood.
    #[inline]
    pub fn config(&self) -> GossipConfig {
        self.config
    }

    /// First (full-message) arrival time of the last message at `v`.
    #[inline]
    pub fn arrival(&self, v: NodeId) -> SimTime {
        self.first_arrival[v.index()]
    }

    /// All first-arrival times of the last message, indexed by node.
    #[inline]
    pub fn arrivals(&self) -> &[SimTime] {
        &self.first_arrival
    }

    /// Number of nodes the last message reached.
    pub fn reached(&self) -> usize {
        self.first_arrival.iter().filter(|t| t.is_finite()).count()
    }

    /// When `u` announced (relayed) the last message to its neighbours
    /// (`INFINITY` if it never did: unreached, silent, or a withholding
    /// miner).
    #[inline]
    pub fn relay_start(&self, u: NodeId) -> SimTime {
        self.relay_at[u.index()]
    }

    /// All announce times of the last message, indexed by node.
    #[inline]
    pub fn relay_starts(&self) -> &[SimTime] {
        &self.relay_at
    }

    /// Hands every node's delivery row of the last message to `sink`, in
    /// node order — the zero-copy equivalent of the seed engine's
    /// per-node delivery logs. Row `v` is aligned with
    /// [`TopologyView::neighbors_raw`]: entry `e` is `relay(u) + δ(u,v)`
    /// for the neighbour `u = edges[e]`, plus the transfer `u → v` when
    /// `v` lies in `u`'s push prefix (see the module docs), and
    /// `INFINITY` for a neighbour that never delivered. It reads the
    /// view's cached `δ(v,u)`, which the [`LatencyModel`] contract makes
    /// equal to `δ(u,v)`, so `view` must be the view the message ran on.
    ///
    /// Pass the `faults` a message ran under
    /// ([`TopologyView::gossip_into_faulted`] or
    /// [`TopologyView::broadcast_into_faulted`]), `None` after a
    /// fault-free run: the announcement over `v`'s row entry `e` crossed
    /// the opposite directed edge `reverse[e]`, so the same lens replays
    /// that leg, and a dropped or down-link announcement reads
    /// `INFINITY`. The lens and the push shape are picked once for the
    /// message rather than tested per entry.
    ///
    /// [`LatencyModel`]: crate::LatencyModel
    pub fn write_rows<S: RowSink>(
        &self,
        view: &TopologyView,
        faults: Option<&BlockFaults<'_>>,
        sink: &mut S,
    ) {
        match faults {
            Some(faults) => self.rows_through(view, faults, sink),
            None => self.rows_through(view, NoFaults, sink),
        }
    }

    /// [`GossipScratch::write_rows`] under one lens: a message whose rows
    /// carry no transfer skips the push test.
    fn rows_through<L: FaultLens, S: RowSink>(&self, view: &TopologyView, lens: L, sink: &mut S) {
        let nodes = (0..view.len() as u32).map(NodeId::new);
        if self.push_prefix() == 0 {
            nodes.for_each(|v| sink.row(v, self.row::<L, false>(view, v.index(), lens)));
        } else {
            nodes.for_each(|v| sink.row(v, self.row::<L, true>(view, v.index(), lens)));
        }
    }

    /// How many leading entries of each announcer's row carried the whole
    /// message, hence a transfer: none for a zero-size message, since
    /// adding a zero transfer is a bitwise no-op on non-negative times.
    #[inline]
    fn push_prefix(&self) -> u32 {
        if self.config.transfer.block_size_mb() == 0.0 {
            0
        } else {
            push_degree(self.config.mode)
        }
    }

    /// The one row rule (see the module docs): `v`'s row, the announce
    /// leg over each entry replayed through `lens`, plus the transfer
    /// when `PUSH` and the announcer pushed. The float order is the
    /// kernels': `(relay + leg) + transfer`.
    #[inline]
    fn row<'a, L: FaultLens + 'a, const PUSH: bool>(
        &'a self,
        view: &'a TopologyView,
        v: usize,
        lens: L,
    ) -> impl ExactSizeIterator<Item = SimTime> + Clone + 'a {
        let (start, end) = (view.offsets[v], view.offsets[v + 1]);
        let degree = self.push_prefix();
        let entries = view.edges[start..end]
            .iter()
            .zip(&view.delay[start..end])
            .zip(&view.reverse[start..end]);
        entries.map(move |((&u, &own), &rev)| {
            let (u, rev) = (u as usize, rev as usize);
            let Some(leg) = lens.replay(&view.delay, rev, own) else {
                return SimTime::INFINITY;
            };
            let t = self.relay_at[u] + leg;
            // `v`'s place in `u`'s row decides whether `u` pushed.
            if PUSH && ((rev - view.offsets[u]) as u32) < degree {
                t + view.edge_transfer(&self.config, u, v)
            } else {
                t
            }
        })
    }

    /// Computes λ(fraction) of the last message for every entry of
    /// `fractions` in one pass over a reusable sorted buffer, writing into
    /// `out` (`out.len()` must equal `fractions.len()`). Bit-identical to
    /// the sort-and-scan definition, the oracle
    /// `perigee_oracle::coverage_times`, without its per-call
    /// allocation, and without any sort when hash
    /// power is uniform.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `fractions` have different lengths, or if any
    /// fraction is NaN (out-of-range fractions clamp to `[0, 1]`).
    pub fn coverage_times_into(
        &mut self,
        view: &TopologyView,
        fractions: &[f64],
        out: &mut [SimTime],
    ) {
        assert_eq!(fractions.len(), out.len(), "one output slot per fraction");
        if let Some(w) = view.uniform_weight {
            // Uniform hash power: the crossing index of the cumulative
            // weight scan is independent of arrival order, so λ(f) is the
            // k-th smallest arrival — an O(n) selection, no sort. The
            // accumulation below replays the scan's float additions
            // exactly, keeping the result bit-identical to the weighted
            // path.
            let select = &mut self.select;
            select.clear();
            select.extend_from_slice(&self.first_arrival);
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
        let coverage = &mut self.coverage;
        coverage.clear();
        coverage.extend(
            self.first_arrival
                .iter()
                .zip(&view.hash_power)
                .map(|(&t, &w)| (t, w)),
        );
        coverage.sort_unstable_by_key(|&(t, _)| t);
        for (slot, &fraction) in out.iter_mut().zip(fractions) {
            *slot = coverage_scan(coverage, fraction);
        }
    }

    /// [`GossipScratch::coverage_times_into`] under its former batch
    /// name, kept only because roundbench's replay calls it.
    pub fn batch_coverage_times_into(
        &mut self,
        view: &TopologyView,
        fractions: &[f64],
        out: &mut [SimTime],
    ) {
        self.coverage_times_into(view, fractions, out);
    }

    /// Readies the scratch for a run of `config` from `source` on a
    /// network of `nodes` nodes: no node holds it or has announced it.
    /// Both kernels start here; the message-level one also resets its
    /// labels.
    pub(crate) fn begin(&mut self, source: NodeId, config: GossipConfig, nodes: usize) {
        self.run = self.run.wrapping_add(1);
        self.source = source;
        self.config = config;
        self.queue.clear();
        for times in [&mut self.first_arrival, &mut self.relay_at] {
            times.clear();
            times.resize(nodes, SimTime::INFINITY);
        }
    }

    /// [`GossipScratch::begin`] for `msg`, with every kernel label unset.
    fn reset(&mut self, msg: &BatchMessage, nodes: usize) {
        self.begin(msg.source, msg.config, nodes);
        self.labels.clear();
        self.labels.resize(nodes, Label::UNSET);
    }

    /// Schedules an event at `time`, stamping the next insertion sequence
    /// — the legacy queue's deterministic tie-break.
    #[inline]
    fn schedule(&mut self, time: SimTime, kind: EventKind, payload: u32) {
        let word = pack_event(time, self.seq, kind, payload);
        self.seq += 1;
        self.queue.push(word);
        self.counters.queue_peak = self.counters.queue_peak.max(self.queue.len() as u64);
    }

    /// Consumes a sequence number for an event the legacy engine would
    /// have scheduled but whose pop is provably a no-op here, keeping the
    /// tie-break numbering of every later event bit-identical.
    #[inline]
    fn skip_inert(&mut self) {
        self.seq += 1;
        self.counters.gossip_elided += 1;
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

/// One message of a [`TopologyView::gossip_batch_into`] batch: who mines
/// or originates it, and how it propagates. Different messages of one
/// batch may use different fan-out policies and sizes (the traffic layer
/// mixes INV transactions with push/pull relays in a single pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMessage {
    /// Originating node; the message leaves it at time zero.
    pub source: NodeId,
    /// Fan-out policy and transfer model for this message.
    pub config: GossipConfig,
}

impl TopologyView {
    /// Simulates one block mined by `source` at time zero at the message
    /// level, writing arrivals and relay times into `scratch` without
    /// allocating (after `scratch` has warmed up to this network size
    /// once). A single message is a batch of one: this runs the same
    /// kernel, with the same event-loop fallback, as
    /// [`TopologyView::gossip_batch_into`] (see the module docs).
    ///
    /// Arrivals and delivery rows equal the seed's event-queue engine,
    /// the oracle `perigee_oracle::gossip_block`, bit
    /// for bit: the same `δ(u,v)` call directions (cached per directed
    /// edge), the same float order for every leg sum and the same
    /// transfer-time floats, with exact INV ties resolved by its
    /// insertion sequence on the fallback. In [`GossipMode::Flood`] with
    /// negligible transfer the arrivals and relay times are additionally
    /// bit-identical to [`TopologyView::broadcast_into`].
    ///
    /// # Panics
    ///
    /// Panics, before simulating anything, if the config's message size
    /// fails [`TransferModel::validate`] (NaN, infinite or negative).
    pub fn gossip_into(&self, source: NodeId, config: &GossipConfig, scratch: &mut GossipScratch) {
        self.gossip_into_faulted(source, config, scratch, None);
    }

    /// [`TopologyView::gossip_into`] with a link-fault lens applied to
    /// every announcement leg (the flood-mode block push / the INV), per
    /// the [`faults`](crate::faults) module contract: a dropped or
    /// down-link announcement offers its neighbour nothing (on the event
    /// loop it consumes exactly one sequence number, like an inert event,
    /// so the tie-break numbering of every later event is unchanged), and
    /// [`GossipScratch::write_rows`] under the same `faults` reads it as
    /// never delivered. GETDATA and the block transfer it pulls are
    /// reliable-but-slowed ([`BlockFaults::scaled`]): a delivered INV can
    /// always complete. The lens sees every announce leg exactly once on
    /// either path, so the fault tallies match.
    ///
    /// With `faults: None` the pass runs on the no-fault lens, and with
    /// an inert plan the lens returns every base delay bitwise, so both
    /// are bit-identical to the fault-free run.
    ///
    /// # Panics
    ///
    /// Panics, before simulating anything, if the config's message size
    /// fails [`TransferModel::validate`] (NaN, infinite or negative).
    pub fn gossip_into_faulted(
        &self,
        source: NodeId,
        config: &GossipConfig,
        scratch: &mut GossipScratch,
        faults: Option<&BlockFaults<'_>>,
    ) {
        let message = [BatchMessage {
            source,
            config: *config,
        }];
        match faults {
            Some(faults) => self.gossip_loop(&message, scratch, faults, |_, _| {}),
            None => self.gossip_loop(&message, scratch, NoFaults, |_, _| {}),
        }
    }

    /// Simulates a batch of messages through **one shared scratch**. A
    /// message costs an O(n) reset plus its own kernel pass, except that
    /// a message equal to its predecessor costs nothing: the scratch
    /// still holds the predecessor's run, which is the repeat's too.
    ///
    /// Messages are visited strictly in batch order, each simulated from
    /// time zero. For every message, `visit(i, scratch)` runs with the
    /// scratch exposing *that message's* results through every accessor:
    /// [`GossipScratch::arrival`], [`GossipScratch::reached`],
    /// [`GossipScratch::coverage_times_into`],
    /// [`GossipScratch::relay_starts`] and
    /// [`GossipScratch::write_rows`]. `visit` may also run
    /// another simulation on the scratch; a repeat that follows is then
    /// simulated afresh. Results are **bit-identical** to running
    /// [`TopologyView::gossip_into`] once per message on a fresh scratch —
    /// exercised by `tests/gossip_batch.rs`.
    ///
    /// A repeat is charged its predecessor's tallies, so every count reads
    /// what simulating each copy would have counted;
    /// [`SimCounters::batch_repeats`] counts the repeats.
    ///
    /// Faults are a block-path concern and are not applied here; the
    /// traffic layer documents message streams as fault-free.
    ///
    /// # Panics
    ///
    /// Panics, before simulating any message (so `visit` never runs), if
    /// any message's size fails [`TransferModel::validate`] (NaN,
    /// infinite or negative).
    pub fn gossip_batch_into<F>(
        &self,
        batch: &[BatchMessage],
        scratch: &mut GossipScratch,
        visit: F,
    ) where
        F: FnMut(usize, &mut GossipScratch),
    {
        scratch.counters.batch_messages += batch.len() as u64;
        scratch.counters.batch_peak = scratch.counters.batch_peak.max(batch.len() as u64);
        self.gossip_loop(batch, scratch, NoFaults, visit);
    }

    /// The one per-message pass behind every gossip entry point, over the
    /// links as the lens `faults` sees them: the label-setting kernel,
    /// and the event loop for a message whose kernel pass met a tie. A
    /// message equal to its predecessor is served from the scratch while
    /// its run stamp shows that nothing has run on it since.
    fn gossip_loop<L, F>(
        &self,
        batch: &[BatchMessage],
        scratch: &mut GossipScratch,
        faults: L,
        mut visit: F,
    ) where
        L: FaultLens,
        F: FnMut(usize, &mut GossipScratch),
    {
        let n = self.len();
        if let Err(e) = check_payload_cap(n, self.edges.len()) {
            panic!("{e}");
        }
        // A negative size would queue keys behind the queue's cursor and
        // a NaN one would poison their order: refuse the batch before
        // anything is queued.
        for msg in batch {
            if let Err(e) = msg.config.transfer.validate() {
                panic!("{e}");
            }
        }
        // The run the scratch holds: its stamp when it ended, and its own
        // tallies.
        let mut held: Option<(u64, SimCounters)> = None;
        for (i, msg) in batch.iter().enumerate() {
            match held {
                Some((run, tally)) if run == scratch.run && *msg == batch[i - 1] => {
                    scratch.counters.merge(&tally);
                    scratch.counters.batch_repeats += 1;
                }
                _ => {
                    // The run tallies from zero, then merges into the
                    // scratch's counts: the same totals and peaks.
                    let outer = std::mem::take(&mut scratch.counters);
                    scratch.reset(msg, n);
                    if !self.settle(msg, scratch, faults) {
                        // A fallback counts as the event loop alone: the
                        // kernel pass's tallies are dropped, not doubled.
                        scratch.counters = SimCounters::ZERO;
                        scratch.reset(msg, n);
                        self.event_loop(msg, scratch, faults);
                        scratch.counters.gossip_fallbacks += 1;
                    }
                    let tally = std::mem::replace(&mut scratch.counters, outer);
                    scratch.counters.merge(&tally);
                    held = Some((scratch.run, tally));
                }
            }
            visit(i, scratch);
        }
    }

    /// The label-setting kernel (see the module docs): settles the
    /// message's nodes in have-time order, writing their arrivals and
    /// relay times into the freshly reset scratch. Returns `false` as
    /// soon as an exact INV tie could decide a have-time; the caller then
    /// resets the scratch and re-runs the message on the event loop.
    fn settle<L: FaultLens>(
        &self,
        msg: &BatchMessage,
        scratch: &mut GossipScratch,
        faults: L,
    ) -> bool {
        let config = &msg.config;
        let push_degree = push_degree(config.mode);
        let src = msg.source.as_u32();
        scratch.labels[src as usize].push = SimTime::ZERO;
        scratch.queue.push(pack_settle(SimTime::ZERO, src));
        while let Some(word) = scratch.queue.pop() {
            scratch.counters.gossip_pops += 1;
            let u = word as u32;
            let ui = u as usize;
            if scratch.first_arrival[ui].is_finite()
                || word != pack_settle(scratch.labels[ui].key(), u)
            {
                continue; // settled already, or its key has moved since
            }
            let t = event_time(word);
            scratch.first_arrival[ui] = t;
            // The miner announces its own block without validating it.
            let relay = self.relay[ui].relay_time(t, u == src);
            if relay.is_infinite() {
                continue; // silent, or a withholding miner
            }
            scratch.relay_at[ui] = relay;
            scratch.counters.gossip_relays += 1;
            let (start, end) = (self.offsets[ui], self.offsets[ui + 1]);
            let row = self.edges[start..end]
                .iter()
                .zip(&self.delay[start..end])
                .zip(&self.reverse[start..end]);
            for (k, ((&v, &base), &rev)) in row.enumerate() {
                let e = start + k;
                let Some(leg) = faults.announce(e, base, &mut scratch.counters) else {
                    continue; // dropped, or the link is down
                };
                scratch.counters.gossip_deliveries += 1;
                let v = v as usize;
                let push = (k as u32) < push_degree;
                let tv = if push {
                    relay + leg + self.edge_transfer(config, ui, v)
                } else {
                    relay + leg
                };
                let settled = scratch.first_arrival[v].is_finite();
                let mut label = scratch.labels[v];
                let before = label.key();
                let moved = if push {
                    // A settled node's have-time is final.
                    let lower = !settled && tv.as_ms() < label.push.as_ms();
                    if lower {
                        label.push = tv;
                    }
                    lower
                } else if tv.as_ms() <= label.inv.as_ms() {
                    // The event loop's float order: the GETDATA leg, then
                    // the BLOCK leg, then the transfer.
                    let rev = rev as usize;
                    let pull = tv
                        + faults.reliable(rev, self.delay[rev])
                        + faults.reliable(e, self.delay[e])
                        + self.edge_transfer(config, ui, v);
                    if tv.as_ms() == label.inv.as_ms() {
                        if pull != label.pull
                            && pull.as_ms().min(label.pull.as_ms()) < label.push.as_ms()
                        {
                            return false; // which INV wins is up to sequence order
                        }
                        false
                    } else if settled {
                        // Only a node settled by a push can still hear an
                        // earlier INV, and no pull undercuts that push.
                        false
                    } else {
                        label.inv = tv;
                        label.pull = pull;
                        true
                    }
                } else {
                    false
                };
                if moved {
                    scratch.labels[v] = label;
                    if label.key() != before {
                        scratch.queue.push(pack_settle(label.key(), v as u32));
                        continue;
                    }
                }
                scratch.counters.gossip_elided += 1;
            }
            scratch.counters.queue_peak =
                scratch.counters.queue_peak.max(scratch.queue.len() as u64);
        }
        true
    }

    /// The message-level event loop, exact on every input, INV ties
    /// included: the kernel's fallback. It simulates the message into the
    /// freshly reset scratch, event for event like the oracle
    /// `perigee_oracle::gossip_block`:
    /// the same schedule order and the same time-tie insertion-sequence
    /// break.
    fn event_loop<L: FaultLens>(&self, msg: &BatchMessage, scratch: &mut GossipScratch, faults: L) {
        scratch.seq = 0;
        scratch.pulled.clear();
        scratch.pulled.resize(self.len(), false);
        let config = &msg.config;
        // Adding a zero transfer is a bitwise no-op on non-negative
        // times, so the negligible-block default skips the per-edge
        // computation.
        let no_transfer = config.transfer.block_size_mb() == 0.0;
        let push_degree = push_degree(config.mode);
        let src = msg.source.index();
        scratch.first_arrival[src] = SimTime::ZERO;
        // The miner announces immediately (no validation of its own
        // block), unless it is a withholding adversary.
        let relay0 = self.relay[src].relay_time(SimTime::ZERO, true);
        if relay0.is_finite() {
            scratch.schedule(relay0, EventKind::Announce, msg.source.as_u32());
        }

        while let Some(word) = scratch.queue.pop() {
            scratch.counters.gossip_pops += 1;
            let t = event_time(word);
            match event_kind(word) {
                k if k == EventKind::Announce as u32 => {
                    // Payload: the announcing node u. A node announces
                    // at most once, so each directed edge carries
                    // exactly one push or INV. Events that can no longer
                    // have any effect — the target already holds the
                    // message (push) or has already requested it (INV)
                    // — are provably no-ops at pop and skip the queue,
                    // consuming only their sequence number, as does an
                    // announcement the lens drops.
                    scratch.counters.gossip_relays += 1;
                    let u = event_payload(word);
                    scratch.relay_at[u] = t;
                    let (start, end) = (self.offsets[u], self.offsets[u + 1]);
                    let row = self.edges[start..end]
                        .iter()
                        .zip(&self.delay[start..end])
                        .zip(&self.reverse[start..end]);
                    for (k, ((&v, &base), &rev)) in row.enumerate() {
                        let Some(leg) = faults.announce(start + k, base, &mut scratch.counters)
                        else {
                            scratch.skip_inert();
                            continue;
                        };
                        scratch.counters.gossip_deliveries += 1;
                        let vi = v as usize;
                        let holds = scratch.first_arrival[vi].is_finite();
                        if (k as u32) < push_degree {
                            if holds {
                                scratch.skip_inert();
                            } else {
                                let tv = if no_transfer {
                                    t + leg
                                } else {
                                    t + leg + self.edge_transfer(config, u, vi)
                                };
                                scratch.schedule(tv, EventKind::Block, v);
                            }
                        } else if holds || scratch.pulled[vi] {
                            scratch.skip_inert();
                        } else {
                            scratch.schedule(t + leg, EventKind::Inv, rev);
                        }
                    }
                }
                k if k == EventKind::Inv as u32 => {
                    // Payload: the entry for the announcer u within
                    // the announced-to node v's row.
                    let rev = event_payload(word);
                    let fwd = self.reverse[rev] as usize;
                    let v = self.edges[fwd] as usize;
                    if !scratch.first_arrival[v].is_finite() && !scratch.pulled[v] {
                        scratch.pulled[v] = true;
                        let leg = faults.reliable(rev, self.delay[rev]);
                        scratch.schedule(t + leg, EventKind::GetData, fwd as u32);
                    }
                }
                k if k == EventKind::GetData as u32 => {
                    // Payload: the announcer u's entry for the
                    // requester v (u must hold the message, since it
                    // announced).
                    let e = event_payload(word);
                    let u = self.edges[self.reverse[e] as usize] as usize;
                    debug_assert!(scratch.first_arrival[u].is_finite());
                    let v = self.edges[e];
                    let leg = faults.reliable(e, self.delay[e]);
                    let transfer = if no_transfer {
                        SimTime::ZERO
                    } else {
                        self.edge_transfer(config, u, v as usize)
                    };
                    scratch.schedule(t + leg + transfer, EventKind::Block, v);
                }
                _ => {
                    // Block. Payload: the receiving node v.
                    let v = event_payload(word);
                    if scratch.first_arrival[v].is_finite() {
                        continue;
                    }
                    scratch.first_arrival[v] = t;
                    let relay = self.relay[v].relay_time(t, false);
                    if relay.is_finite() {
                        scratch.schedule(relay, EventKind::Announce, v as u32);
                    }
                }
            }
        }
    }

    /// Block transfer time across the directed edge `u → v`, from the
    /// per-node link rates cached at snapshot time.
    #[inline]
    fn edge_transfer(&self, config: &GossipConfig, u: usize, v: usize) -> SimTime {
        config
            .transfer
            .transfer_time_mbps(self.uplink_mbps[u], self.downlink_mbps[v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, LinkFaultRates, LinkFlaps, RegionalWindow};
    use crate::graph::{ConnectionLimits, Topology};
    use crate::latency::{GeoLatencyModel, LatencyModel, MetricLatencyModel};
    use crate::node::{Behavior, NodeProfile, Region};
    use crate::population::{Population, PopulationBuilder};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_world(n: usize, seed: u64) -> (Population, GeoLatencyModel, Topology) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(n, ConnectionLimits::paper_default());
        // Ring + random chords so the graph is connected.
        for i in 0..n as u32 {
            let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % n as u32));
        }
        for _ in 0..n * 3 {
            let u = NodeId::new(rng.gen_range(0..n as u32));
            let v = NodeId::new(rng.gen_range(0..n as u32));
            let _ = topo.connect(u, v);
        }
        (pop, lat, topo)
    }

    /// Gossips one block from `src` into a fresh scratch.
    fn gossip(view: &TopologyView, src: u32, cfg: &GossipConfig) -> GossipScratch {
        let mut scratch = GossipScratch::new();
        view.gossip_into(NodeId::new(src), cfg, &mut scratch);
        scratch
    }

    /// Collects each node's row through [`GossipScratch::write_rows`], in
    /// node order.
    #[derive(Default)]
    struct Rows(Vec<Vec<SimTime>>);

    impl RowSink for Rows {
        fn row<I: ExactSizeIterator<Item = SimTime>>(&mut self, v: NodeId, deliveries: I) {
            assert_eq!(v.index(), self.0.len(), "rows arrive in node order");
            self.0.push(deliveries.collect());
        }
    }

    /// Every node's delivery row of the last block, read through `faults`
    /// when it ran under them.
    fn rows(
        view: &TopologyView,
        s: &GossipScratch,
        faults: Option<&BlockFaults<'_>>,
    ) -> Vec<Vec<SimTime>> {
        let mut rows = Rows::default();
        s.write_rows(view, faults, &mut rows);
        rows.0
    }

    /// Every delivery row of the last fault-free block, in CSR edge
    /// order.
    fn deliveries(view: &TopologyView, s: &GossipScratch) -> Vec<SimTime> {
        rows(view, s, None).concat()
    }

    /// [`deliveries`] of a block run under `faults`.
    fn faulted_deliveries(
        view: &TopologyView,
        s: &GossipScratch,
        faults: &BlockFaults<'_>,
    ) -> Vec<SimTime> {
        rows(view, s, Some(faults)).concat()
    }

    /// λ(`fraction`) of the last block.
    fn coverage(view: &TopologyView, s: &mut GossipScratch, fraction: f64) -> SimTime {
        let mut out = [SimTime::ZERO];
        s.coverage_times_into(view, &[fraction], &mut out);
        out[0]
    }

    /// A `side`×`side` integer grid at 10 ms per unit with 4-neighbour
    /// links and zero validation: equal-time INVs from different
    /// announcers are common here, so the kernel falls back.
    fn tie_grid(side: u32) -> (Population, MetricLatencyModel, Topology) {
        let n = (side * side) as usize;
        let profiles = (0..side * side)
            .map(|i| NodeProfile {
                coords: vec![f64::from(i / side), f64::from(i % side)],
                hash_power: 1.0,
                validation_delay: SimTime::ZERO,
                uplink_mbps: [10.0, 40.0, 20.0][i as usize % 3],
                downlink_mbps: 100.0,
                ..NodeProfile::default()
            })
            .collect();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 10.0);
        let mut topo = Topology::new(n, ConnectionLimits::unlimited());
        for i in 0..side * side {
            if i % side + 1 < side {
                topo.connect(NodeId::new(i), NodeId::new(i + 1)).unwrap();
            }
            if i + side < side * side {
                topo.connect(NodeId::new(i), NodeId::new(i + side)).unwrap();
            }
        }
        (pop, lat, topo)
    }

    /// Runs one message on the private event loop alone, as the entry
    /// points did before the kernel.
    fn event_loop_into(
        view: &TopologyView,
        msg: BatchMessage,
        scratch: &mut GossipScratch,
        faults: &BlockFaults<'_>,
    ) {
        scratch.reset(&msg, view.len());
        view.event_loop(&msg, scratch, faults);
    }

    /// The tallies both paths must agree on: what was simulated, not how.
    fn semantic(c: &SimCounters) -> [u64; 5] {
        [
            c.gossip_relays,
            c.gossip_deliveries,
            c.fault_drops,
            c.fault_delays,
            c.fault_dupes,
        ]
    }

    #[test]
    fn kernel_equals_the_event_loop_under_active_faults() {
        let hostile = FaultPlan {
            seed: 5,
            base: LinkFaultRates {
                drop_prob: 0.15,
                extra_delay: SimTime::from_ms(4.0),
                jitter: SimTime::from_ms(6.0),
                duplicate_prob: 0.3,
            },
            flaps: Some(LinkFlaps {
                fraction: 0.2,
                period: 3,
                down: 1,
            }),
            regional: vec![RegionalWindow {
                region: Region::Europe,
                start: 0,
                end: 2,
                slow_factor: 2.5,
            }],
            ..FaultPlan::default()
        };
        // Drops and flaps keep every leg a multiple of 10 ms on the
        // grid, so ties, and fallbacks, survive the lens.
        let lossy = FaultPlan {
            seed: 6,
            base: LinkFaultRates {
                drop_prob: 0.2,
                ..LinkFaultRates::default()
            },
            flaps: hostile.flaps,
            ..FaultPlan::default()
        };
        let (gpop, glat, gtopo) = random_world(40, 61);
        let (tpop, tlat, ttopo) = tie_grid(6);
        let worlds = [
            (TopologyView::new(&gtopo, &glat, &gpop), &gpop),
            (TopologyView::new(&ttopo, &tlat, &tpop), &tpop),
        ];
        let configs = [
            GossipConfig::flood(),
            GossipConfig {
                mode: GossipMode::Flood,
                transfer: TransferModel::new(0.5),
            },
            GossipConfig::inv_getdata(0.0),
            GossipConfig::inv_getdata(0.5),
            GossipConfig::push_pull(0.0, 2),
            GossipConfig::push_pull(0.5, 2),
        ];
        let mut tie_fallbacks = 0;
        for (w, (view, pop)) in worlds.iter().enumerate() {
            let regions: Vec<Region> = pop.iter().map(|p| p.region).collect();
            for plan in [&hostile, &lossy] {
                let mut kernel = GossipScratch::new();
                let mut events = GossipScratch::new();
                for round in 0..2 {
                    let rf = plan.compile(round, view, &regions);
                    assert!(!rf.is_inert(), "the plan must be active");
                    for (j, &config) in configs.iter().enumerate() {
                        for s in (0..view.len() as u32).step_by(3) {
                            let msg = BatchMessage {
                                source: NodeId::new(s),
                                config,
                            };
                            let bf = rf.block(j * view.len() + s as usize);
                            view.gossip_into_faulted(msg.source, &config, &mut kernel, Some(&bf));
                            event_loop_into(view, msg, &mut events, &bf);
                            let what = format!("world {w} round {round} {config:?} from {s}");
                            assert_eq!(kernel.arrivals(), events.arrivals(), "{what}");
                            assert_eq!(kernel.relay_starts(), events.relay_starts(), "{what}");
                            assert_eq!(
                                faulted_deliveries(view, &kernel, &bf),
                                faulted_deliveries(view, &events, &bf),
                                "{what}"
                            );
                            let (k, e) = (kernel.take_counters(), events.take_counters());
                            assert_eq!(semantic(&k), semantic(&e), "{what}: tallies");
                            if w == 1 && plan.seed == lossy.seed {
                                tie_fallbacks += k.gossip_fallbacks;
                            }
                            if k.gossip_fallbacks > 0 {
                                // A fallback's tallies are the event loop's alone.
                                assert_eq!(k.gossip_pops, e.gossip_pops, "{what}");
                                assert_eq!(k.gossip_elided, e.gossip_elided, "{what}");
                            }
                        }
                    }
                }
            }
        }
        assert!(tie_fallbacks > 0, "the lossy tie grid must fall back");
    }

    /// One step of [`one_scratch_alternates_kernels_like_fresh_scratches`].
    #[derive(Clone, Copy)]
    enum Step<'a> {
        Flood(u32),
        FaultedFlood(u32),
        FaultedGossip(u32, GossipConfig),
        Batch(&'a [BatchMessage]),
    }

    /// What one message leaves in a scratch: arrivals, relay starts,
    /// delivery rows (through the lens the message ran under) and λ90/λ50.
    type Left = (Vec<SimTime>, Vec<SimTime>, Vec<SimTime>, [SimTime; 2]);

    fn left(view: &TopologyView, s: &mut GossipScratch, faults: Option<&BlockFaults<'_>>) -> Left {
        let rows = match faults {
            Some(f) => faulted_deliveries(view, s, f),
            None => deliveries(view, s),
        };
        let mut coverage = [SimTime::ZERO; 2];
        s.coverage_times_into(view, &[0.9, 0.5], &mut coverage);
        (
            s.arrivals().to_vec(),
            s.relay_starts().to_vec(),
            rows,
            coverage,
        )
    }

    /// Runs `step` on `s`, returning what each of its messages left.
    fn run_step(
        view: &TopologyView,
        s: &mut GossipScratch,
        step: Step<'_>,
        faults: &BlockFaults<'_>,
    ) -> Vec<Left> {
        match step {
            Step::Flood(src) => {
                view.broadcast_into(NodeId::new(src), s);
                vec![left(view, s, None)]
            }
            Step::FaultedFlood(src) => {
                view.broadcast_into_faulted(NodeId::new(src), s, Some(faults));
                vec![left(view, s, Some(faults))]
            }
            Step::FaultedGossip(src, config) => {
                view.gossip_into_faulted(NodeId::new(src), &config, s, Some(faults));
                vec![left(view, s, Some(faults))]
            }
            Step::Batch(batch) => {
                let mut out = Vec::new();
                view.gossip_batch_into(batch, s, |_, s| out.push(left(view, s, None)));
                out
            }
        }
    }

    /// One scratch alternates both kernels and every message shape on a
    /// geographic world under an active fault plan, and each message
    /// leaves exactly what it leaves in a fresh scratch: arrivals, relay
    /// starts, rows and coverage. The last flood follows a push/pull
    /// batch, so a flood that kept the batch's config would add its
    /// transfers to the flood's rows. The same holds through the flood's
    /// former scratch type, built by its one remaining constructor.
    #[test]
    fn one_scratch_alternates_kernels_like_fresh_scratches() {
        let (pop, lat, topo) = random_world(60, 71);
        let view = TopologyView::new(&topo, &lat, &pop);
        let regions: Vec<Region> = pop.iter().map(|p| p.region).collect();
        let plan = FaultPlan {
            seed: 12,
            base: LinkFaultRates {
                drop_prob: 0.1,
                extra_delay: SimTime::from_ms(3.0),
                jitter: SimTime::from_ms(8.0),
                duplicate_prob: 0.2,
            },
            ..FaultPlan::default()
        };
        let rf = plan.compile(0, &view, &regions);
        assert!(!rf.is_inert(), "the plan must be active");
        let faults = rf.block(0);
        let batch = [
            BatchMessage {
                source: NodeId::new(8),
                config: GossipConfig::push_pull(0.5, 2),
            },
            BatchMessage {
                source: NodeId::new(33),
                config: GossipConfig::push_pull(0.25, 3),
            },
        ];
        let steps = [
            Step::Flood(3),
            Step::FaultedGossip(17, GossipConfig::inv_getdata(1.0)),
            Step::FaultedFlood(29),
            Step::Batch(&batch),
            Step::Flood(41),
        ];
        // Each message on a fresh scratch: a batch message as a single run.
        let mut fresh = Vec::new();
        for &step in &steps {
            let singles: Vec<Step> = match step {
                Step::Batch(b) => b
                    .iter()
                    .map(|m| Step::Batch(std::slice::from_ref(m)))
                    .collect(),
                step => vec![step],
            };
            for single in singles {
                fresh.extend(run_step(&view, &mut GossipScratch::new(), single, &faults));
            }
        }
        assert_eq!(fresh.len(), 6);
        let mut scratch = GossipScratch::new();
        let mut shim =
            crate::BroadcastScratch::with_capacity_and_queue(view.len(), QueueKind::Calendar);
        for (kind, scratch) in [("scratch", &mut scratch), ("shim", &mut *shim)] {
            let reused: Vec<Left> = steps
                .iter()
                .flat_map(|&step| run_step(&view, scratch, step, &faults))
                .collect();
            for (i, (a, b)) in reused.iter().zip(&fresh).enumerate() {
                assert_eq!(a, b, "{kind}: message {i} differs from a fresh scratch");
            }
            assert_eq!(reused.len(), fresh.len());
        }
    }

    #[test]
    fn flood_per_neighbor_matches_fast_engine_delivery() {
        let (pop, lat, topo) = random_world(40, 3);
        let view = TopologyView::new(&topo, &lat, &pop);
        let src = NodeId::new(5);
        let mut fast = GossipScratch::new();
        view.broadcast_into(src, &mut fast);
        let slow = gossip(&view, 5, &GossipConfig::flood());
        assert_eq!(fast.relay_starts(), slow.relay_starts());
        let rows = rows(&view, &slow, None);
        for v in (0..pop.len() as u32).map(NodeId::new) {
            for (&t, u) in rows[v.index()].iter().zip(view.neighbors(v)) {
                let expect = fast.relay_start(u) + lat.delay(u, v);
                if t.is_finite() {
                    assert!((t.as_ms() - expect.as_ms()).abs() < 1e-9);
                } else {
                    assert!(expect.is_infinite(), "{u}->{v} should deliver");
                }
            }
        }
    }

    #[test]
    fn inv_mode_is_slower_than_flooding() {
        let (pop, lat, topo) = random_world(50, 9);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut flood = gossip(&view, 0, &GossipConfig::flood());
        let mut inv = gossip(&view, 0, &GossipConfig::inv_getdata(0.0));
        for i in 1..pop.len() as u32 {
            let v = NodeId::new(i);
            assert!(
                inv.arrival(v) >= flood.arrival(v),
                "INV adds round trips at {v}"
            );
            assert!(inv.arrival(v).is_finite(), "INV still reaches {v}");
        }
        // Network-wide, the three-leg exchange costs well under 3x the
        // single-leg flood (validation delays are not tripled).
        let f90 = coverage(&view, &mut flood, 0.9).as_ms();
        let i90 = coverage(&view, &mut inv, 0.9).as_ms();
        assert!(i90 > f90 && i90 < f90 * 3.0, "flood {f90} vs inv {i90}");
    }

    #[test]
    fn inv_records_announcements_from_all_neighbors() {
        let (pop, lat, topo) = random_world(30, 4);
        let view = TopologyView::new(&topo, &lat, &pop);
        let src = 2;
        let out = gossip(&view, src, &GossipConfig::inv_getdata(0.0));
        let rows = rows(&view, &out, None);
        for i in (0..pop.len() as u32).filter(|&i| i != src) {
            let v = NodeId::new(i);
            // Every honest neighbor eventually announces to v.
            assert_eq!(
                rows[v.index()].iter().filter(|t| t.is_finite()).count(),
                topo.neighbors(v).len(),
                "all neighbors of {v} announce"
            );
        }
    }

    #[test]
    fn bandwidth_slows_flood_delivery() {
        let (pop, lat, topo) = random_world(30, 8);
        let view = TopologyView::new(&topo, &lat, &pop);
        let small = gossip(&view, 0, &GossipConfig::flood());
        let big_cfg = GossipConfig {
            mode: GossipMode::Flood,
            transfer: TransferModel::new(1.0),
        };
        let big = gossip(&view, 0, &big_cfg);
        for i in 1..pop.len() as u32 {
            let v = NodeId::new(i);
            assert!(big.arrival(v) > small.arrival(v));
        }
    }

    #[test]
    #[should_panic(expected = "message size must be finite and non-negative")]
    fn negative_size_panics_at_the_entry_point() {
        let (pop, lat, topo) = random_world(60, 8);
        let view = TopologyView::new(&topo, &lat, &pop);
        gossip(&view, 0, &GossipConfig::inv_getdata(-1.0));
    }

    #[test]
    #[should_panic(expected = "message size must be finite and non-negative")]
    fn nan_size_panics_at_the_entry_point() {
        let (pop, lat, topo) = random_world(60, 8);
        let view = TopologyView::new(&topo, &lat, &pop);
        gossip(&view, 0, &GossipConfig::inv_getdata(f64::NAN));
    }

    #[test]
    fn a_bad_message_refuses_its_batch_before_any_visit() {
        let (pop, lat, topo) = random_world(60, 8);
        let view = TopologyView::new(&topo, &lat, &pop);
        let batch = [
            BatchMessage {
                source: NodeId::new(0),
                config: GossipConfig::flood(),
            },
            BatchMessage {
                source: NodeId::new(1),
                config: GossipConfig::push_pull(-1.0, 2),
            },
        ];
        let mut scratch = GossipScratch::new();
        let mut visits = 0;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            view.gossip_batch_into(&batch, &mut scratch, |_, _| visits += 1);
        }));
        let payload = outcome.expect_err("a negative size must panic");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("message size"), "{message}");
        assert_eq!(visits, 0, "the good first message must not run either");
    }

    #[test]
    fn withholding_miner_delays_everyone() {
        let (mut pop, lat, topo) = random_world(20, 5);
        let src = NodeId::new(0);
        let honest = gossip(
            &TopologyView::new(&topo, &lat, &pop),
            0,
            &GossipConfig::flood(),
        );
        pop.profile_mut(src).behavior = Behavior::Delay(SimTime::from_ms(500.0));
        let withheld = gossip(
            &TopologyView::new(&topo, &lat, &pop),
            0,
            &GossipConfig::flood(),
        );
        for i in 1..pop.len() as u32 {
            let v = NodeId::new(i);
            assert!((withheld.arrival(v) - honest.arrival(v)).as_ms() > 499.0);
        }
    }

    #[test]
    fn scratch_reuse_across_blocks_and_modes_matches_fresh_scratch() {
        let (pop, lat, topo) = random_world(50, 17);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = GossipScratch::new();
        for cfg in [
            GossipConfig::flood(),
            GossipConfig::inv_getdata(0.0),
            GossipConfig::inv_getdata(1.0),
        ] {
            for src in [0u32, 13, 47] {
                view.gossip_into(NodeId::new(src), &cfg, &mut scratch);
                let fresh = gossip(&view, src, &cfg);
                assert_eq!(scratch.arrivals(), fresh.arrivals());
                assert_eq!(deliveries(&view, &scratch), deliveries(&view, &fresh));
                assert_eq!(scratch.source(), fresh.source());
                assert_eq!(scratch.reached(), 50);
            }
        }
    }

    #[test]
    fn push_pull_degenerates_to_inv_and_flood() {
        let (pop, lat, topo) = random_world(50, 91);
        let view = TopologyView::new(&topo, &lat, &pop);
        let src = NodeId::new(4);
        let mut a = GossipScratch::new();
        let mut b = GossipScratch::new();
        // push_degree = 0 is pure INV/GETDATA, event for event.
        view.gossip_into(src, &GossipConfig::push_pull(0.1, 0), &mut a);
        view.gossip_into(src, &GossipConfig::inv_getdata(0.1), &mut b);
        assert_eq!(a.arrivals(), b.arrivals());
        assert_eq!(deliveries(&view, &a), deliveries(&view, &b));
        // push_degree ≥ max degree pushes every leg, i.e. floods.
        view.gossip_into(src, &GossipConfig::push_pull(0.1, u32::MAX), &mut a);
        let flood = GossipConfig {
            mode: GossipMode::Flood,
            transfer: TransferModel::new(0.1),
        };
        view.gossip_into(src, &flood, &mut b);
        assert_eq!(a.arrivals(), b.arrivals());
        assert_eq!(deliveries(&view, &a), deliveries(&view, &b));
    }

    #[test]
    fn push_pull_sits_between_flood_and_inv() {
        let (pop, lat, topo) = random_world(60, 92);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut flood = gossip(&view, 0, &GossipConfig::flood());
        let mut hybrid = gossip(&view, 0, &GossipConfig::push_pull(0.0, 3));
        let mut inv = gossip(&view, 0, &GossipConfig::inv_getdata(0.0));
        for i in 1..pop.len() as u32 {
            let v = NodeId::new(i);
            assert!(hybrid.arrival(v).is_finite(), "hybrid reaches {v}");
            // Every hybrid delivery costs at least one latency leg per
            // hop, so flooding is a pointwise lower bound. (No pointwise
            // bound against pure INV exists: a push reshuffles who
            // announces first, which can delay individual nodes.)
            assert!(
                hybrid.arrival(v) >= flood.arrival(v),
                "pushes can't beat pure flood at {v}"
            );
        }
        // Network-wide, pushing the first three legs skips enough
        // INV→GETDATA round trips to land between the two pure modes
        // (deterministic for this seeded world).
        let f90 = coverage(&view, &mut flood, 0.9);
        let h90 = coverage(&view, &mut hybrid, 0.9);
        let i90 = coverage(&view, &mut inv, 0.9);
        assert!(
            f90 <= h90 && h90 <= i90,
            "flood {f90} ≤ hybrid {h90} ≤ inv {i90}"
        );
    }

    #[test]
    fn oversized_scratch_is_a_checked_error() {
        let err = GossipScratch::try_with_capacity(1 << 30, 8).unwrap_err();
        assert!(matches!(
            err,
            NetsimError::WorldTooLarge {
                nodes,
                directed_edges: 8,
            } if nodes == 1 << 30
        ));
        assert!(err.to_string().contains("2^30"));
        assert!(GossipScratch::try_with_capacity(8, 1 << 30).is_err());
        // Just under the cap is accepted — checked through the one cap
        // check every site shares, not by reserving a 2^30-node scratch.
        assert_eq!(check_payload_cap((1 << 30) - 1, (1 << 30) - 1), Ok(()));
    }

    #[test]
    #[should_panic(expected = "coverage fraction must not be NaN")]
    fn nan_coverage_fraction_panics() {
        let (pop, lat, topo) = random_world(20, 94);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = gossip(&view, 0, &GossipConfig::flood());
        coverage(&view, &mut scratch, f64::NAN);
    }

    #[test]
    fn batch_pass_matches_sequential_single_passes() {
        let (pop, lat, topo) = random_world(50, 95);
        let view = TopologyView::new(&topo, &lat, &pop);
        let configs = [
            GossipConfig::inv_getdata(0.001),
            GossipConfig::flood(),
            GossipConfig::push_pull(0.002, 3),
        ];
        let batch: Vec<BatchMessage> = (0..12u32)
            .map(|i| BatchMessage {
                source: NodeId::new((i * 7) % 50),
                config: configs[i as usize % configs.len()],
            })
            .collect();
        let mut batch_scratch = GossipScratch::new();
        let mut single = GossipScratch::new();
        let mut visited = 0;
        view.gossip_batch_into(&batch, &mut batch_scratch, |i, s| {
            visited += 1;
            let msg = &batch[i];
            view.gossip_into(msg.source, &msg.config, &mut single);
            for v in 0..view.len() as u32 {
                let v = NodeId::new(v);
                assert_eq!(s.arrival(v), single.arrival(v), "message {i} node {v}");
            }
            assert_eq!(s.relay_starts(), single.relay_starts(), "message {i}");
            assert_eq!(
                deliveries(&view, s),
                deliveries(&view, &single),
                "message {i}"
            );
            assert_eq!(s.reached(), single.reached());
            let mut via_batch = [SimTime::ZERO; 2];
            s.coverage_times_into(&view, &[0.9, 0.5], &mut via_batch);
            let mut via_single = [SimTime::ZERO; 2];
            single.coverage_times_into(&view, &[0.9, 0.5], &mut via_single);
            assert_eq!(via_batch, via_single, "message {i} coverage");
        });
        assert_eq!(visited, batch.len());
    }
}
