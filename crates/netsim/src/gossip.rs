//! Message-level gossip engine.
//!
//! The analytic engine, [`TopologyView::broadcast_into`], computes arrival
//! times under the paper's §2 model. This module simulates the same
//! flood at the *message* level: either direct block pushes
//! ([`GossipMode::Flood`]), or Bitcoin's three-leg `INV → GETDATA → BLOCK`
//! exchange ([`GossipMode::InvGetData`], §1.1.2), or the push/pull hybrid,
//! with optional per-transfer bandwidth delay.
//!
//! Flooding a zero-size block is the §2 model itself, and this engine
//! then agrees exactly with the analytic one — arrivals, coverage and
//! per-edge deliveries, under link faults too. Engines rely on that
//! equality: for a config where [`GossipConfig::is_analytic`] holds they
//! run the cheaper analytic flood, which writes no delivery matrix
//! (the proptests and the core determinism suite pin it).
//!
//! # Architecture: a label-setting kernel, with the event loop as its fallback
//!
//! Like the analytic path ([`TopologyView::broadcast_into`] +
//! [`BroadcastScratch`](crate::BroadcastScratch)), the hot path here is a
//! [`TopologyView`] plus a reusable [`GossipScratch`]. Every entry point
//! runs the same per-message pass: [`TopologyView::gossip_batch_into`]
//! over a batch of messages, [`TopologyView::gossip_into`] /
//! [`TopologyView::gossip_into_faulted`] over a batch of one. The pass is
//! generic over a crate-private link-fault lens, so the fault-free
//! instance compiles to the plain code and the faulted one reads the same
//! code. Every fan-out policy is a push prefix of the announcer's CSR row
//! followed by INVs: flooding pushes every leg, INV/GETDATA none,
//! push/pull its first `push_degree`.
//!
//! **The kernel.** Everything the message leaves behind follows from its
//! per-node *have-times*. A node announces once, at `relay(u)`: its
//! have-time plus validation, or `∞` for a silent node or a withholding
//! miner. So every delivery-matrix entry is `relay(u)` plus the announce
//! leg (plus the transfer, for a push), final as soon as `relay(u)` is
//! known. And `have(v)` is a minimum: of the earliest push arrival, and of
//! the block pulled from the announcer of `v`'s earliest INV, whose
//! GETDATA and BLOCK legs are reliable. One Dijkstra-like pass therefore
//! computes the whole message. Nodes settle in have-time order on the
//! scratch's [`PackedQueue`], keyed `(have.to_bits(), node)` like the
//! analytic flood. A settling node writes its row's deliveries and offers
//! each neighbour a push or an INV. An earlier INV can come from an
//! announcer with a slower round trip, so a node's key can *rise*: queue
//! entries are lazy, and a pop is skipped when its node has settled or its
//! time is no longer the node's key. Every key pushed is ≥ the pop that
//! produced it, so the calendar queue's monotone contract holds. A message
//! costs about one pop per node and one relaxation per directed edge.
//!
//! **The tie rule.** Only one choice of the event loop depends on order
//! alone. When two INVs reach a node at the same float time, it requests
//! from the one with the lower insertion sequence, and the kernel keeps no
//! sequence numbers. So the kernel detects that tie: two equal-time INVs
//! whose pulled blocks would land at different times, either of them
//! before the node's best push. It also counts when the later INV reaches
//! a node already settled by an INV, which is possible only over
//! zero-latency legs. On a tie the message goes back to the event loop,
//! which recomputes it under a fresh epoch. The kernel pass's tallies are
//! dropped, so a fallback leaves the event loop's tallies plus one
//! [`SimCounters::gossip_fallbacks`]. Continuous latencies practically
//! never tie; integer-valued ones (metric grids, co-located pairs) do.
//!
//! **The event loop** stays private, as the one exact path for tied
//! inputs. Its events are single packed `u128` words (time bits ·
//! insertion sequence · kind · CSR edge index — no boxed events, no
//! per-event allocation) in the same reusable queue, and it writes the
//! same per-edge delivery matrix. A node announces at most once, so each
//! directed edge carries exactly one announcement whose delivery time is
//! final at *schedule* time (written straight to the matrix), and events
//! that can no longer have any effect — an INV to a node that already
//! requested, a flood BLOCK to a node that already holds it — never enter
//! the queue at all, only consuming their insertion-sequence number so
//! every later tie-break stays exact.
//!
//! **Epochs.** All per-message state is *epoch-stamped*: each
//! delivery-matrix entry, each node's "holds it" stamp and each node's
//! kernel label (or, on the event loop, "requested it" stamp) carries the
//! number of the message that last wrote it, so moving on to the next
//! message is one integer bump instead of an O(n + m) refill — entries
//! stamped by an older message simply read as unset. The kernel takes one
//! bump per message and a fallback one more. After the first message of a
//! given network size, simulating further messages performs no heap
//! allocation, except that the first fallbacks may grow the queue to the
//! event loop's size.
//!
//! Both paths are bit-identical to the seed's event-queue engine, kept as
//! the oracle [`reference::gossip_block`](crate::reference::gossip_block):
//! the same arrivals and the same per-neighbour delivery logs
//! (`tests/gossip_legacy.rs` on continuous latencies, `tests/gossip_ties.rs`
//! on an exact-tie grid where the fallback runs).

use crate::bandwidth::TransferModel;
use crate::counters::SimCounters;
use crate::error::NetsimError;
use crate::faults::{BlockFaults, FaultLens, NoFaults};
use crate::node::NodeId;
use crate::pq::{PackedQueue, QueueKind};
use crate::time::SimTime;
use crate::view::{coverage_times_from_arrivals, TopologyView};

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
    /// zero block size — whose arrivals, coverage and per-edge deliveries
    /// the analytic flood ([`TopologyView::broadcast_into`], faulted or
    /// not) computes bit for bit. An engine runs that cheaper kernel
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
/// bits  63..32   insertion sequence (the legacy EventQueue tie-break)
/// bits  31..30   EventKind
/// bits  29..0    payload: a directed CSR edge index, or a node id
/// ```
///
/// Integer order on the whole word is therefore exactly "by time, ties by
/// insertion sequence" (the sequence is unique, so the low bits never
/// decide), which is the legacy [`EventQueue`](crate::EventQueue) pop
/// order. The 30-bit payload caps supported snapshots at
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
fn event_time(word: u128) -> SimTime {
    SimTime::from_ms(f64::from_bits((word >> 64) as u64))
}

#[inline]
fn event_kind(word: u128) -> u32 {
    (word as u32) >> 30
}

#[inline]
fn event_payload(word: u128) -> usize {
    (word as u32 & 0x3FFF_FFFF) as usize
}

/// The kernel's settle key in the same `u128` queue: the have-time bits
/// over the node id, so integer order is "by time, ties by ascending node
/// id", the analytic flood's `(time.to_bits(), node)` order.
#[inline]
fn pack_settle(time: SimTime, node: u32) -> u128 {
    ((time.as_ms().to_bits() as u128) << 64) | node as u128
}

/// A node's tentative labels in the label-setting kernel. They belong to
/// the message whose epoch `stamp` carries; an older stamp reads as
/// [`Label::UNSET`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Label {
    stamp: u32,
    /// The earliest push arrival offered so far.
    push: SimTime,
    /// The earliest INV arrival so far.
    inv: SimTime,
    /// When the block requested from that INV's announcer would land.
    pull: SimTime,
}

impl Label {
    const UNSET: Label = Label {
        stamp: 0,
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

/// Reusable message-level simulation state: the packed queue, the
/// epoch-stamped per-node flags and kernel labels, the first-arrival
/// vector and the flat per-edge delivery matrix.
///
/// Create once per worker thread and reuse across blocks; after the first
/// block of a given network size, subsequent blocks perform no heap
/// allocation (bar a fallback growing the queue, see the module docs).
/// The delivery matrix is indexed by the view's CSR edge
/// offsets: entry `e` ([`GossipScratch::delivery`]) is the first time
/// `edges[e]` announced (INV mode) or delivered (flood mode) the block to
/// the row owner of `e` (`INFINITY` if it never did) — the flat
/// replacement for the reference engine's per-node `BTreeMap` logs.
/// Entries are epoch-stamped per block, so resetting the matrix between
/// blocks costs one integer bump instead of an O(m) refill.
#[derive(Debug, Clone, Default)]
pub struct GossipScratch {
    source: NodeId,
    /// Min-queue of packed `u128` words; calendar or reference heap per
    /// [`GossipScratch::with_queue`]. The kernel queues settle keys (see
    /// [`pack_settle`]); the event loop queues events (see
    /// [`pack_event`]). On the event loop only events with a possible
    /// side effect are ever pushed; provably-inert ones (an INV to a node
    /// that has already requested, a flood BLOCK to a node that already
    /// holds it) only consume a sequence number, so the pop order of the
    /// rest replays the legacy queue exactly.
    queue: PackedQueue<u128>,
    /// Next insertion sequence of the event loop (reset per message).
    /// Counts every event the legacy engine would have scheduled, pushed
    /// or not.
    seq: u32,
    /// Per-node "holds the message" epoch stamps: node `v` holds the
    /// current message iff `seen_stamp[v] == epoch` (on the kernel path:
    /// `v` has settled). Also gates `first_arrival` validity inside a
    /// batch, replacing the per-message O(n) `INFINITY` refill.
    seen_stamp: Vec<u32>,
    /// Per-node "already sent a GETDATA" epoch stamps of the event loop.
    req_stamp: Vec<u32>,
    /// Per-node kernel labels, epoch-stamped like the flags.
    labels: Vec<Label>,
    first_arrival: Vec<SimTime>,
    /// Per-edge first announcement/delivery times; valid only where
    /// `delivery_stamp` carries the current `epoch`.
    delivery: Vec<SimTime>,
    /// The message epoch that last wrote each `delivery` entry.
    delivery_stamp: Vec<u32>,
    /// Current message epoch (bumped once per simulated message).
    epoch: u32,
    coverage: Vec<(SimTime, f64)>,
    select: Vec<SimTime>,
    /// Hot-path event tallies, accumulated across blocks until harvested
    /// with [`GossipScratch::take_counters`]. Write-only from the
    /// simulation's point of view (see [`crate::counters`]).
    counters: SimCounters,
}

impl GossipScratch {
    /// Creates an empty scratch (buffers grow on first use) on the
    /// default queue kind.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty scratch running on the given queue kind.
    pub fn with_queue(kind: QueueKind) -> Self {
        GossipScratch {
            queue: PackedQueue::with_kind(kind),
            ..Self::default()
        }
    }

    /// Creates a scratch pre-sized for `nodes` nodes and `directed_edges`
    /// directed adjacency entries (see
    /// [`TopologyView::directed_edge_count`]) on the default queue kind.
    pub fn with_capacity(nodes: usize, directed_edges: usize) -> Self {
        Self::with_capacity_and_queue(nodes, directed_edges, QueueKind::default())
    }

    /// Like [`GossipScratch::with_capacity`], on the given queue kind.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `directed_edges` reaches
    /// [`PACKED_PAYLOAD_CAP`]; use
    /// [`GossipScratch::try_with_capacity_and_queue`] for a checked
    /// error.
    pub fn with_capacity_and_queue(nodes: usize, directed_edges: usize, kind: QueueKind) -> Self {
        match Self::try_with_capacity_and_queue(nodes, directed_edges, kind) {
            Ok(scratch) => scratch,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked [`GossipScratch::with_capacity`]: returns
    /// [`NetsimError::WorldTooLarge`] instead of panicking when the
    /// requested world reaches the [`PACKED_PAYLOAD_CAP`] packed-event
    /// payload cap.
    pub fn try_with_capacity(nodes: usize, directed_edges: usize) -> Result<Self, NetsimError> {
        Self::try_with_capacity_and_queue(nodes, directed_edges, QueueKind::default())
    }

    /// Like [`GossipScratch::try_with_capacity`], on the given queue
    /// kind.
    pub fn try_with_capacity_and_queue(
        nodes: usize,
        directed_edges: usize,
        kind: QueueKind,
    ) -> Result<Self, NetsimError> {
        check_payload_cap(nodes, directed_edges)?;
        Ok(GossipScratch {
            source: NodeId::new(0),
            // The kernel queues about one key per node; only a fallback
            // to the event loop grows the queue past that.
            queue: PackedQueue::with_kind_and_capacity(kind, nodes),
            seq: 0,
            seen_stamp: Vec::new(),
            req_stamp: Vec::new(),
            labels: Vec::new(),
            first_arrival: Vec::with_capacity(nodes),
            delivery: Vec::with_capacity(directed_edges),
            delivery_stamp: Vec::with_capacity(directed_edges),
            epoch: 0,
            coverage: Vec::with_capacity(nodes),
            select: Vec::with_capacity(nodes),
            counters: SimCounters::ZERO,
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

    /// Which priority-queue implementation this scratch simulates on.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// The source of the last simulated block.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// First (full-block) arrival time of the last block at `v`.
    #[inline]
    pub fn arrival(&self, v: NodeId) -> SimTime {
        self.first_arrival[v.index()]
    }

    /// All first-arrival times of the last block, indexed by node.
    #[inline]
    pub fn arrivals(&self) -> &[SimTime] {
        &self.first_arrival
    }

    /// Number of nodes the last block reached.
    pub fn reached(&self) -> usize {
        self.first_arrival.iter().filter(|t| t.is_finite()).count()
    }

    /// Entry `e` of the last block's per-edge delivery matrix, indexed by
    /// the view's CSR edge offsets ([`TopologyView::edge_range`]): the
    /// first announcement (INV) or delivery (flood) time across the
    /// directed edge `e`'s *reverse* direction — i.e. from the neighbor
    /// `edges[e]` to `e`'s row owner — with `INFINITY` meaning never.
    ///
    /// The matrix is epoch-stamped: an entry not written by the last
    /// block reads as `INFINITY` without ever having been refilled.
    #[inline]
    pub fn delivery(&self, e: usize) -> SimTime {
        if self.delivery_stamp[e] == self.epoch {
            self.delivery[e]
        } else {
            SimTime::INFINITY
        }
    }

    /// Per-neighbor announcement/delivery times of node `v`, aligned with
    /// [`TopologyView::neighbors_raw`] — the zero-copy equivalent of one
    /// node's delivery log in
    /// [`reference::gossip_block`](crate::reference::gossip_block), with
    /// `INFINITY` for a neighbor that never delivered. The iterator is
    /// `Clone`, so min-then-normalize consumers can take two passes
    /// without allocating.
    #[inline]
    pub fn neighbor_deliveries<'a>(
        &'a self,
        view: &TopologyView,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = SimTime> + Clone + 'a {
        view.edge_range(v).map(move |e| self.delivery(e))
    }

    /// Computes λ(fraction) of the last block for every entry of
    /// `fractions` in one pass over a reusable sorted buffer, writing into
    /// `out` (`out.len()` must equal `fractions.len()`). Bit-identical to
    /// [`reference::coverage_times`](crate::reference::coverage_times),
    /// without its per-call allocation.
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
            &self.first_arrival,
            fractions,
            out,
            &mut self.coverage,
            &mut self.select,
        );
    }

    /// First arrival time of the *current batch message* at `v` — the
    /// batch-pass equivalent of [`GossipScratch::arrival`]. During a
    /// [`TopologyView::gossip_batch_into`] visit the raw `first_arrival`
    /// vector still holds stale times from earlier messages in the batch
    /// for nodes the current message has not reached, so validity is
    /// gated by the per-node epoch stamp.
    #[inline]
    pub fn batch_arrival(&self, v: NodeId) -> SimTime {
        if self.seen(v.index()) {
            self.first_arrival[v.index()]
        } else {
            SimTime::INFINITY
        }
    }

    /// Number of nodes the current batch message reached.
    pub fn batch_reached(&self) -> usize {
        (0..self.seen_stamp.len()).filter(|&v| self.seen(v)).count()
    }

    /// Batch-pass equivalent of [`GossipScratch::coverage_times_into`]:
    /// λ(fraction) of the *current batch message* for every entry of
    /// `fractions`. Entries of the arrival vector left stale by earlier
    /// messages in the batch are canonicalized to `INFINITY` in place
    /// first (harmless — their validity stamp already marked them dead).
    ///
    /// # Panics
    ///
    /// Panics if `out` and `fractions` have different lengths, or if any
    /// fraction is NaN (out-of-range fractions clamp to `[0, 1]`).
    pub fn batch_coverage_times_into(
        &mut self,
        view: &TopologyView,
        fractions: &[f64],
        out: &mut [SimTime],
    ) {
        for v in 0..self.first_arrival.len() {
            if self.seen_stamp[v] != self.epoch {
                self.first_arrival[v] = SimTime::INFINITY;
            }
        }
        coverage_times_from_arrivals(
            view,
            &self.first_arrival,
            fractions,
            out,
            &mut self.coverage,
            &mut self.select,
        );
    }

    /// Prepares the scratch for a batch of `batch_len` messages (a single
    /// message is a batch of one) on a network of `nodes` nodes and
    /// `directed_edges` CSR entries: the full O(n + m) refill of every
    /// epoch-stamped buffer runs at most once per batch (only on size
    /// change or when `batch_len` epoch bumps would wrap the counter),
    /// and each message inside the batch then costs one epoch bump —
    /// this is the batching amortization of the per-message flag and
    /// arrival-vector resets. The refill zeroes *every* stamp vector
    /// (older than any live epoch), because rolling the counter back
    /// would otherwise let stamps written under a previous counter alias
    /// a fresh epoch.
    ///
    /// Sets `epoch` to the stamp *preceding* the batch's first message;
    /// the per-message loop bumps it before simulating each message. The
    /// reservation covers the kernel's one bump per message; a fallback's
    /// extra bump checks the wrap itself ([`GossipScratch::bump_epoch`]).
    fn reset_batch(&mut self, nodes: usize, directed_edges: usize, batch_len: usize) {
        if self.delivery.len() != directed_edges
            || self.seen_stamp.len() != nodes
            || (self.epoch as u64) + (batch_len as u64) > u32::MAX as u64
        {
            self.refill_stamps(nodes, directed_edges);
        }
        self.first_arrival.clear();
        self.first_arrival.resize(nodes, SimTime::INFINITY);
    }

    /// The full O(n + m) refill: every stamped buffer reads as unset and
    /// the counter restarts at 0.
    fn refill_stamps(&mut self, nodes: usize, directed_edges: usize) {
        self.counters.epoch_refills += 1;
        self.delivery.clear();
        self.delivery.resize(directed_edges, SimTime::INFINITY);
        self.delivery_stamp.clear();
        self.delivery_stamp.resize(directed_edges, 0);
        self.seen_stamp.clear();
        self.seen_stamp.resize(nodes, 0);
        self.req_stamp.clear();
        self.req_stamp.resize(nodes, 0);
        self.labels.clear();
        self.labels.resize(nodes, Label::UNSET);
        self.epoch = 0;
    }

    /// Starts a fresh message epoch, refilling the stamps first if the
    /// counter would wrap.
    #[inline]
    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.refill_stamps(self.seen_stamp.len(), self.delivery.len());
        }
        self.epoch += 1;
        self.counters.epoch_bumps += 1;
    }

    /// Whether `v` holds the current message.
    #[inline]
    fn seen(&self, v: usize) -> bool {
        self.seen_stamp[v] == self.epoch
    }

    /// `v`'s kernel labels for the current message.
    #[inline]
    fn label(&self, v: usize) -> Label {
        let label = self.labels[v];
        if label.stamp == self.epoch {
            label
        } else {
            Label {
                stamp: self.epoch,
                ..Label::UNSET
            }
        }
    }

    /// Whether `v` already sent a GETDATA for the current message.
    #[inline]
    fn pulled(&self, v: usize) -> bool {
        self.req_stamp[v] == self.epoch
    }

    /// Records the (final at schedule time) delivery across directed edge
    /// `e`'s reverse direction, stamping the current block epoch.
    #[inline]
    fn record_delivery(&mut self, e: usize, t: SimTime) {
        debug_assert!(self.delivery_stamp[e] != self.epoch, "edge delivered twice");
        self.delivery[e] = t;
        self.delivery_stamp[e] = self.epoch;
        self.counters.gossip_deliveries += 1;
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
    /// level, writing arrivals and the per-edge delivery matrix into
    /// `scratch` without allocating (after `scratch` has warmed up to this
    /// network size once). A single message is a batch of one: this runs
    /// the same kernel, with the same event-loop fallback, as
    /// [`TopologyView::gossip_batch_into`] (see the module docs).
    ///
    /// Arrivals and delivery logs equal the seed's event-queue engine,
    /// [`reference::gossip_block`](crate::reference::gossip_block), bit
    /// for bit: the same `δ(u,v)` call directions (cached per directed
    /// edge), the same float order for every leg sum and the same
    /// transfer-time floats, with exact INV ties resolved by its
    /// insertion sequence on the fallback. In [`GossipMode::Flood`] with
    /// negligible transfer the arrivals are additionally bit-identical to
    /// [`TopologyView::broadcast_into`].
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
    /// down-link announcement records no delivery and offers its
    /// neighbour nothing (on the event loop it consumes exactly one
    /// sequence number, like an inert event, so the tie-break numbering
    /// of every later event is unchanged). GETDATA and the block transfer
    /// it pulls are reliable-but-slowed ([`BlockFaults::scaled`]): a
    /// delivered INV can always complete. The lens sees every announce
    /// leg exactly once on either path, so the fault tallies match.
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

    /// Simulates a batch of messages through **one shared scratch**:
    /// per-node epoch stamps replace the O(n) flag, label and
    /// arrival-vector resets, so each message inside the batch costs a
    /// single epoch bump plus its own kernel pass. With tens of thousands
    /// of small messages per round this amortization is the difference
    /// between the reset dominating and the propagation dominating.
    ///
    /// Messages are simulated strictly in batch order, each from time
    /// zero. After each message's pass ends, `visit(i, scratch)` runs
    /// with the scratch exposing *that message's* results:
    /// [`GossipScratch::batch_arrival`], [`GossipScratch::batch_reached`],
    /// [`GossipScratch::batch_coverage_times_into`],
    /// [`GossipScratch::delivery`] and
    /// [`GossipScratch::neighbor_deliveries`] (the delivery matrix is
    /// epoch-stamped per message, so the latter two need no batch-specific
    /// variant). Results are **bit-identical** to running
    /// [`TopologyView::gossip_into`] once per message on a fresh scratch,
    /// on either queue kind — exercised by `tests/gossip_batch.rs`.
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
    /// and the event loop for a message whose kernel pass met a tie.
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
        let m = self.edges.len();
        if let Err(e) = check_payload_cap(n, m) {
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
        scratch.reset_batch(n, m, batch.len());
        for (i, msg) in batch.iter().enumerate() {
            let before = scratch.counters;
            scratch.bump_epoch();
            if !self.settle(msg, scratch, faults) {
                // A fallback counts as the event loop alone: the kernel
                // pass's tallies are dropped, not doubled.
                scratch.counters = before;
                scratch.bump_epoch();
                self.event_loop(msg, scratch, faults);
                scratch.counters.gossip_fallbacks += 1;
            }
            visit(i, scratch);
        }
    }

    /// The label-setting kernel (see the module docs): settles the
    /// current message's nodes in have-time order, writing arrivals and
    /// the delivery matrix under the current epoch. Returns `false` as
    /// soon as an exact INV tie could decide a have-time; the caller then
    /// re-runs the message on the event loop under a fresh epoch, which
    /// rewrites every arrival and delivery written here (the reached set
    /// does not depend on ties).
    fn settle<L: FaultLens>(
        &self,
        msg: &BatchMessage,
        scratch: &mut GossipScratch,
        faults: L,
    ) -> bool {
        let config = &msg.config;
        let push_degree = push_degree(config.mode);
        let src = msg.source.as_u32();
        scratch.source = msg.source;
        scratch.queue.clear();
        scratch.labels[src as usize] = Label {
            stamp: scratch.epoch,
            push: SimTime::ZERO,
            ..Label::UNSET
        };
        scratch.queue.push(pack_settle(SimTime::ZERO, src));
        while let Some(word) = scratch.queue.pop() {
            scratch.counters.gossip_pops += 1;
            let u = word as u32;
            let ui = u as usize;
            if scratch.seen(ui) || word != pack_settle(scratch.labels[ui].key(), u) {
                continue; // settled already, or its key has moved since
            }
            let t = event_time(word);
            scratch.seen_stamp[ui] = scratch.epoch;
            scratch.first_arrival[ui] = t;
            // The miner announces its own block without validating it.
            let relay = self.relay[ui].relay_time(t, u == src);
            if relay.is_infinite() {
                continue; // silent, or a withholding miner
            }
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
                let (v, rev) = (v as usize, rev as usize);
                let push = (k as u32) < push_degree;
                let tv = if push {
                    relay + leg + self.edge_transfer(config, ui, v)
                } else {
                    relay + leg
                };
                scratch.record_delivery(rev, tv);
                let settled = scratch.seen(v);
                let mut label = scratch.label(v);
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
    /// included: the kernel's fallback. It simulates the current message
    /// under the current epoch, event for event like the oracle
    /// [`reference::gossip_block`](crate::reference::gossip_block):
    /// the same schedule order and the same time-tie insertion-sequence
    /// break.
    fn event_loop<L: FaultLens>(&self, msg: &BatchMessage, scratch: &mut GossipScratch, faults: L) {
        scratch.queue.clear();
        scratch.seq = 0;
        scratch.source = msg.source;
        let config = &msg.config;
        // Adding a zero transfer is a bitwise no-op on non-negative
        // times, so the negligible-block default skips the per-edge
        // computation.
        let no_transfer = config.transfer.block_size_mb() == 0.0;
        let push_degree = push_degree(config.mode);
        let src = msg.source.index();
        scratch.seen_stamp[src] = scratch.epoch;
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
                    // exactly one push or INV: its delivery time is
                    // final at schedule time and is written here
                    // directly. Events that can no longer have any
                    // other effect — the target already holds the
                    // message (push) or has already requested it (INV)
                    // — are provably no-ops at pop and skip the queue,
                    // consuming only their sequence number, as does an
                    // announcement the lens drops.
                    scratch.counters.gossip_relays += 1;
                    let u = event_payload(word);
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
                        let vi = v as usize;
                        if (k as u32) < push_degree {
                            let tv = if no_transfer {
                                t + leg
                            } else {
                                t + leg + self.edge_transfer(config, u, vi)
                            };
                            scratch.record_delivery(rev as usize, tv);
                            if scratch.seen(vi) {
                                scratch.skip_inert();
                            } else {
                                scratch.schedule(tv, EventKind::Block, v);
                            }
                        } else {
                            let tv = t + leg;
                            scratch.record_delivery(rev as usize, tv);
                            if scratch.seen(vi) || scratch.pulled(vi) {
                                scratch.skip_inert();
                            } else {
                                scratch.schedule(tv, EventKind::Inv, rev);
                            }
                        }
                    }
                }
                k if k == EventKind::Inv as u32 => {
                    // Payload: the entry for the announcer u within
                    // the announced-to node v's row (the delivery was
                    // already recorded at schedule time).
                    let rev = event_payload(word);
                    let fwd = self.reverse[rev] as usize;
                    let v = self.edges[fwd] as usize;
                    if !scratch.seen(v) && !scratch.pulled(v) {
                        scratch.req_stamp[v] = scratch.epoch;
                        let leg = faults.reliable(rev, self.delay[rev]);
                        scratch.schedule(t + leg, EventKind::GetData, fwd as u32);
                    }
                }
                k if k == EventKind::GetData as u32 => {
                    // Payload: the announcer u's entry for the
                    // requester v (u must hold the message, since it
                    // announced).
                    let e = event_payload(word);
                    debug_assert!(scratch.seen(self.edges[self.reverse[e] as usize] as usize));
                    let v = self.edges[e];
                    let leg = faults.reliable(e, self.delay[e]);
                    let transfer = if no_transfer {
                        SimTime::ZERO
                    } else {
                        let u = self.edges[self.reverse[e] as usize] as usize;
                        self.edge_transfer(config, u, v as usize)
                    };
                    scratch.schedule(t + leg + transfer, EventKind::Block, v);
                }
                _ => {
                    // Block. Payload: the receiving node v.
                    let v = event_payload(word);
                    if scratch.seen(v) {
                        continue;
                    }
                    scratch.seen_stamp[v] = scratch.epoch;
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
    use crate::reference;
    use crate::view::BroadcastScratch;
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

    /// The last block's whole delivery matrix, in CSR edge order.
    fn deliveries(view: &TopologyView, s: &GossipScratch) -> Vec<SimTime> {
        (0..view.directed_edge_count())
            .map(|e| s.delivery(e))
            .collect()
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
        scratch.reset_batch(view.len(), view.directed_edge_count(), 1);
        scratch.bump_epoch();
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
                for kind in [QueueKind::Calendar, QueueKind::BinaryHeap] {
                    let mut kernel = GossipScratch::with_queue(kind);
                    let mut events = GossipScratch::with_queue(kind);
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
                                view.gossip_into_faulted(
                                    msg.source,
                                    &config,
                                    &mut kernel,
                                    Some(&bf),
                                );
                                event_loop_into(view, msg, &mut events, &bf);
                                let what = format!(
                                    "world {w} round {round} {config:?} from {s} on {kind:?}"
                                );
                                assert_eq!(kernel.arrivals(), events.arrivals(), "{what}");
                                assert_eq!(
                                    deliveries(view, &kernel),
                                    deliveries(view, &events),
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
        }
        assert!(tie_fallbacks > 0, "the lossy tie grid must fall back");
    }

    #[test]
    fn flood_per_neighbor_matches_fast_engine_delivery() {
        let (pop, lat, topo) = random_world(40, 3);
        let view = TopologyView::new(&topo, &lat, &pop);
        let src = NodeId::new(5);
        let mut fast = BroadcastScratch::new();
        view.broadcast_into(src, &mut fast);
        let slow = gossip(&view, 5, &GossipConfig::flood());
        for v in (0..pop.len() as u32).map(NodeId::new) {
            for (e, u) in view.edge_range(v).zip(view.neighbors(v)) {
                let expect = fast.relay_start(u) + lat.delay(u, v);
                let t = slow.delivery(e);
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
        for i in (0..pop.len() as u32).filter(|&i| i != src) {
            let v = NodeId::new(i);
            // Every honest neighbor eventually announces to v.
            assert_eq!(
                out.neighbor_deliveries(&view, v)
                    .filter(|t| t.is_finite())
                    .count(),
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
    fn delivery_matrix_aligns_with_view_rows() {
        let (pop, lat, topo) = random_world(40, 21);
        let view = TopologyView::new(&topo, &lat, &pop);
        let cfg = GossipConfig::inv_getdata(0.0);
        let scratch = gossip(&view, 3, &cfg);
        let (_, logs) = reference::gossip_block(&topo, &lat, &pop, NodeId::new(3), &cfg);
        let mut total = 0;
        for i in 0..view.len() as u32 {
            let v = NodeId::new(i);
            let row: Vec<SimTime> = scratch.neighbor_deliveries(&view, v).collect();
            total += row.len();
            for (k, u) in view.neighbors(v).enumerate() {
                assert_eq!(
                    logs[v.index()].get(&u).copied(),
                    row[k].is_finite().then(|| row[k])
                );
                assert_eq!(scratch.delivery(view.edge_range(v).start + k), row[k]);
            }
        }
        assert_eq!(total, view.directed_edge_count());
    }

    #[test]
    fn epoch_wrap_fully_clears_delivery_matrix() {
        let (pop, lat, topo) = random_world(40, 77);
        let view = TopologyView::new(&topo, &lat, &pop);
        let cfg = GossipConfig::inv_getdata(0.0);
        let mut scratch = GossipScratch::new();
        // Populate stamps at a low epoch, then force the counter to the
        // wrap point: without the full refill, entries stamped `1` by
        // the pre-wrap block would alias the post-wrap epoch 1.
        view.gossip_into(NodeId::new(1), &cfg, &mut scratch);
        assert_eq!(scratch.epoch, 1);
        scratch.epoch = u32::MAX;
        view.gossip_into(NodeId::new(2), &cfg, &mut scratch);
        assert_eq!(scratch.epoch, 1, "wrap restarts the epoch counter");
        let mut fresh = GossipScratch::new();
        view.gossip_into(NodeId::new(2), &cfg, &mut fresh);
        assert_eq!(scratch.first_arrival, fresh.first_arrival);
        assert_eq!(scratch.delivery, fresh.delivery, "matrix fully cleared");
        assert_eq!(scratch.delivery_stamp, fresh.delivery_stamp);
        assert_eq!(deliveries(&view, &scratch), deliveries(&view, &fresh));
    }

    #[test]
    fn batch_near_epoch_wrap_refills_stamps() {
        let (pop, lat, topo) = random_world(30, 78);
        let view = TopologyView::new(&topo, &lat, &pop);
        let batch: Vec<BatchMessage> = [3u32, 9, 21]
            .into_iter()
            .map(|s| BatchMessage {
                source: NodeId::new(s),
                config: GossipConfig::inv_getdata(0.0),
            })
            .collect();
        let single = |s: &GossipScratch| {
            let deliveries: Vec<SimTime> = (0..view.directed_edge_count())
                .map(|e| s.delivery(e))
                .collect();
            (s.first_arrival.clone(), deliveries)
        };
        for kind in [QueueKind::Calendar, QueueKind::BinaryHeap] {
            let mut scratch = GossipScratch::with_queue(kind);
            let mut arrivals = Vec::new();
            view.gossip_batch_into(&batch, &mut scratch, |_, s| {
                arrivals.push(
                    (0..30)
                        .map(|v| s.batch_arrival(NodeId::new(v)))
                        .collect::<Vec<_>>(),
                );
            });
            // Park the counter where the next 3-message batch cannot fit
            // without wrapping; reset_batch must refill instead.
            scratch.epoch = u32::MAX - 2;
            let mut wrapped = Vec::new();
            view.gossip_batch_into(&batch, &mut scratch, |_, s| {
                wrapped.push(
                    (0..30)
                        .map(|v| s.batch_arrival(NodeId::new(v)))
                        .collect::<Vec<_>>(),
                );
            });
            assert!(scratch.epoch <= 3, "refill restarted the counter");
            assert_eq!(arrivals, wrapped);

            // Single messages across the wrap: the first takes the last
            // epoch before it, the second must refill instead of wrapping.
            scratch.epoch = u32::MAX - 1;
            for (k, msg) in batch.iter().enumerate() {
                let mut fresh = GossipScratch::with_queue(kind);
                view.gossip_into(msg.source, &msg.config, &mut fresh);
                view.gossip_into(msg.source, &msg.config, &mut scratch);
                assert_eq!(single(&fresh), single(&scratch), "message {k} ({kind:?})");
                if k == 0 {
                    assert_eq!(scratch.epoch, u32::MAX, "one bump fits before the wrap");
                }
            }
            assert_eq!(
                scratch.epoch, 2,
                "the wrap refilled and restarted the counter"
            );
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
    fn coverage_fractions_clamp_but_reject_nan() {
        let (pop, lat, topo) = random_world(30, 93);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = gossip(&view, 0, &GossipConfig::flood());
        let cov = reference::coverage_times(scratch.arrivals(), &pop, &[1.7, 1.0, -0.3, 0.0]);
        assert_eq!(
            cov[0], cov[1],
            "over-unity fractions clamp to full coverage"
        );
        assert_eq!(
            cov[2], cov[3],
            "negative fractions clamp to the first arrival"
        );
        let mut clamped = [SimTime::ZERO; 2];
        scratch.coverage_times_into(&view, &[-1.0, 2.0], &mut clamped);
        let mut exact = [SimTime::ZERO; 2];
        scratch.coverage_times_into(&view, &[0.0, 1.0], &mut exact);
        assert_eq!(clamped, exact);
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
                assert_eq!(
                    s.batch_arrival(v),
                    single.arrival(v),
                    "message {i} node {v}"
                );
            }
            for e in 0..view.directed_edge_count() {
                assert_eq!(s.delivery(e), single.delivery(e), "message {i} edge {e}");
            }
            assert_eq!(s.batch_reached(), single.reached());
            let mut via_batch = [SimTime::ZERO; 2];
            s.batch_coverage_times_into(&view, &[0.9, 0.5], &mut via_batch);
            let mut via_single = [SimTime::ZERO; 2];
            single.coverage_times_into(&view, &[0.9, 0.5], &mut via_single);
            assert_eq!(via_batch, via_single, "message {i} coverage");
        });
        assert_eq!(visited, batch.len());
    }

    #[test]
    fn scratch_coverage_matches_reference_coverage() {
        let (pop, lat, topo) = random_world(60, 29);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = gossip(&view, 7, &GossipConfig::inv_getdata(0.0));
        let fractions = [0.5, 0.9, 1.0];
        let mut multi = [SimTime::ZERO; 3];
        scratch.coverage_times_into(&view, &fractions, &mut multi);
        let expected = reference::coverage_times(scratch.arrivals(), &pop, &fractions);
        assert_eq!(multi.as_slice(), expected.as_slice());
        assert_eq!(multi[1], coverage(&view, &mut scratch, 0.9));
    }
}
