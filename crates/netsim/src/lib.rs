//! # perigee-netsim
//!
//! Discrete-event blockchain p2p network simulator — the substrate of the
//! [Perigee (PODC 2020)](https://doi.org/10.1145/3382734.3405704)
//! reproduction.
//!
//! The crate implements the paper's §2 network model from scratch:
//!
//! * [`Population`] — nodes with region, hash power `fv`, validation delay
//!   `Δv`, optional metric-space coordinates, bandwidth and (adversarial)
//!   behaviour, built via [`PopulationBuilder`] or the
//!   [`dataset::synthetic_bitnodes`] stand-in for the paper's Bitnodes crawl.
//! * [`LatencyModel`] — symmetric `δ(u,v)` oracles:
//!   [`GeoLatencyModel`] (iPlane-flavoured region-pair latencies, §5.1),
//!   [`MetricLatencyModel`] (`[0,1]^d` embedding, §3.1) and
//!   [`OverrideLatencyModel`] (fast miner/relay links, §5.4).
//! * [`Topology`] — the overlay graph with Bitcoin's `dout`/`din` connection
//!   limits and pinned (relay) edges.
//! * [`TopologyView`] — the propagation substrate underneath both engines:
//!   a frozen CSR snapshot of the overlay with per-edge latencies, reverse
//!   edge indices, relay profiles and link rates precomputed once. Between
//!   rounds it is patched *incrementally*:
//!   [`TopologyView::apply_rewiring`] merges a [`RoundDelta`] (the round's
//!   net dropped/refilled edges) into the CSR arrays in one linear pass,
//!   paying latency-model calls only for added edges — field-for-field
//!   equal to a fresh rebuild, at ~2·n instead of ~14·n delay evaluations.
//! * [`BroadcastScratch`] — reusable state of the fast analytic
//!   propagation engine, [`TopologyView::broadcast_into`]: a Dijkstra over
//!   the store-validate-forward flood, exposing first arrivals and relay
//!   starts, from which the per-neighbor delivery times `tᵇu,v` that
//!   Perigee observes follow as `relay_start(u) + δ(u,v)`. One flood body
//!   serves both [`TopologyView::broadcast_into`] and
//!   [`TopologyView::broadcast_into_faulted`]: it is generic over a
//!   crate-private link-fault lens whose no-fault instance compiles to
//!   the plain Dijkstra.
//! * [`GossipScratch`] — reusable message-level state (packed event
//!   queue, flat per-edge delivery matrix, epoch-stamped per-node flags)
//!   for direct flood, Bitcoin's `INV`/`GETDATA` exchange or the
//!   push/pull hybrid, with bandwidth, cross-validated against the
//!   analytic engine. One event loop serves
//!   [`TopologyView::gossip_batch_into`], [`TopologyView::gossip_into`]
//!   and [`TopologyView::gossip_into_faulted`]: a single message is a
//!   batch of one, over the same fault lens.
//! * [`reference`](mod@reference) — the crate's test oracles, kept off every hot path:
//!   the seed's event-queue engine [`reference::gossip_block`] and the
//!   sort-and-scan coverage time [`reference::coverage_times`].
//! * [`pq`] — the deterministic calendar/bucket priority queue both
//!   scratch engines run on by default ([`QueueKind::Calendar`]): exact
//!   packed keys inside sub-millisecond buckets, pop order bit-identical
//!   to the reference `BinaryHeap` ([`QueueKind::BinaryHeap`], kept
//!   runtime-selectable for the cross-engine equivalence suite).
//! * [`MinerSampler`] — hash-power-proportional block sources.
//! * [`dynamics`] — node lifetime as a simulated process:
//!   [`ChurnProcess`] (Poisson arrivals, lognormal/Weibull/exponential
//!   session lengths, deterministic [`LifetimeEvent`] trace replay — all
//!   seeded and bit-reproducible) plans each round's [`WorldDelta`];
//!   [`Population`] grows/shrinks through stable-id `spawn`/`retire` with
//!   a free-list (ids are never reused *between* compactions, dead slots
//!   are skipped; an explicit [`IdRemap`]-driven
//!   [`Population::compact`] renumbers survivors when the free-list
//!   grows large — see the `population` module docs for the contract),
//!   and
//!   [`TopologyView::apply_world_delta`] folds arrivals, departures and
//!   the round's rewiring into the carried CSR snapshot in one linear
//!   pass — latency-model calls only for new edges, zero full rebuilds.
//! * [`traffic`] — continuous transaction-stream workloads: a seeded
//!   [`TrafficConfig`] of Poisson-originating message classes (per-class
//!   size and fan-out policy — flood, `INV`/`GETDATA`, or the push/pull
//!   hybrid [`GossipMode::PushPull`](gossip::GossipMode)), generated as
//!   pure hashes and simulated in bulk through
//!   [`TopologyView::gossip_batch_into`]: tens of thousands of messages
//!   share one announcement pass over a [`GossipScratch`], per-batch
//!   epoch stamps replacing the per-message O(n + m) buffer resets —
//!   bit-identical to one [`TopologyView::gossip_into`] call per message.
//! * [`faults`] — link-level fault injection: a seeded [`FaultPlan`]
//!   (drop/jitter/duplication rates, timed windows, link flaps,
//!   partitions with heal, regional brownouts) compiled per round into a
//!   [`RoundFaults`] over the view's CSR edge index and threaded through
//!   both engines via [`TopologyView::broadcast_into_faulted`] and
//!   [`TopologyView::gossip_into_faulted`].
//!
//! ## Snapshot lifecycle and determinism
//!
//! A [`TopologyView`] freezes `(topology, latency, population)` at a point
//! in time: build one per Perigee round (connection updates run
//! synchronously *between* rounds, §2.1, so a round sees a constant
//! overlay), push all of the round's blocks through it — from as many
//! threads as you like, each with its own [`BroadcastScratch`] or
//! [`GossipScratch`] — and either drop it before the next rewiring or
//! carry it forward through [`TopologyView::apply_rewiring`]. Both scratch
//! engines allocate nothing per block after warming up to the network
//! size, and a result depends only on the view and the block, never on
//! what the scratch ran before or on which thread: a reused scratch is
//! **bit-identical** to a fresh one. Message-level runs are bit-identical
//! to the event-queue oracle [`reference::gossip_block`] (identical
//! adjacency order, identical `δ(u,v)` values, identical tie-breaking),
//! and flood-mode gossip reproduces the analytic flood. Blocks within a
//! round are mutually independent (no RNG is consumed inside a block
//! simulation), which is what makes the round engine's parallel fan-out
//! exactly reproducible.
//!
//! Fault injection keeps every one of those guarantees: a [`FaultPlan`]'s
//! decisions are pure hashes of `(seed, round, block, edge)` — never RNG
//! draws — applied to the announcement leg of each directed edge at the
//! moment it is relaxed/scheduled (drops consume an event sequence number
//! without scheduling, exactly like an inert event), so faulted floods
//! are bit-identical across thread counts and queue kinds, and an inert
//! plan is bit-identical to no plan at all. See the [`faults`] module
//! docs for where each fault lands in the event pipeline.
//!
//! ## Example: measure a block broadcast
//!
//! ```
//! use perigee_netsim::{
//!     BroadcastScratch, ConnectionLimits, GeoLatencyModel, MinerSampler, NodeId,
//!     PopulationBuilder, SimTime, Topology, TopologyView,
//! };
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let population = PopulationBuilder::new(100).build(&mut rng)?;
//! let latency = GeoLatencyModel::new(&population, 7);
//!
//! // A ring topology, for illustration.
//! let mut topology = Topology::new(100, ConnectionLimits::paper_default());
//! for i in 0..100u32 {
//!     topology.connect(NodeId::new(i), NodeId::new((i + 1) % 100))?;
//! }
//!
//! // One view per overlay, one scratch reused for every block.
//! let view = TopologyView::new(&topology, &latency, &population);
//! let mut scratch = BroadcastScratch::new();
//! let miner = MinerSampler::new(&population).sample(&mut rng);
//! view.broadcast_into(miner, &mut scratch);
//! let mut lambda = [SimTime::ZERO];
//! scratch.coverage_times_into(&view, &[0.9], &mut lambda);
//! println!("90% hash power reached in {}", lambda[0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod counters;
pub mod dataset;
pub mod dynamics;
pub mod error;
pub mod event;
pub mod faults;
pub mod gossip;
pub mod graph;
pub mod latency;
pub mod mining;
pub mod node;
pub mod population;
pub mod pq;
pub mod reference;
pub mod time;
pub mod traffic;
pub mod view;

pub use bandwidth::TransferModel;
pub use counters::SimCounters;
pub use dynamics::{
    ChurnPlan, ChurnProcess, LifetimeEvent, LifetimeEventKind, SessionDist, WorldDelta,
};
pub use error::{ConnectError, NetsimError};
pub use event::EventQueue;
pub use faults::{
    BlockFaults, FaultPlan, FaultWindow, LegOutcome, LinkFaultRates, LinkFlaps, PartitionWindow,
    RegionalWindow, RoundFaults,
};
pub use gossip::{BatchMessage, GossipConfig, GossipMode, GossipScratch, PACKED_PAYLOAD_CAP};
pub use graph::{ConnectionLimits, Topology};
pub use latency::{
    GeoLatencyModel, LatencyModel, MetricLatencyModel, OverrideLatencyModel, ACCESS_DELAY_RANGE_MS,
    REGION_CENTERS_MS, REGION_RADIUS_MS,
};
pub use mining::MinerSampler;
pub use node::{Behavior, NodeId, NodeProfile, Region};
pub use population::{HashPowerDist, IdRemap, Population, PopulationBuilder, ValidationDist};
pub use pq::{CalendarQueue, PackedQueue, QueueKind, TimeKey};
pub use time::SimTime;
pub use traffic::{FanoutPolicy, TrafficClass, TrafficConfig, TrafficMessage};
pub use view::{BroadcastScratch, RoundDelta, TopologyView};
