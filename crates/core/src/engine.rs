//! The Perigee round engine (Algorithm 1).
//!
//! Each round: mine `|B|` blocks from hash-power-proportional sources,
//! flood them, collect per-neighbor observations, let every adopting node
//! retain its best neighbors, and refill freed slots with random
//! exploration connections. Connection updates execute synchronously at the
//! end of the round (§2.1).
//!
//! [`PerigeeEngine::run_round`] is a short driver over one private method
//! per phase, each named after the telemetry lap that times it.

#![warn(clippy::too_many_lines)]

use rand::seq::SliceRandom;
use rand::Rng;

use perigee_metrics::P2Quantile;
use perigee_netsim::{
    BlockFaults, ChurnProcess, FaultPlan, GossipConfig, GossipScratch, LatencyModel, MinerSampler,
    NetsimError, NodeId, NodeProfile, Population, QueueKind, Region, RoundDelta, RoundFaults,
    SimCounters, SimTime, Topology, TopologyView, TrafficConfig, TrafficMessage, WorldDelta,
};
use perigee_telemetry::{PhaseTimer, RunTelemetry};

use crate::audit::{audit_world, AuditReport};
use crate::config::PerigeeConfig;
use crate::discovery::AddressBook;
use crate::liveness::{LivenessTracker, PeerHealth};
use crate::observation::{
    ObservationBackend, ObservationCollector, ObservationStore, RoundStore, SketchObservationStore,
};
use crate::score::{NodeHistory, ScoringMethod, SelectionStrategy};
use crate::snapshot::{RunSnapshot, SnapshotError};

/// Blocks (or messages) per dense chunk under the sketch observation
/// backend: recording always fills exact dense chunks, and sketch mode
/// caps them at this many items. The fan-out folds each wave of chunks
/// (one per pool thread) into the per-edge sketches before recording
/// the next, which bounds the round's transient dense memory at
/// `SKETCH_CHUNK_BLOCKS × edges × 4` bytes per pool thread, whatever
/// `blocks_per_round` or the traffic load.
const SKETCH_CHUNK_BLOCKS: usize = 8;

/// Per-round summary statistics (used for convergence plots and the
/// dynamic-world λ-curve tracking).
///
/// Deliberately `Copy` with a fixed field set: this is the stable,
/// allocation-free per-round API that harnesses collect by value in
/// tight loops. Open-ended per-round detail (traffic mix, hot-path
/// counters, phase timings, view-rebuild and compaction progress) grows
/// on the telemetry side instead — each round's
/// [`TraceRecord`](perigee_telemetry::TraceRecord) is the extensible
/// self-describing surface, emitted when a [`RunTelemetry`] handle is
/// installed ([`PerigeeEngine::set_telemetry`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Mean λ(90%) over the round's blocks, in ms.
    pub mean_lambda90_ms: f64,
    /// Mean λ(50%) over the round's blocks, in ms.
    pub mean_lambda50_ms: f64,
    /// Streaming 90th percentile of the round's per-block λ90 values
    /// (ms) — a [`P2Quantile`] estimate, exact for rounds of ≤ 5 blocks.
    pub p90_lambda90_ms: f64,
    /// Blocks mined this round.
    pub blocks: usize,
    /// Outgoing connections dropped by scoring decisions this round.
    pub dropped: usize,
    /// Nodes that joined this round.
    pub joined: usize,
    /// Nodes that departed this round.
    pub departed: usize,
    /// Nodes that skipped scoring this round because their blocks-seen
    /// count deviated from the round's block count beyond the
    /// [`PerigeeConfig::stability_tolerance`] — they still explored.
    pub gated: usize,
    /// Outgoing connections force-dropped by the peer-liveness layer
    /// (after [`EVICT_AFTER`](crate::liveness::EVICT_AFTER) consecutive
    /// silent rounds).
    pub evicted: usize,
}

/// Per-class summary of one round's traffic phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficClassRoundStats {
    /// The class's reporting label ([`TrafficClass::name`](perigee_netsim::TrafficClass)).
    pub name: String,
    /// Messages this class originated this round.
    pub messages: usize,
    /// Mean λ(90%) over the class's messages, in ms (∞ when the class
    /// originated nothing, or when some message never reached 90%).
    pub mean_lambda90_ms: f64,
    /// Mean λ(50%) over the class's messages, in ms.
    pub mean_lambda50_ms: f64,
}

/// Summary of one round's traffic phase: the continuous
/// transaction-stream load that rode the round's snapshot alongside its
/// blocks. Produced by [`PerigeeEngine::run_round`] when a workload is
/// installed ([`PerigeeEngine::set_traffic`]); read it back through
/// [`PerigeeEngine::last_traffic_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRoundStats {
    /// Total messages originated this round, over all classes.
    pub messages: usize,
    /// Per-class statistics, in [`TrafficConfig::classes`] order.
    pub per_class: Vec<TrafficClassRoundStats>,
}

/// Drives Perigee rounds over a simulated network.
///
/// Non-adopting nodes (see [`PerigeeEngine::set_adopters`]) keep their
/// initial outgoing connections forever — used for the incremental
/// deployment experiment.
///
/// # Examples
///
/// ```
/// use perigee_core::{PerigeeConfig, PerigeeEngine, ScoringMethod};
/// use perigee_netsim::{ConnectionLimits, GeoLatencyModel, PopulationBuilder};
/// use perigee_topology::{RandomBuilder, TopologyBuilder};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pop = PopulationBuilder::new(120).build(&mut rng)?;
/// let lat = GeoLatencyModel::new(&pop, 1);
/// let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
///
/// let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
/// cfg.blocks_per_round = 10; // keep the doc test fast
/// let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg)?;
/// let stats = engine.run_round(&mut rng);
/// assert_eq!(stats.blocks, 10);
/// # Ok(())
/// # }
/// ```
pub struct PerigeeEngine<L> {
    population: Population,
    latency: L,
    topology: Topology,
    strategy: Box<dyn SelectionStrategy>,
    /// Per-node cross-round score memory, one entry per node slot: the
    /// [`NodeHistory`] each node's [`SelectionStrategy::retain`] call
    /// reads and updates (UCB's `T̿u,v`; blank under Vanilla and Subset).
    /// The engine forgets an entry when its connection goes, follows the
    /// node set under churn, and compacts, audits and checkpoints the
    /// array with the rest of the world.
    histories: Vec<NodeHistory>,
    sampler: MinerSampler,
    config: PerigeeConfig,
    adopters: Vec<bool>,
    /// How blocks propagate: the §2 flood by default, or any message-level
    /// [`GossipConfig`] ([`PerigeeEngine::set_propagation`]). Its
    /// [`GossipConfig::is_analytic`] picks the kernel.
    propagation: GossipConfig,
    address_book: Option<AddressBook>,
    round: usize,
    /// The CSR snapshot carried across rounds: after each rewiring the
    /// engine patches it in place ([`TopologyView::apply_delta`], which
    /// also follows a moved node set) instead of rebuilding — only the
    /// changed edges pay a latency-model call. Invalidated (`None`) only
    /// by out-of-band population edits
    /// ([`PerigeeEngine::population_mut`]); churn and growth patch.
    view: Option<TopologyView>,
    /// How many times a round had to build the snapshot from scratch —
    /// 1 for the initial build, and +1 per out-of-band invalidation.
    /// Churny runs must keep this at 1 (the acceptance gate of the
    /// dynamics subsystem).
    view_rebuilds: usize,
    /// The installed node-lifetime process, if the world is dynamic.
    churn: Option<ChurnProcess>,
    /// The installed link-fault schedule, if any: compiled to a
    /// [`RoundFaults`] at the top of every round and threaded through
    /// the propagation phase. `None` (the default) takes the exact
    /// pre-fault code path.
    fault_plan: Option<FaultPlan>,
    /// The installed continuous-traffic workload, if any. Pure config:
    /// each round's message list is regenerated from
    /// `(seed, round, class, node)` hashes, so checkpoints carry the
    /// config alone and a resumed run replays the identical stream.
    traffic: Option<TrafficConfig>,
    /// Per-class statistics of the most recent round's traffic phase
    /// (`None` until the first round runs with a workload installed).
    last_traffic: Option<TrafficRoundStats>,
    /// Peer-liveness state; present iff the config enables the layer.
    liveness: Option<LivenessTracker>,
    /// The scoring method the strategy was built from — recorded so a
    /// checkpoint can rebuild the same strategy on resume.
    method: ScoringMethod,
    /// How many free-list compactions this run has performed (see
    /// [`PerigeeEngine::compact`]). Carried in checkpoints: a resumed run
    /// continues the same renumbered id space, so the epoch is part of
    /// the world's identity, not a statistic.
    compaction_epoch: u64,
    /// Invariant-auditor cadence: `0` (the default) never audits;
    /// `k > 0` runs [`PerigeeEngine::audit`] after every `k`-th round.
    audit_every: usize,
    /// How many auditor passes have run.
    audits_run: usize,
    /// Every non-clean report the per-round auditor produced, in round
    /// order (clean passes are counted, not stored).
    audit_failures: Vec<AuditReport>,
    /// The run-telemetry handle, if observation is enabled
    /// ([`PerigeeEngine::set_telemetry`]). `None` — the default — is the
    /// zero-cost path: no phase timer reads the clock and no trace
    /// records are built. Strictly observational either way; never
    /// captured in checkpoints.
    telemetry: Option<RunTelemetry>,
}

/// The propagation phase of one round: the flat network-wide observation
/// store plus the per-block coverage times, in block order.
///
/// Produced by [`PerigeeEngine::observe_round`]; block order is the miner
/// order passed in, whatever the parallel execution interleaving, so the
/// contents are bit-identical between parallel and sequential runs.
#[derive(Debug, Clone)]
pub struct RoundObservations {
    observations: RoundStore,
    lambda90_ms: Vec<f64>,
    lambda50_ms: Vec<f64>,
    seen: Vec<u32>,
    counters: SimCounters,
}

impl RoundObservations {
    /// The round's observation store (dense matrix or per-edge sketches,
    /// per [`PerigeeConfig::observation_backend`](crate::PerigeeConfig));
    /// per-node views via [`RoundStore::node`].
    pub fn observations(&self) -> &RoundStore {
        &self.observations
    }

    /// λ(90%) of each block, in ms, in block order.
    pub fn lambda90_ms(&self) -> &[f64] {
        &self.lambda90_ms
    }

    /// λ(50%) of each block, in ms, in block order.
    pub fn lambda50_ms(&self) -> &[f64] {
        &self.lambda50_ms
    }

    /// How many of the round's blocks each node received (finite arrival
    /// time), in id order — the signal stability gating compares against
    /// the round's block count.
    pub fn seen(&self) -> &[u32] {
        &self.seen
    }

    /// The round's hot-path event tallies, merged over every worker
    /// scratch in block order (merge is order-independent, so the totals
    /// are identical across thread counts). Tallying is unconditional
    /// and write-only — reading or ignoring these never changes results.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Decomposes into `(observations, lambda90_ms, lambda50_ms, seen)`.
    /// Read [`RoundObservations::counters`] first if you need the
    /// hot-path tallies.
    pub fn into_parts(self) -> (RoundStore, Vec<f64>, Vec<f64>, Vec<u32>) {
        (
            self.observations,
            self.lambda90_ms,
            self.lambda50_ms,
            self.seen,
        )
    }
}

impl<L: std::fmt::Debug> std::fmt::Debug for PerigeeEngine<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerigeeEngine")
            .field("nodes", &self.population.len())
            .field("round", &self.round)
            .field("strategy", &self.strategy.name())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<L: LatencyModel> PerigeeEngine<L> {
    /// Creates an engine where every node runs Perigee with `method`.
    ///
    /// # Errors
    ///
    /// Returns the validation error message for inconsistent configs,
    /// mismatched population/topology sizes, or a node whose validation
    /// delay or [`Behavior::Delay`](perigee_netsim::Behavior::Delay) extra
    /// is negative, NaN or infinite.
    pub fn new(
        population: Population,
        latency: L,
        topology: Topology,
        method: ScoringMethod,
        config: PerigeeConfig,
    ) -> Result<Self, &'static str> {
        config.validate()?;
        if population.len() != topology.len() {
            return Err("population and topology sizes differ");
        }
        if !population.iter().all(NodeProfile::has_valid_delays) {
            return Err("validation and relay delays must be finite and non-negative");
        }
        let strategy = method.strategy(
            population.len(),
            config.retain_count(),
            config.percentile,
            config.ucb_c,
        );
        let sampler = MinerSampler::new(&population);
        let adopters = vec![true; population.len()];
        let histories = vec![NodeHistory::default(); population.len()];
        let liveness = config
            .liveness
            .enabled
            .then(|| LivenessTracker::new(population.len()));
        Ok(PerigeeEngine {
            population,
            latency,
            topology,
            strategy,
            histories,
            sampler,
            config,
            adopters,
            propagation: GossipConfig::flood(),
            address_book: None,
            round: 0,
            view: None,
            view_rebuilds: 0,
            churn: None,
            fault_plan: None,
            traffic: None,
            last_traffic: None,
            liveness,
            method,
            compaction_epoch: 0,
            audit_every: 0,
            audits_run: 0,
            audit_failures: Vec::new(),
            telemetry: None,
        })
    }

    /// Installs a [`RunTelemetry`] handle: from the next round on,
    /// [`PerigeeEngine::run_round`] times its phases, harvests the
    /// hot-path [`SimCounters`] from every propagation scratch, and
    /// emits one self-describing
    /// [`TraceRecord`](perigee_telemetry::TraceRecord) per round into
    /// the handle (and its sink, if one is attached).
    ///
    /// Telemetry is **strictly observational**: it consumes no RNG,
    /// never feeds back into any simulation decision, and the counters
    /// it harvests are tallied unconditionally either way — so an
    /// instrumented run is bit-identical to an uninstrumented one,
    /// across thread counts (the `telemetry`
    /// integration suite enforces this). Without a handle the engine
    /// takes the zero-cost path: no clock reads, no record building.
    ///
    /// The handle is *not* captured by [`PerigeeEngine::checkpoint`]
    /// (sinks hold live I/O); reinstall one after
    /// [`PerigeeEngine::resume`] to keep tracing.
    pub fn set_telemetry(&mut self, telemetry: RunTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The installed telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&RunTelemetry> {
        self.telemetry.as_ref()
    }

    /// Removes and returns the installed telemetry handle (flush its
    /// sink via [`RunTelemetry::flush`] when the run is done); later
    /// rounds take the zero-cost disabled path again.
    pub fn take_telemetry(&mut self) -> Option<RunTelemetry> {
        self.telemetry.take()
    }

    /// Installs a link-fault schedule: from the next round on, every
    /// block's propagation runs under the plan's per-link drops, delay
    /// jitter, duplication, flaps, partitions and regional degradation
    /// windows (compiled once per round against the current CSR
    /// snapshot). Fault decisions are pure hashes of
    /// `(plan seed, round, global block index, edge)` — they consume no
    /// protocol RNG, so faulted runs stay bit-identical across thread
    /// counts, and an [`FaultPlan::inert`] plan
    /// reproduces the no-plan run exactly.
    ///
    /// Only [`PerigeeEngine::run_round`] is affected:
    /// [`PerigeeEngine::evaluate`], [`PerigeeEngine::observe_round`] and
    /// [`evaluate_topology`] keep measuring the overlay's intrinsic
    /// quality on healthy links.
    ///
    /// # Errors
    ///
    /// Returns the plan's [`FaultPlan::validate`] error, leaving any
    /// previously installed plan in place.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), &'static str> {
        plan.validate()?;
        self.fault_plan = Some(plan);
        Ok(())
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Removes and returns the installed fault schedule; links heal
    /// from the next round on.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault_plan.take()
    }

    /// Installs a continuous transaction-stream workload: from the next
    /// round on, [`PerigeeEngine::run_round`] generates the round's
    /// seeded Poisson message list
    /// ([`TrafficConfig::messages_for_round`]), pushes it through the
    /// carried snapshot in batched announcement passes
    /// ([`TopologyView::gossip_batch_into`]), merges the per-message
    /// observation rows in behind the round's block rows — so scoring
    /// and peer liveness read the **combined** block + transaction load
    /// — and records per-class λ-statistics
    /// ([`PerigeeEngine::last_traffic_stats`]).
    ///
    /// Origination counts are pure hashes of `(seed, round, class,
    /// node)`: installing traffic consumes **no RNG**, so the block
    /// path's random stream is untouched and rounds stay bit-identical
    /// across thread counts. Two deliberate boundaries:
    /// stability gating keeps comparing blocks-seen against the round's
    /// *block* count only (transaction weather must not gate scoring),
    /// and traffic runs fault-free even under an installed
    /// [`FaultPlan`] (link faults are a block-path concern; the stream
    /// measures steady-state relay cost).
    ///
    /// # Errors
    ///
    /// Returns the config's [`TrafficConfig::validate`] error, leaving
    /// any previously installed workload in place.
    pub fn set_traffic(&mut self, traffic: TrafficConfig) -> Result<(), NetsimError> {
        traffic.validate()?;
        self.traffic = Some(traffic);
        Ok(())
    }

    /// The installed traffic workload, if any.
    pub fn traffic(&self) -> Option<&TrafficConfig> {
        self.traffic.as_ref()
    }

    /// Removes and returns the installed traffic workload; rounds go
    /// back to blocks-only from the next one on. The last traffic
    /// round's statistics stay readable.
    pub fn take_traffic(&mut self) -> Option<TrafficConfig> {
        self.traffic.take()
    }

    /// Per-class statistics of the most recent round's traffic phase,
    /// or `None` when no round has run with a workload installed.
    pub fn last_traffic_stats(&self) -> Option<&TrafficRoundStats> {
        self.last_traffic.as_ref()
    }

    /// The peer-liveness state, if
    /// [`LivenessConfig::enabled`](crate::LivenessConfig::enabled) —
    /// observability for experiments
    /// (e.g. counting active reconnect backoffs).
    pub fn liveness_tracker(&self) -> Option<&LivenessTracker> {
        self.liveness.as_ref()
    }

    /// Installs a node-lifetime process: from the next round on,
    /// [`PerigeeEngine::run_round`] consumes it between scoring and
    /// rewiring — departures are torn out of every peer list (survivors
    /// backfill through the normal exploration/discovery path), arrivals
    /// spawn with fresh stable ids and bootstrap random neighbors, and
    /// the carried snapshot is patched through
    /// [`TopologyView::apply_delta`] instead of being rebuilt.
    /// The process is attached to the current population, so existing
    /// nodes get session lengths too.
    ///
    /// # Panics
    ///
    /// Panics, naming the id, if the process already schedules an expiry
    /// for a slot outside the population (see [`ChurnProcess::attach`]).
    pub fn set_churn(&mut self, mut process: ChurnProcess) {
        process.attach(&self.population);
        self.churn = Some(process);
    }

    /// The installed lifetime process, if any.
    pub fn churn_process(&self) -> Option<&ChurnProcess> {
        self.churn.as_ref()
    }

    /// Removes and returns the installed lifetime process; the world
    /// freezes again.
    pub fn take_churn(&mut self) -> Option<ChurnProcess> {
        self.churn.take()
    }

    /// How many times the engine built its CSR snapshot from scratch. A
    /// run that only ever rewires and churns pays exactly **one** build
    /// (the first round); every later round patches incrementally.
    pub fn view_rebuilds(&self) -> usize {
        self.view_rebuilds
    }

    /// Asserts the carried snapshot is field-for-field equal to a fresh
    /// build over the current world (a no-op when no snapshot is cached).
    /// The debug builds assert this after every round; this method lets
    /// release builds make the same check explicitly, as CI's release test
    /// step does after churn (`churny_rounds_are_thread_independent`),
    /// faults (`fault_injected_rounds_are_thread_independent`) and
    /// compaction (`compaction_is_checkpoint_transparent_and_deterministic`).
    ///
    /// # Panics
    ///
    /// Panics if the incrementally patched snapshot diverged.
    pub fn assert_view_consistency(&self) {
        if let Some(view) = &self.view {
            assert_eq!(
                view,
                &TopologyView::new(&self.topology, &self.latency, &self.population),
                "incrementally patched view diverged from a fresh build"
            );
        }
    }

    /// Compacts the population: every dead slot is reclaimed
    /// and the survivors are renumbered contiguously (order-preserving,
    /// so every sorted id structure stays sorted). All world state moves
    /// together — topology, latency model, address books, liveness
    /// records, score history, churn schedule and the carried CSR
    /// snapshot — and the carried snapshot stays field-for-field equal
    /// to a fresh build (no latency-model calls: delays are copied
    /// verbatim under the [`LatencyModel::compact`] contract).
    ///
    /// Compaction is a **semantic world edit, not a performance knob**:
    /// renumbering changes how later rounds consume RNG (shuffles and
    /// range draws are sized by the slot count), so an explicit call is
    /// required and each call bumps
    /// [`PerigeeEngine::compaction_epoch`], which checkpoints carry —
    /// checkpoint → resume → continue reproduces an uninterrupted run
    /// bit for bit, compactions included.
    ///
    /// Returns the number of reclaimed slots, or `None` (and does
    /// nothing) when no slot is dead.
    ///
    /// # Panics
    ///
    /// Panics if the installed latency model does not support
    /// compaction (the default [`LatencyModel::compact`]), or if any
    /// subsystem holds an edge to a dead node — impossible after a
    /// normal churn round, which tears departed nodes out of every
    /// structure.
    pub fn compact(&mut self) -> Option<usize> {
        let plan = self.population.compaction_plan()?;
        self.topology.compact(&plan);
        self.latency.compact(&plan);
        self.population.compact(&plan);
        if let Some(view) = &mut self.view {
            view.compact(&plan, &self.population);
        }
        if let Some(book) = &mut self.address_book {
            book.compact(&plan);
        }
        if let Some(tracker) = &mut self.liveness {
            tracker.compact(&plan);
        }
        if let Some(churn) = &mut self.churn {
            churn.compact(&plan);
        }
        plan.retain_live(&mut self.adopters);
        plan.retain_live(&mut self.histories);
        for h in &mut self.histories {
            h.compact(&plan);
        }
        self.sampler = MinerSampler::new(&self.population);
        self.compaction_epoch += 1;
        #[cfg(debug_assertions)]
        self.assert_view_consistency();
        Some(plan.reclaimed())
    }

    /// How many free-list compactions this run has performed. Part of
    /// the world's identity (ids mean different nodes across epochs), so
    /// checkpoints carry it and resume restores it.
    pub fn compaction_epoch(&self) -> u64 {
        self.compaction_epoch
    }

    /// Sets the invariant-auditor cadence: `0` (the default) never
    /// audits; `k > 0` runs the release-mode [`PerigeeEngine::audit`]
    /// pass after every `k`-th completed round, counting passes in
    /// [`PerigeeEngine::audits_run`] and keeping every non-clean
    /// [`AuditReport`] ([`PerigeeEngine::audit_failures`]). The pass is
    /// O(nodes + edges): 3.6–3.8% of a `hostile_1k` round on a 2-vCPU
    /// Xeon, which audits every round (the `audit` row's share of the
    /// self-time table of traced roundbench runs at four seeds; the
    /// README gives the method).
    pub fn set_audit_every(&mut self, every: usize) {
        self.audit_every = every;
    }

    /// How many auditor passes have run so far.
    pub fn audits_run(&self) -> usize {
        self.audits_run
    }

    /// Every non-clean report the per-round auditor produced, in round
    /// order (empty = every pass was clean).
    pub fn audit_failures(&self) -> &[AuditReport] {
        &self.audit_failures
    }

    /// Runs one invariant-auditor pass over the engine's current state
    /// and returns the structured report (violations as data, never
    /// panics): CSR well-formedness of the carried snapshot, hash-power
    /// normalization, the stable-id/no-resurrection contract, score-state
    /// legality, and the liveness state machine — see [`crate::audit`].
    ///
    /// When no snapshot is being carried (before the first round, or
    /// right after an out-of-band invalidation) the world checks run
    /// against a fresh build.
    pub fn audit(&self) -> AuditReport {
        let mut violations = Vec::new();
        match &self.view {
            Some(view) => audit_world(view, &self.population, &mut violations),
            None => {
                let view = TopologyView::new(&self.topology, &self.latency, &self.population);
                audit_world(&view, &self.population, &mut violations);
            }
        }
        for (v, h) in self.histories.iter().enumerate() {
            h.audit(v, &mut violations);
        }
        if let Some(tracker) = &self.liveness {
            tracker.audit(&mut violations);
        }
        AuditReport {
            round: self.round as u64,
            violations,
        }
    }

    /// Captures the complete cross-round run state as a [`RunSnapshot`]
    /// (see [`crate::snapshot`] for the exact inventory and the on-disk
    /// envelope). `rng` is the run RNG driving
    /// [`PerigeeEngine::run_round`] — its raw state is captured so the
    /// resumed run draws the identical stream. Derived state — the
    /// carried CSR snapshot, the miner sampler, the global block counter,
    /// the live count and the topology's adjacency mirrors — is *not*
    /// serialized: each is a pure function of the captured state and is
    /// rebuilt bit-identically on resume.
    ///
    /// Checkpoint at a round boundary (between `run_round` calls);
    /// resuming mid-round is not a meaningful state.
    pub fn checkpoint(&self, rng: &rand::rngs::StdRng) -> RunSnapshot
    where
        L: serde::bin::Encode,
    {
        RunSnapshot {
            round: self.round as u64,
            compaction_epoch: self.compaction_epoch,
            config: self.config,
            method: self.method,
            propagation: self.propagation,
            adopters: self.adopters.clone(),
            histories: self.histories.clone(),
            population: self.population.clone(),
            topology: self.topology.clone(),
            address_book: self.address_book.clone(),
            liveness: self.liveness.clone(),
            churn: self.churn.clone(),
            fault_plan: self.fault_plan.clone(),
            traffic: self.traffic.clone(),
            latency_bytes: self.latency.to_bytes(),
            rng_state: rng.state(),
        }
    }

    /// Rebuilds an engine (and its run RNG) from a [`RunSnapshot`]:
    /// the inverse of [`PerigeeEngine::checkpoint`]. Running the resumed
    /// engine to round *N* is bit-identical to the uninterrupted run —
    /// across thread counts, churn and active fault plans (the `resume`
    /// integration suite enforces this).
    ///
    /// The engine is built through [`PerigeeEngine::new`], then the
    /// carried state is restored over it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the captured latency model does not decode
    /// to `L` or does not cover the population, or when
    /// [`PerigeeEngine::new`] refuses the captured world.
    pub fn resume(snapshot: RunSnapshot) -> Result<(Self, rand::rngs::StdRng), SnapshotError>
    where
        L: serde::bin::Decode,
    {
        let RunSnapshot {
            round,
            compaction_epoch,
            config,
            method,
            propagation,
            adopters,
            histories,
            population,
            topology,
            address_book,
            liveness,
            churn,
            fault_plan,
            traffic,
            latency_bytes,
            rng_state,
        } = snapshot;
        let latency = <L as serde::bin::Decode>::from_bytes(&latency_bytes)?;
        if latency.len() != population.len() {
            return Err(SnapshotError::Inconsistent(
                "latency model does not cover the population",
            ));
        }
        let mut engine = Self::new(population, latency, topology, method, config)
            .map_err(SnapshotError::Inconsistent)?;
        engine.histories = histories;
        engine.adopters = adopters;
        engine.propagation = propagation;
        engine.address_book = address_book;
        engine.round = round as usize;
        engine.churn = churn;
        engine.fault_plan = fault_plan;
        engine.traffic = traffic;
        engine.liveness = liveness;
        engine.compaction_epoch = compaction_epoch;
        // check_consistency rejected the all-zero state at decode time,
        // and a live RNG can never reach it, so this cannot panic.
        Ok((engine, rand::rngs::StdRng::from_state(rng_state)))
    }

    /// The priority queue rounds simulate on: always the calendar queue,
    /// the only [`QueueKind`]. Kept only because roundbench's replay
    /// passes it to [`GossipScratch::with_capacity_and_queue`].
    pub fn queue_kind(&self) -> QueueKind {
        QueueKind::Calendar
    }

    /// Restricts peer discovery to per-node partial views (§2.1's
    /// `addrMan`): exploration samples from each node's address book, and
    /// books are refreshed by gossip after every round. Without a book
    /// (the paper's evaluation assumption) every node knows all addresses.
    ///
    /// # Panics
    ///
    /// Panics if the book covers a different number of nodes.
    pub fn set_address_book(&mut self, book: AddressBook) {
        assert_eq!(book.len(), self.population.len());
        self.address_book = Some(book);
    }

    /// The current address book, if partial discovery is enabled.
    pub fn address_book(&self) -> Option<&AddressBook> {
        self.address_book.as_ref()
    }

    /// Sets how blocks propagate in rounds and in
    /// [`PerigeeEngine::evaluate`]: the §2 flood by default
    /// ([`GossipConfig::flood`]), or message-level INV/GETDATA, push/pull
    /// and bandwidth-limited transfers on request. Perigee then observes
    /// *announcement* times, as §4.1 describes ("blocks, or
    /// advertisements for blocks").
    ///
    /// The config alone picks the kernel: when
    /// [`GossipConfig::is_analytic`] holds (flooding a zero-size block)
    /// the engine runs the analytic Dijkstra flood, whose arrivals and
    /// observation rows equal the message-level engine's bit for bit,
    /// faults included; any other config runs the message-level engine
    /// (its label-setting kernel, with the event loop as the fallback for
    /// exact INV ties).
    ///
    /// # Errors
    ///
    /// [`NetsimError::InvalidConfig`] for a NaN, infinite or negative
    /// block size ([`TransferModel::validate`](perigee_netsim::TransferModel::validate)),
    /// leaving the current config in place.
    pub fn set_propagation(&mut self, config: GossipConfig) -> Result<(), NetsimError> {
        config.transfer.validate()?;
        self.propagation = config;
        Ok(())
    }

    /// How blocks propagate ([`PerigeeEngine::set_propagation`]).
    pub fn propagation(&self) -> GossipConfig {
        self.propagation
    }

    /// Restricts which nodes run Perigee updates; the rest keep their
    /// initial neighbors (incremental deployment, §1.2).
    ///
    /// # Panics
    ///
    /// Panics if the flag vector length differs from the population.
    pub fn set_adopters(&mut self, adopters: Vec<bool>) {
        assert_eq!(adopters.len(), self.population.len());
        self.adopters = adopters;
    }

    /// The current overlay.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The simulated population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Mutable population access (adversary injection mid-run).
    ///
    /// Invalidates the cached round snapshot: relay profiles, hash power
    /// and link rates are frozen into the view, so any population edit
    /// forces the next round to rebuild it.
    pub fn population_mut(&mut self) -> &mut Population {
        self.view = None;
        &mut self.population
    }

    /// The latency model.
    pub fn latency(&self) -> &L {
        &self.latency
    }

    /// The engine configuration.
    pub fn config(&self) -> &PerigeeConfig {
        &self.config
    }

    /// Completed rounds.
    pub fn rounds_run(&self) -> usize {
        self.round
    }

    /// The propagation phase of a round: floods `miners`' blocks through
    /// `view` (fanned out across the rayon pool) and collects every
    /// node's per-neighbor observations plus per-block λ50/λ90.
    ///
    /// Blocks are independent under the §2.1 model and consume no RNG, so
    /// each pool thread pushes contiguous chunks of blocks through the
    /// snapshot with its own reused [`GossipScratch`] — on the analytic
    /// flood when the [`PerigeeEngine::propagation`] config is analytic,
    /// on the message-level kernel otherwise — and the chunks are merged
    /// back in block order: the result is bit-identical to a sequential
    /// loop either way.
    ///
    /// # Panics
    ///
    /// Panics (possibly deep in the flood) if `view` is not a faithful
    /// snapshot of the engine's current topology, latency model and
    /// population.
    pub fn observe_round(&self, view: &TopologyView, miners: &[NodeId]) -> RoundObservations {
        self.observe_round_faulted(view, miners, None, 0)
    }

    /// [`PerigeeEngine::observe_round`] under a compiled round of link
    /// faults — the `propagation` phase of [`PerigeeEngine::run_round`]:
    /// every announcement leg runs through [`RoundFaults::block`]'s
    /// per-edge drop/delay/duplication draws (`faults: None` takes the
    /// exact fault-free code path). Because a block's fault pattern is
    /// keyed on its *global* index `base_block + position`, not on which
    /// worker simulates it, the result stays bit-identical across thread
    /// counts.
    fn observe_round_faulted(
        &self,
        view: &TopologyView,
        miners: &[NodeId],
        faults: Option<&RoundFaults>,
        base_block: usize,
    ) -> RoundObservations {
        // Keyed on the block's global index, so a block's fault pattern
        // does not depend on the chunking.
        let block_faults = |i: usize| faults.map(|rf| rf.block(base_block + i));
        let (observations, parts, counters) =
            self.fan_out(view, miners, None, |start, chunk, collector, scratch| {
                let mut stats = BlockStats::new(chunk.len(), view.len());
                let mut coverage = [SimTime::ZERO; 2];
                for (j, &miner) in chunk.iter().enumerate() {
                    let bf = block_faults(start + j);
                    propagate(view, miner, &self.propagation, scratch, bf.as_ref());
                    scratch.coverage_times_into(view, &[0.9, 0.5], &mut coverage);
                    stats.push(coverage, scratch.arrivals());
                    match &bf {
                        Some(b) => collector.record_scratch_faulted(view, scratch, b),
                        None => collector.record_scratch(view, scratch),
                    }
                }
                (stats, scratch.take_counters())
            });
        // Per-node seen counts are integer sums, so elementwise
        // accumulation is order-exact.
        let mut stats = BlockStats::new(miners.len(), view.len());
        for part in parts {
            stats.lambda90_ms.extend(part.lambda90_ms);
            stats.lambda50_ms.extend(part.lambda50_ms);
            for (acc, x) in stats.seen.iter_mut().zip(part.seen) {
                *acc += x;
            }
        }
        RoundObservations {
            observations,
            lambda90_ms: stats.lambda90_ms,
            lambda50_ms: stats.lambda50_ms,
            seen: stats.seen,
            counters,
        }
    }

    /// The traffic phase of a round: pushes `messages` (the round's
    /// transaction stream, in canonical origination order) through the
    /// snapshot in batched announcement passes, appends every message's
    /// observation row behind the rows already in `observations`, and
    /// returns the per-class λ-statistics.
    ///
    /// Messages are mutually independent like blocks, so they go through
    /// the same fan-out: each chunk goes through one
    /// [`TopologyView::gossip_batch_into`] call on its pool thread's
    /// reused scratch, and chunks merge back in message order —
    /// bit-identical to one
    /// sequential [`TopologyView::gossip_into`] call per message (the
    /// batch engine's contract), whatever the thread count.
    ///
    /// A message's run is a function of its source and config, and the
    /// stream lists a node's messages of one class next to each other. So
    /// a message equal to its predecessor in the chunk is not simulated,
    /// covered or recorded again: the batch serves it from the scratch,
    /// its λs are its predecessor's, and its rows a copy of the rows just
    /// recorded.
    fn observe_traffic(
        &self,
        view: &TopologyView,
        config: &TrafficConfig,
        messages: &[TrafficMessage],
        observations: RoundStore,
    ) -> (RoundStore, TrafficRoundStats, SimCounters) {
        let mut batch = Vec::new();
        config.batch_for(messages, &mut batch);
        let (observations, parts, counters) = self.fan_out(
            view,
            &batch,
            Some(observations),
            |start, chunk, collector, scratch| {
                let mut per_message = Vec::with_capacity(chunk.len());
                let mut coverage = [SimTime::ZERO; 2];
                view.gossip_batch_into(chunk, scratch, |i, s| {
                    if i > 0 && chunk[i] == chunk[i - 1] {
                        collector.repeat_last_block();
                    } else {
                        s.coverage_times_into(view, &[0.9, 0.5], &mut coverage);
                        collector.record_scratch(view, s);
                    }
                    per_message.push((
                        messages[start + i].class,
                        coverage[0].as_ms(),
                        coverage[1].as_ms(),
                    ));
                });
                (per_message, scratch.take_counters())
            },
        );

        // The per-class sums left-fold in message order, exactly like a
        // sequential loop.
        let mut per_class: Vec<TrafficClassRoundStats> = config
            .classes
            .iter()
            .map(|c| TrafficClassRoundStats {
                name: c.name.clone(),
                messages: 0,
                mean_lambda90_ms: 0.0,
                mean_lambda50_ms: 0.0,
            })
            .collect();
        for (class, l90, l50) in parts.into_iter().flatten() {
            let c = &mut per_class[class as usize];
            c.messages += 1;
            c.mean_lambda90_ms += l90;
            c.mean_lambda50_ms += l50;
        }
        for c in &mut per_class {
            if c.messages > 0 {
                c.mean_lambda90_ms /= c.messages as f64;
                c.mean_lambda50_ms /= c.messages as f64;
            } else {
                c.mean_lambda90_ms = f64::INFINITY;
                c.mean_lambda50_ms = f64::INFINITY;
            }
        }
        (
            observations,
            TrafficRoundStats {
                messages: messages.len(),
                per_class,
            },
            counters,
        )
    }

    /// The one observation fan-out behind the block and traffic phases.
    /// Splits `items` (a round's blocks or its traffic messages) into
    /// contiguous chunks and runs `body(start, chunk, collector,
    /// scratch)` for each on the rayon pool, where `start` is the
    /// chunk's offset into `items`. Chunks run in *waves* of one chunk
    /// per pool thread; each pool slot owns one collector and one
    /// scratch, made once per fan-out and reused by every wave.
    /// Rows append to (dense) or fold into (sketch) `store` — a fresh
    /// store of the configured backend when `None` — in item order, and
    /// the counters add up. Returns the store, each chunk's own results
    /// in chunk order, and the counters.
    ///
    /// A sketch store folds each wave's rows in before the next wave
    /// starts, over one disjoint edge range per pool thread, so the
    /// transient dense rows never exceed pool width ×
    /// [`SKETCH_CHUNK_BLOCKS`] rows. A dense fan-out has one chunk per
    /// thread, hence exactly one wave, whose collectors become the store.
    ///
    /// Items are mutually independent and consume no RNG, a reused
    /// scratch simulates exactly like a fresh one, and chunk size never
    /// affects results (the dense merge is an ordered append, the sketch
    /// fold is chunking-invariant), so the outcome is bit-identical to a
    /// sequential loop whatever the thread count.
    fn fan_out<I, P, B>(
        &self,
        view: &TopologyView,
        items: &[I],
        store: Option<RoundStore>,
        body: B,
    ) -> (RoundStore, Vec<P>, SimCounters)
    where
        I: Sync,
        P: Send,
        B: Fn(usize, &[I], &mut ObservationCollector, &mut GossipScratch) -> (P, SimCounters)
            + Sync,
    {
        let mut chunk_size = chunk_len(items.len());
        if self.config.observation_backend == ObservationBackend::Sketch {
            // Sketch mode bounds the *transient* dense memory too: every
            // chunk is capped at a constant number of items (even on a
            // one-thread pool) and folded at the end of its wave, so peak
            // usage is O(pool × edges), independent of how many blocks or
            // messages the round carries.
            chunk_size = chunk_size.min(SKETCH_CHUNK_BLOCKS);
        }
        // At least one (possibly empty) chunk, so even an empty round
        // leaves a store over the view's skeleton.
        let chunk_count = items.len().div_ceil(chunk_size).max(1);
        let width = rayon::current_num_threads().clamp(1, chunk_count);
        let mut slots: Vec<(ObservationCollector, GossipScratch)> = (0..width)
            .map(|_| (ObservationCollector::from_view(view), scratch_for(view)))
            .collect();
        let mut store = store.unwrap_or_else(|| match self.config.observation_backend {
            ObservationBackend::Dense => RoundStore::Dense(ObservationStore::default()),
            ObservationBackend::Sketch => RoundStore::Sketch(SketchObservationStore::from_view(
                view,
                self.config.percentile,
            )),
        });
        let mut counters = SimCounters::ZERO;
        let mut results = Vec::with_capacity(chunk_count);
        for wave in (0..chunk_count).step_by(width) {
            let slots = &mut slots[..width.min(chunk_count - wave)];
            let parts = rayon::par_map_chunks_mut(slots, 1, |i, slot| {
                let (collector, scratch) = &mut slot[0];
                let start = (wave + i) * chunk_size;
                let chunk = &items[start..(start + chunk_size).min(items.len())];
                collector.reserve_blocks(chunk.len());
                body(start, chunk, collector, scratch)
            });
            for (part, ctr) in parts {
                results.push(part);
                counters.merge(&ctr);
            }
            if let RoundStore::Sketch(acc) = &mut store {
                let rows: Vec<&ObservationStore> = slots.iter().map(|(c, _)| c.rows()).collect();
                acc.ingest_wave(&rows);
                slots.iter_mut().for_each(|(c, _)| c.clear());
            }
        }
        if let RoundStore::Dense(acc) = &mut store {
            debug_assert!(chunk_count <= width, "a dense fan-out runs in one wave");
            for (collector, _) in slots {
                let rows = collector.finish();
                // The first dense chunk becomes the store: a move, not a
                // copy of the round's largest allocation.
                if acc.is_empty() {
                    *acc = rows;
                } else {
                    acc.append(rows);
                }
            }
        }
        (store, results, counters)
    }

    /// Runs one full round: mine, observe (blocks, then the traffic
    /// stream when a workload is installed), score, apply the lifetime
    /// process (if one is installed), rewire — then patch the carried CSR
    /// snapshot with the round's node and edge delta instead of
    /// rebuilding it for the next round.
    pub fn run_round<R: Rng>(&mut self, rng: &mut R) -> RoundStats {
        // Phase tracing: disabled (no clock reads at all) unless a
        // telemetry handle is installed. Laps only bracket phases — they
        // never branch the simulation — so traced rounds stay
        // bit-identical to untraced ones.
        let mut timer = PhaseTimer::new(self.telemetry.is_some());
        let k = self.config.blocks_per_round;
        let miners = self.sampler.sample_round(k, rng);
        timer.lap("mine");
        let view = self.view();
        timer.lap("view");
        let faults = self.fault_compile(&view);
        timer.lap("fault_compile");
        // Every round mines `k` blocks, so the run-global index of this
        // round's first block — the key of its fault draws — is `round × k`.
        let base_block = self.round * k;
        let round_obs = self.observe_round_faulted(&view, &miners, faults.as_ref(), base_block);
        timer.lap("propagation");
        let mut counters = round_obs.counters();
        let (observations, lambda90, lambda50, seen) = round_obs.into_parts();
        let (observations, traffic_messages) =
            self.traffic_phase(&view, observations, &mut counters);
        timer.lap("traffic");
        let (mut drops, gated) = self.scoring(&observations, &seen, rng);
        timer.lap("scoring");
        let evicted = self.liveness(&observations, &seen, &mut drops);
        timer.lap("liveness");
        let (mut removed, dropped) = self.rewiring_drop(&drops);
        timer.lap("rewiring");
        let delta = self.churn(&mut removed, rng);
        timer.lap("churn");
        let added = self.rewiring_refill(rng);
        timer.lap("rewiring");
        self.view_patch(view, removed, added);
        timer.lap("view_patch");

        // Track the round's λ90 distribution (not just its mean) with the
        // constant-space streaming estimator — the per-round λ-curve the
        // dynamic-world experiments plot.
        let mut p90 = P2Quantile::new(90.0);
        for &l in &lambda90 {
            p90.observe(l);
        }
        let stats = RoundStats {
            round: self.round,
            // Left-folds in block order: the exact accumulation order of
            // the legacy sequential loop, so the means are bit-identical.
            mean_lambda90_ms: lambda90.iter().sum::<f64>() / k as f64,
            mean_lambda50_ms: lambda50.iter().sum::<f64>() / k as f64,
            p90_lambda90_ms: p90.estimate_or_inf(),
            blocks: k,
            dropped,
            joined: delta.joined.len(),
            departed: delta.departed.len(),
            gated,
            evicted,
        };
        self.round += 1;

        // Release-mode invariant audit at the configured cadence: the
        // completed round's state is checked in place, and violations are
        // kept as structured reports for the caller (strict harnesses
        // snapshot-and-abort; see `repro … --audit-strict`).
        if self.audit_every > 0 && self.round.is_multiple_of(self.audit_every) {
            let report = self.audit();
            self.audits_run += 1;
            if !report.is_clean() {
                self.audit_failures.push(report);
            }
            timer.lap("audit");
        }
        self.emit_trace(&stats, &timer, counters, traffic_messages);
        stats
    }

    /// The `view` phase: takes the snapshot carried over from the last
    /// round, building one from scratch only when none is carried (the
    /// first round, or after an out-of-band population edit).
    fn view(&mut self) -> TopologyView {
        self.view.take().unwrap_or_else(|| {
            self.view_rebuilds += 1;
            TopologyView::new(&self.topology, &self.latency, &self.population)
        })
    }

    /// The `fault_compile` phase: compiles this round's link faults
    /// against the carried snapshot. `None` — no plan, or a round the
    /// plan leaves fault-free (inert, or outside its windows) — takes the
    /// untouched zero-fault hot path.
    fn fault_compile(&self, view: &TopologyView) -> Option<RoundFaults> {
        let plan = self.fault_plan.as_ref()?;
        let regions: Vec<Region> = self.population.iter().map(|p| p.region).collect();
        let compiled = plan.compile(self.round, view, &regions);
        (!compiled.is_inert()).then_some(compiled)
    }

    /// The `traffic` phase (plain `traffic` is the workload getter): the
    /// round's transaction stream rides the same carried snapshot, keyed
    /// on the pre-increment round index (the exact key a resumed run
    /// regenerates). Its observation rows land behind the block rows, so
    /// scoring and liveness read the combined load; `seen` and the gating
    /// mask stay blocks-only by design. Returns the combined store and
    /// the round's message count.
    fn traffic_phase(
        &mut self,
        view: &TopologyView,
        observations: RoundStore,
        counters: &mut SimCounters,
    ) -> (RoundStore, usize) {
        let Some(traffic) = &self.traffic else {
            return (observations, 0);
        };
        let messages = traffic.messages_for_round(self.round as u64, &self.population);
        let (store, stats, tc) = self.observe_traffic(view, traffic, &messages, observations);
        counters.merge(&tc);
        let count = stats.messages;
        self.last_traffic = Some(stats);
        (store, count)
    }

    /// The `scoring` phase, Algorithm 1's "keep the best": every adopter
    /// not gated this round decides from the same synchronous snapshot
    /// which outgoing neighbors to keep, and every gated node gives one
    /// random link up to exploration. Returns the drops — scoring drops
    /// in node order, then gated ones — and the gated count.
    fn scoring<R: Rng>(
        &mut self,
        observations: &RoundStore,
        seen: &[u32],
        rng: &mut R,
    ) -> (Vec<(NodeId, Vec<NodeId>)>, usize) {
        // Stability gating (rusty-kaspa's `PerigeeManager` behaviour): a
        // node whose view of the round was visibly degraded — its
        // blocks-seen count deviates from the round's block count beyond
        // the tolerance — must not read the round's timings as a
        // neighbor-quality signal: that is network weather, not neighbor
        // slowness. Gated nodes skip scoring (and history absorption) but
        // keep exploring. On a healthy network no node is gated, and the
        // round is bit-identical to an ungated one.
        let (n, k) = (self.population.len(), self.config.blocks_per_round);
        let tol = self.config.stability_tolerance;
        let mut gated = Vec::new();
        if tol.is_finite() {
            gated = (0..n)
                .map(|i| {
                    self.adopters[i]
                        && self.population.is_alive(NodeId::new(i as u32))
                        && k.saturating_sub(seen[i] as usize) as f64 > tol * k as f64
                })
                .collect();
        }

        // Nodes score independently, so every method fans out over the
        // rayon pool in id-ordered chunks of the history array: each
        // worker mutates only its own chunk's histories, no strategy
        // consumes RNG, and the chunks merge in order — bit-identical to
        // a sequential loop whatever the pool width.
        assert_eq!(self.histories.len(), n, "histories must cover every node");
        let (strategy, topology, adopters) = (&self.strategy, &self.topology, &self.adopters);
        let chunk = chunk_len(n);
        let parts = rayon::par_map_chunks_mut(&mut self.histories, chunk, |ci, histories| {
            let mut drops = Vec::new();
            for (j, history) in histories.iter_mut().enumerate() {
                let v = NodeId::new((ci * chunk + j) as u32);
                if !adopters[v.index()] || gated.get(v.index()) == Some(&true) {
                    continue;
                }
                let outgoing = topology.outgoing_vec(v);
                if outgoing.is_empty() {
                    continue;
                }
                let retained = strategy.retain(v, &outgoing, observations.node(v), history);
                let dropped: Vec<NodeId> = outgoing
                    .iter()
                    .copied()
                    .filter(|u| !retained.contains(u))
                    .collect();
                if !dropped.is_empty() {
                    drops.push((v, dropped));
                }
            }
            drops
        });
        let mut drops: Vec<(NodeId, Vec<NodeId>)> = parts.into_iter().flatten().collect();

        // Gated nodes still explore, but conservatively: each drops one
        // random outgoing link (bounded by the explore budget) so the
        // refill draws a fresh candidate — the escape hatch that keeps a
        // weather-wedged topology moving without scrambling the learned
        // neighborhood while its quality signal is unreadable. A node
        // gated through a long outage thus keeps most of its pre-outage
        // links: transient weather must not evict durable good peers.
        // Sequential and id-ordered, and RNG is consumed only when gating
        // actually fired, so clean runs stay bit-identical.
        let explore = self.config.explore.min(1);
        let mut gated_count = 0;
        for (i, _) in gated.iter().enumerate().filter(|&(_, &g)| g) {
            gated_count += 1;
            let v = NodeId::new(i as u32);
            let mut outgoing = self.topology.outgoing_vec(v);
            if explore > 0 && !outgoing.is_empty() {
                outgoing.shuffle(rng);
                outgoing.truncate(explore);
                drops.push((v, outgoing));
            }
        }
        (drops, gated_count)
    }

    /// The `liveness` phase: feeds the round's deliveries to the tracker
    /// and force-drops connections whose far side has been silent past
    /// the eviction threshold; evicted peers go under reconnect backoff
    /// so the refill stops redrawing them until it expires. Like scoring
    /// and the refill, it leaves non-adopters alone — they keep their
    /// initial neighbors. Returns how many connections it evicted.
    fn liveness(
        &mut self,
        observations: &RoundStore,
        seen: &[u32],
        drops: &mut Vec<(NodeId, Vec<NodeId>)>,
    ) -> usize {
        let Some(tracker) = &mut self.liveness else {
            return 0;
        };
        let round = self.round as u64;
        let mut evicted = 0;
        let mut verdicts = Vec::new();
        for (i, &seen_i) in seen.iter().enumerate().take(self.population.len()) {
            let v = NodeId::new(i as u32);
            if !self.adopters[i] || !self.population.is_alive(v) {
                continue;
            }
            let outgoing = self.topology.outgoing_vec(v);
            if outgoing.is_empty() {
                continue;
            }
            let obs = observations.node(v);
            let mut delivered = |u: NodeId| obs.times_for(u).any(|t| t.is_finite());
            tracker.observe(v, &outgoing, seen_i > 0, &mut delivered, &mut verdicts);
            let mut dead = Vec::new();
            for (&u, &verdict) in outgoing.iter().zip(verdicts.iter()) {
                if verdict == PeerHealth::Evict {
                    dead.push(u);
                    tracker.note_failure(v, u, round);
                } else if delivered(u) {
                    tracker.note_success(v, u);
                }
            }
            if !dead.is_empty() {
                evicted += dead.len();
                drops.push((v, dead));
            }
        }
        evicted
    }

    /// The first half of the `rewiring` lap: applies every drop, freeing
    /// incoming slots network-wide before anyone refills, and forgets
    /// each severed connection's score history. Returns the undirected
    /// edges that vanished (for the view patch) and the drop count.
    fn rewiring_drop(&mut self, drops: &[(NodeId, Vec<NodeId>)]) -> (Vec<(NodeId, NodeId)>, usize) {
        let mut removed = Vec::new();
        let mut dropped = 0;
        for (v, peers) in drops {
            for &u in peers {
                if !self.topology.are_connected(*v, u) {
                    // Already severed by an earlier drop entry this
                    // round (a gated exploration drop and a liveness
                    // eviction may pick the same link).
                    continue;
                }
                self.topology.disconnect(*v, u);
                self.histories[v.index()].forget(u);
                if !self.topology.are_connected(*v, u) {
                    removed.push((*v, u));
                }
                dropped += 1;
            }
        }
        (removed, dropped)
    }

    /// The second half of the `rewiring` lap, after the world moved:
    /// every live adopter refills its free outgoing slots, in random node
    /// order for fairness, then address books gossip along the new edges.
    /// Returns the undirected edges that appeared (for the view patch).
    fn rewiring_refill<R: Rng>(&mut self, rng: &mut R) -> Vec<(NodeId, NodeId)> {
        let mut added = Vec::new();
        let mut order: Vec<u32> = (0..self.population.len() as u32).collect();
        order.shuffle(rng);
        for v in order.into_iter().map(NodeId::new) {
            if self.adopters[v.index()] && self.population.is_alive(v) {
                self.fill_random_connections(v, rng, &mut added);
            }
        }
        if let Some(book) = &mut self.address_book {
            book.exchange(&self.topology, 2, rng);
        }
        added
    }

    /// The `view_patch` phase: carries the snapshot into the next round,
    /// patching the rewired edges (and, under churn, the moved node set)
    /// in place — latency calls only for the additions.
    fn view_patch(
        &mut self,
        mut view: TopologyView,
        removed: Vec<(NodeId, NodeId)>,
        added: Vec<(NodeId, NodeId)>,
    ) {
        let rewiring = RoundDelta::new(removed, added);
        view.apply_delta(&rewiring, &self.latency, &self.population);
        self.view = Some(view);
        #[cfg(debug_assertions)]
        self.assert_view_consistency();
    }

    /// Emits the round's self-describing trace record into the installed
    /// telemetry handle (a no-op without one) — pure observation of
    /// already-computed state.
    fn emit_trace(
        &mut self,
        stats: &RoundStats,
        timer: &PhaseTimer,
        counters: SimCounters,
        traffic_messages: usize,
    ) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let mut rec = tel.round_record(stats.round as u64);
        rec.set_phases(timer.profile());
        for (name, v) in counters.entries() {
            rec.counter(name, v);
        }
        rec.counter("blocks", stats.blocks as u64);
        rec.counter("dropped", stats.dropped as u64);
        rec.counter("joined", stats.joined as u64);
        rec.counter("departed", stats.departed as u64);
        rec.counter("gated", stats.gated as u64);
        rec.counter("evicted", stats.evicted as u64);
        rec.counter("traffic_messages", traffic_messages as u64);
        rec.counter("view_rebuilds", self.view_rebuilds as u64);
        rec.counter("compaction_epoch", self.compaction_epoch);
        rec.value("mean_lambda90_ms", stats.mean_lambda90_ms);
        rec.value("mean_lambda50_ms", stats.mean_lambda50_ms);
        rec.value("p90_lambda90_ms", stats.p90_lambda90_ms);
        tel.emit(&rec);
    }

    /// The `churn` phase, the dynamic-world half of a round: consumes the
    /// installed [`ChurnProcess`] (a no-op returning an empty delta when
    /// none is installed). Departures are torn out of the
    /// topology with every removed edge logged into `removed` (survivors
    /// refill the freed slots in the refill that follows, like scoring
    /// drops); arrivals spawn (stable fresh ids), grow the
    /// topology/latency/address-book/score state, and are reported back
    /// to the process so their sessions get scheduled. Hash power
    /// renormalizes and the miner sampler rebuilds whenever the live node
    /// set actually changed.
    fn churn<R: Rng>(&mut self, removed: &mut Vec<(NodeId, NodeId)>, rng: &mut R) -> WorldDelta {
        if self.churn.is_none() {
            return WorldDelta::default();
        }
        let plan = self.churn.as_mut().expect("checked above").begin_round();
        let mut departed = Vec::new();
        for v in plan.departures {
            if !self.population.is_alive(v) {
                continue; // already retired through `population_mut`
            }
            self.teardown_node(v, removed);
            self.population.retire(v);
            if let Some(book) = &mut self.address_book {
                book.retire(v);
            }
            if let Some(tracker) = &mut self.liveness {
                tracker.retire(v);
            }
            departed.push(v);
        }
        // Joiners inherit the mean live hash power, so the paper's
        // uniform default stays exactly uniform through growth; the
        // renormalization below restores the unit total either way.
        let mean_power = self.population.mean_alive_hash_power();
        let mut joined: Vec<NodeId> = Vec::with_capacity(plan.arrivals);
        for _ in 0..plan.arrivals {
            let mut profile = self.churn.as_mut().expect("checked above").sample_profile();
            profile.hash_power = mean_power;
            let id = self.population.spawn(profile);
            self.topology.grow_to(self.population.len());
            self.adopters.push(true);
            self.churn.as_mut().expect("checked above").note_join(id);
            joined.push(id);
        }
        if !joined.is_empty() {
            self.latency.extend_for(&self.population);
            if let Some(book) = &mut self.address_book {
                book.grow_to(self.population.len());
            }
            if let Some(tracker) = &mut self.liveness {
                tracker.grow_to(self.population.len());
            }
            self.seed_books(&joined, rng);
        }
        let delta = WorldDelta { joined, departed };
        if !delta.is_empty() {
            // The live power set changed: restore the unit total and
            // rebuild the miner distribution.
            self.population.renormalize_hash_power();
            self.sampler = MinerSampler::new(&self.population);
        }
        follow_world_delta(&mut self.histories, &delta, self.population.len());
        delta
    }

    /// Tears departing `v`'s connections, pinned relay links included,
    /// out of the overlay: scoring history is forgotten in both
    /// directions (`v`'s beliefs about its outgoing neighbors, and every
    /// incoming chooser's beliefs about `v`), and each removed undirected
    /// edge is logged into `removed` for the incremental view patch.
    fn teardown_node(&mut self, v: NodeId, removed: &mut Vec<(NodeId, NodeId)>) {
        for u in self.topology.outgoing(v) {
            self.histories[v.index()].forget(u);
        }
        for w in self.topology.incoming(v) {
            self.histories[w.index()].forget(v);
        }
        for u in self.topology.clear_node(v) {
            removed.push((v, u));
        }
    }

    /// Seeds each listed node's fresh address book with
    /// up to `bootstrap_size` random live peers — the bootstrap-server
    /// contact every joining node makes. A no-op without a book.
    fn seed_books<R: Rng>(&mut self, ids: &[NodeId], rng: &mut R) {
        let Some(book) = &mut self.address_book else {
            return;
        };
        let want = book
            .bootstrap_size()
            .min(self.population.alive_count().saturating_sub(1));
        for &id in ids {
            let mut guard = 0;
            while book.known_count(id) < want && guard < 100 * want.max(1) {
                guard += 1;
                let cand = NodeId::new(rng.gen_range(0..self.population.len() as u32));
                if cand != id && self.population.is_alive(cand) {
                    book.insert(id, cand, rng);
                }
            }
        }
    }

    /// Runs `rounds` rounds, returning the per-round statistics.
    pub fn run_rounds<R: Rng>(&mut self, rounds: usize, rng: &mut R) -> Vec<RoundStats> {
        (0..rounds).map(|_| self.run_round(rng)).collect()
    }

    /// Evaluates the current topology: for every live node `v`, in id
    /// order, the time λv (ms) for a block mined by `v` to reach
    /// `fraction` of the hash power — under the engine's
    /// [`PerigeeEngine::propagation`] config (INV/GETDATA round trips and
    /// transfers included when set). Retired slots are skipped: a dead
    /// node has no edges and zero hash power, so its row would only be a
    /// meaningless `∞`. Link faults are not applied: this measures the
    /// overlay's intrinsic quality.
    ///
    /// The per-source simulations run through one fresh
    /// [`TopologyView`] with one scratch per chunk of sources over the
    /// rayon pool; values land in id order whatever the pool width.
    pub fn evaluate(&self, fraction: f64) -> Vec<f64> {
        let view = TopologyView::new(&self.topology, &self.latency, &self.population);
        let sources: Vec<NodeId> = self.population.ids_alive().collect();
        evaluate_sources(&view, &sources, &[fraction], &self.propagation)
            .pop()
            .expect("one fraction requested")
    }

    /// Refills `v`'s free outgoing slots with random exploration peers.
    /// Each successful `connect` creates a brand-new communication edge
    /// (duplicates in either direction are rejected by the topology), so
    /// every new undirected edge is logged into `added` for the
    /// incremental view patch.
    fn fill_random_connections<R: Rng>(
        &mut self,
        v: NodeId,
        rng: &mut R,
        added: &mut Vec<(NodeId, NodeId)>,
    ) {
        let n = self.population.len() as u32;
        let dout = self
            .config
            .limits
            .dout
            .min(self.population.alive_count().saturating_sub(1));
        let round = self.round as u64;
        let mut attempts = 0;
        while self.topology.out_degree(v) < dout && attempts < 100 * dout.max(1) {
            attempts += 1;
            let u = match &self.address_book {
                Some(book) => match book.sample_peer(v, rng) {
                    Some(u) => u,
                    None => break, // no usable addresses this round
                },
                None => NodeId::new(rng.gen_range(0..n)),
            };
            if u == v || !self.population.is_alive(u) {
                // Dead slots (and stale address-book entries pointing at
                // departed nodes) are rejected at connect time; with the
                // liveness layer on, the failed address goes under
                // backoff so later rounds stop redrawing it.
                if u != v {
                    if let Some(tracker) = &mut self.liveness {
                        tracker.note_failure(v, u, round);
                    }
                }
                continue;
            }
            if let Some(tracker) = &self.liveness {
                if tracker.backed_off(v, u, round) {
                    continue;
                }
            }
            if self.topology.connect(v, u).is_ok() {
                added.push((v, u));
            }
        }
    }
}

/// Per-block results of a run of blocks, in block order: λ90 and λ50
/// in ms, and how many of the blocks each node received.
struct BlockStats {
    lambda90_ms: Vec<f64>,
    lambda50_ms: Vec<f64>,
    seen: Vec<u32>,
}

impl BlockStats {
    fn new(blocks: usize, nodes: usize) -> Self {
        BlockStats {
            lambda90_ms: Vec::with_capacity(blocks),
            lambda50_ms: Vec::with_capacity(blocks),
            seen: vec![0; nodes],
        }
    }

    /// Records one block from its `[λ90, λ50]` and its arrivals.
    fn push(&mut self, coverage: [SimTime; 2], arrivals: &[SimTime]) {
        self.lambda90_ms.push(coverage[0].as_ms());
        self.lambda50_ms.push(coverage[1].as_ms());
        for (s, t) in self.seen.iter_mut().zip(arrivals) {
            *s += u32::from(t.as_ms().is_finite());
        }
    }
}

/// Items per chunk when `items` independent work items fan out over the
/// rayon pool: one contiguous chunk per pool thread, so a one-thread pool
/// runs the sequential loop. Every fan-out in the engine sizes its chunks
/// by this rule, and none of their results depends on it.
fn chunk_len(items: usize) -> usize {
    let items = items.max(1);
    items.div_ceil(rayon::current_num_threads().clamp(1, items))
}

/// Moves the score histories with the node set: new slots up to `n`
/// start blank (a joiner has no beliefs), and every departed node's own
/// history goes wholesale (survivors' beliefs *about* it were
/// forgotten edge by edge at teardown).
fn follow_world_delta(histories: &mut Vec<NodeHistory>, delta: &WorldDelta, n: usize) {
    histories.resize(n, NodeHistory::default());
    for &v in &delta.departed {
        histories[v.index()].clear();
    }
}

/// Evaluates a static topology: λ(`fraction`) in ms for every node as
/// block source, in id order, for every entry of `fractions` (the paper
/// reports both 90% and 50%) — one vector per fraction, in the order
/// given — under the §2 flood model. The measurement behind every
/// delay-curve figure.
///
/// Floods one [`TopologyView`] snapshot from every source, fanning the
/// independent sources across the rayon pool; per-source values land in
/// id order, so the output is identical to the sequential computation.
pub fn evaluate_topology<L: LatencyModel + ?Sized>(
    topology: &Topology,
    latency: &L,
    population: &Population,
    fractions: &[f64],
) -> Vec<Vec<f64>> {
    let view = TopologyView::new(topology, latency, population);
    let sources: Vec<NodeId> = (0..view.len() as u32).map(NodeId::new).collect();
    evaluate_sources(&view, &sources, fractions, &GossipConfig::flood())
}

/// The per-source sweep behind both evaluations: propagates one block
/// from each of `sources` through `view` under `config` and returns λ for
/// each entry of `fractions`, one vector per fraction, in `sources`
/// order. Contiguous source chunks fan out over the rayon pool, one
/// scratch per chunk, so the result is identical to a sequential loop
/// whatever the pool width.
fn evaluate_sources(
    view: &TopologyView,
    sources: &[NodeId],
    fractions: &[f64],
    config: &GossipConfig,
) -> Vec<Vec<f64>> {
    let chunk = chunk_len(sources.len());
    let parts: Vec<Vec<Vec<SimTime>>> = rayon::par_map_index(sources.len().div_ceil(chunk), |ci| {
        let mut scratch = scratch_for(view);
        sources[ci * chunk..sources.len().min((ci + 1) * chunk)]
            .iter()
            .map(|&src| {
                propagate(view, src, config, &mut scratch, None);
                let mut coverage = vec![SimTime::ZERO; fractions.len()];
                scratch.coverage_times_into(view, fractions, &mut coverage);
                coverage
            })
            .collect()
    });
    let rows: Vec<Vec<SimTime>> = parts.into_iter().flatten().collect();
    (0..fractions.len())
        .map(|k| rows.iter().map(|row| row[k].as_ms()).collect())
        .collect()
}

/// A propagation scratch sized for `view`.
fn scratch_for(view: &TopologyView) -> GossipScratch {
    GossipScratch::with_capacity(view.len(), view.directed_edge_count())
}

/// Propagates one block from `source` through `view` under `config`:
/// the analytic flood when [`GossipConfig::is_analytic`] holds, else the
/// message-level kernel. Either leaves the block's arrivals, relay times
/// and config in `scratch`.
fn propagate(
    view: &TopologyView,
    source: NodeId,
    config: &GossipConfig,
    scratch: &mut GossipScratch,
    faults: Option<&BlockFaults<'_>>,
) {
    if config.is_analytic() {
        view.broadcast_into_faulted(source, scratch, faults);
    } else {
        view.gossip_into_faulted(source, config, scratch, faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::{ConnectionLimits, GeoLatencyModel, PopulationBuilder};
    use perigee_topology::{RandomBuilder, TopologyBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_engine(
        n: usize,
        method: ScoringMethod,
        blocks: usize,
        seed: u64,
    ) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(method);
        cfg.blocks_per_round = blocks;
        let engine = PerigeeEngine::new(pop, lat, topo, method, cfg).unwrap();
        (engine, rng)
    }

    /// 60-node Subset worlds whose delays are made invalid after
    /// `PerigeeEngine::new` (which refuses them) — through `profile_mut`,
    /// as an adversary injection would. Each must panic at the view,
    /// naming the node, before a round propagates anything.
    fn subset_world_with(edit: impl Fn(NodeId, &mut NodeProfile)) {
        let (mut engine, mut rng) = small_engine(60, ScoringMethod::Subset, 20, 60);
        for v in (0..60).map(NodeId::new) {
            edit(v, engine.population_mut().profile_mut(v));
        }
        engine.run_round(&mut rng);
    }

    #[test]
    #[should_panic(expected = "node n0 relays after a negative, NaN or infinite delay")]
    fn negative_validation_delays_panic_at_the_view() {
        subset_world_with(|_, p| p.validation_delay = SimTime::from_ms(-30.0));
    }

    #[test]
    #[should_panic(expected = "node n17 relays after a negative, NaN or infinite delay")]
    fn one_negative_relay_delay_panics_at_the_view() {
        subset_world_with(|v, p| {
            if v == NodeId::new(17) {
                p.behavior = perigee_netsim::Behavior::Delay(SimTime::from_ms(-200.0));
            }
        });
    }

    /// Every node relaying 200 ms early once drove the calendar queue into
    /// a 1 GiB allocation; the view refuses the world before any queue
    /// exists.
    #[test]
    #[should_panic(expected = "node n0 relays after a negative, NaN or infinite delay")]
    fn negative_relay_delays_everywhere_panic_before_any_queue() {
        subset_world_with(|_, p| {
            p.behavior = perigee_netsim::Behavior::Delay(SimTime::from_ms(-200.0));
        });
    }

    #[test]
    fn new_refuses_invalid_relay_delays() {
        for bad in [-30.0, f64::NAN, f64::INFINITY].map(SimTime::from_ms) {
            for throttle in [false, true] {
                let mut rng = StdRng::seed_from_u64(60);
                let mut pop = PopulationBuilder::new(60).build(&mut rng).unwrap();
                let p = pop.profile_mut(NodeId::new(7));
                if throttle {
                    p.behavior = perigee_netsim::Behavior::Delay(bad);
                } else {
                    p.validation_delay = bad;
                }
                let lat = GeoLatencyModel::new(&pop, 60);
                let topo = RandomBuilder::new().build(
                    &pop,
                    &lat,
                    ConnectionLimits::paper_default(),
                    &mut rng,
                );
                let cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
                let made = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg);
                assert_eq!(
                    made.err(),
                    Some("validation and relay delays must be finite and non-negative"),
                    "delay {bad}, throttle {throttle}"
                );
            }
        }
    }

    /// `ChurnProcess::with_arrival_profile` refuses a negative, NaN or
    /// infinite arrival delay where it enters (netsim's tests); a valid
    /// profile reaches the joiners of a running world.
    #[test]
    fn valid_arrival_profile_reaches_the_joiners() {
        let (mut engine, mut rng) = small_engine(60, ScoringMethod::Subset, 20, 60);
        let delay = SimTime::from_ms(30.0);
        let mut profile = PopulationBuilder::new(0);
        profile.validation(perigee_netsim::ValidationDist::Constant(delay));
        engine.set_churn(
            ChurnProcess::steady_state(60, 0.05, 9)
                .with_arrival_profile(profile)
                .unwrap(),
        );
        let joined: usize = (0..3).map(|_| engine.run_round(&mut rng).joined).sum();
        assert!(joined > 0, "the process must admit someone");
        let pop = engine.population();
        for v in (60..pop.len() as u32).map(NodeId::new) {
            assert_eq!(pop.validation_delay(v), delay, "joiner {v}");
        }
    }

    #[test]
    fn invariants_hold_across_rounds() {
        let (mut engine, mut rng) = small_engine(80, ScoringMethod::Subset, 15, 1);
        for _ in 0..5 {
            engine.run_round(&mut rng);
            engine.topology().assert_invariants();
            for i in 0..80u32 {
                let v = NodeId::new(i);
                assert!(engine.topology().out_degree(v) <= 8);
                assert!(engine.topology().in_degree(v) <= 20);
            }
        }
        assert_eq!(engine.rounds_run(), 5);
    }

    #[test]
    fn subset_rounds_reduce_propagation_delay() {
        let (mut engine, mut rng) = small_engine(150, ScoringMethod::Subset, 30, 2);
        let before: f64 = engine.evaluate(0.9).iter().sum::<f64>() / 150.0;
        engine.run_rounds(12, &mut rng);
        let after: f64 = engine.evaluate(0.9).iter().sum::<f64>() / 150.0;
        assert!(
            after < before * 0.95,
            "mean λ90 should drop: {before:.1} -> {after:.1}"
        );
    }

    #[test]
    fn vanilla_rounds_tighten_edge_latencies() {
        // Vanilla's clearest learning signal (the Fig. 5 effect): the mean
        // latency of retained edges drops as slow-delivering neighbors are
        // cut. (Its λ90 gain is small at this scale; the full-size check
        // lives in the integration suite.)
        let (mut engine, mut rng) = small_engine(150, ScoringMethod::Vanilla, 30, 3);
        let mean_edge = |e: &PerigeeEngine<GeoLatencyModel>| {
            let edges = e.topology().undirected_edges();
            edges
                .iter()
                .map(|&(u, v)| e.latency().delay(u, v).as_ms())
                .sum::<f64>()
                / edges.len() as f64
        };
        let before = mean_edge(&engine);
        engine.run_rounds(12, &mut rng);
        let after = mean_edge(&engine);
        assert!(
            after < before * 0.9,
            "mean edge latency should tighten: {before:.1} -> {after:.1}"
        );
    }

    #[test]
    fn ucb_drops_at_most_explore_plus_one_per_round() {
        let (mut engine, mut rng) = small_engine(60, ScoringMethod::Ucb, 1, 4);
        for _ in 0..10 {
            let stats = engine.run_round(&mut rng);
            // Each node may drop at most one neighbor per UCB round.
            assert!(stats.dropped <= 60, "dropped {}", stats.dropped);
        }
    }

    #[test]
    fn non_adopters_keep_their_outgoing_set() {
        let (mut engine, mut rng) = small_engine(60, ScoringMethod::Subset, 10, 5);
        let frozen = NodeId::new(7);
        let mut adopters = vec![true; 60];
        adopters[frozen.index()] = false;
        engine.set_adopters(adopters);
        let before = engine.topology().outgoing_vec(frozen);
        engine.run_rounds(4, &mut rng);
        assert_eq!(engine.topology().outgoing_vec(frozen), before);
    }

    #[test]
    fn liveness_leaves_non_adopters_peers_alone() {
        let mut rng = StdRng::seed_from_u64(5);
        let pop = PopulationBuilder::new(60).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 5);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
        cfg.blocks_per_round = 10;
        cfg.liveness = crate::LivenessConfig::aggressive();
        let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
        let frozen = NodeId::new(7);
        let mut adopters = vec![true; 60];
        adopters[frozen.index()] = false;
        engine.set_adopters(adopters);
        // A free-rider relays nothing — its own blocks included — so the
        // frozen node hears nothing from it, round after round.
        let before = engine.topology().outgoing_vec(frozen);
        crate::adversary::make_free_rider(engine.population_mut(), before[0]);
        let rounds = crate::liveness::EVICT_AFTER as usize + 2;
        engine.run_rounds(rounds, &mut rng);
        assert_eq!(
            engine.topology().outgoing_vec(frozen),
            before,
            "a non-adopter keeps its initial neighbors, silent ones included"
        );
    }

    #[test]
    fn world_delta_resizes_and_clears() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut histories = vec![NodeHistory::default(); 3];
        histories[0].absorb(b, (0..10).map(f64::from));
        histories[2].absorb(a, (0..10).map(f64::from));

        // A grown world with node 2 departed.
        let delta = WorldDelta {
            joined: vec![NodeId::new(3), NodeId::new(4)],
            departed: vec![NodeId::new(2)],
        };
        follow_world_delta(&mut histories, &delta, 5);
        assert_eq!(histories.len(), 5);
        assert_eq!(histories[0].sample_count(b), 10, "survivor history kept");
        assert_eq!(
            histories[2].sample_count(a),
            0,
            "departed node's own beliefs are gone"
        );
        // The new slots are usable immediately.
        let ucb = crate::UcbScoring::new(90.0, 1.0);
        let bounds = ucb.bounds_of(histories[4].samples_for(a));
        assert!(bounds.estimate.is_infinite());
    }

    #[test]
    fn disconnect_forgets_history() {
        let (mut engine, mut rng) = small_engine(40, ScoringMethod::Ucb, 2, 31);
        engine.set_churn(ChurnProcess::steady_state(40, 0.05, 32));
        // Every sample a node holds is about a current outgoing neighbor:
        // dropped and departed connections take theirs along.
        let held_by_current_neighbors = |e: &PerigeeEngine<GeoLatencyModel>| {
            let n = e.population().len() as u32;
            let mut held = 0;
            for v in (0..n).map(NodeId::new) {
                let outgoing = e.topology().outgoing_vec(v);
                for u in (0..n).map(NodeId::new) {
                    let count = e.histories[v.index()].sample_count(u);
                    assert!(count == 0 || outgoing.contains(&u), "{v} remembers {u}");
                    held += count;
                }
            }
            held
        };
        let (mut held, mut severed) = (0, 0);
        for _ in 0..6 {
            let stats = engine.run_round(&mut rng);
            severed += stats.dropped + stats.departed;
            held += held_by_current_neighbors(&engine);
        }
        assert!(held > 0, "UCB rounds must build history");
        assert!(severed > 0, "drops and departures must fire");
    }

    /// A schedule that names a slot past the world would index out of
    /// bounds in the first round that pops it; installing it panics
    /// first, naming the id.
    #[test]
    #[should_panic(expected = "churn schedule names node n6000, outside the 60-slot world")]
    fn set_churn_refuses_a_schedule_outside_the_world() {
        use perigee_netsim::SessionDist;
        let (mut engine, _) = small_engine(60, ScoringMethod::Subset, 4, 61);
        let mut process = ChurnProcess::poisson(0.0, SessionDist::Constant(4.0), 9);
        process.note_join(NodeId::new(6000));
        engine.set_churn(process);
    }

    #[test]
    fn churny_rounds_patch_the_view_with_zero_extra_rebuilds() {
        use perigee_netsim::ChurnProcess;
        let (mut engine, mut rng) = small_engine(80, ScoringMethod::Subset, 10, 21);
        engine.set_churn(ChurnProcess::steady_state(80, 0.05, 33));
        let mut joined = 0;
        let mut departed = 0;
        for _ in 0..12 {
            let stats = engine.run_round(&mut rng);
            joined += stats.joined;
            departed += stats.departed;
            assert!(stats.p90_lambda90_ms.is_finite());
            assert!(stats.mean_lambda90_ms <= stats.p90_lambda90_ms * 1.000001 || stats.blocks < 5);
            engine.topology().assert_invariants();
        }
        assert!(
            joined > 0 && departed > 0,
            "5% churn over 12 rounds must fire"
        );
        assert_eq!(
            engine.view_rebuilds(),
            1,
            "every churny round must patch, never rebuild"
        );
        engine.assert_view_consistency();
        assert_eq!(
            engine.population().len(),
            80 + joined,
            "ids grow monotonically with arrivals, never reusing slots"
        );
        assert_eq!(engine.population().alive_count(), 80 + joined - departed);
        // Dead slots never appear in anyone's peer list.
        for i in 0..engine.population().len() as u32 {
            let v = NodeId::new(i);
            if !engine.population().is_alive(v) {
                assert_eq!(engine.topology().degree(v), 0, "{v} is dead but connected");
            }
        }
    }

    #[test]
    fn growth_only_process_grows_the_world() {
        use perigee_netsim::{ChurnProcess, SessionDist};
        let (mut engine, mut rng) = small_engine(60, ScoringMethod::Subset, 8, 22);
        engine.set_churn(ChurnProcess::poisson(
            4.0,
            SessionDist::Constant(f64::INFINITY),
            44,
        ));
        for _ in 0..10 {
            engine.run_round(&mut rng);
        }
        let alive = engine.population().alive_count();
        assert!(alive > 60, "the world must grow, got {alive}");
        assert_eq!(engine.population().len(), alive, "nobody departs");
        assert_eq!(engine.view_rebuilds(), 1);
        engine.assert_view_consistency();
        // Joiners are reachable: λ90 over live sources stays finite.
        let lambdas = engine.evaluate(0.9);
        assert_eq!(lambdas.len(), alive);
        assert!(
            lambdas.iter().all(|l| l.is_finite()),
            "a joiner is stranded"
        );
        // Uniform hash power stays exactly uniform through growth.
        let first = engine.population().hash_power(NodeId::new(0));
        for id in engine.population().ids_alive() {
            assert_eq!(
                engine.population().hash_power(id).to_bits(),
                first.to_bits()
            );
        }
    }

    #[test]
    fn ucb_state_resizes_and_survives_churn() {
        use perigee_netsim::ChurnProcess;
        let (mut engine, mut rng) = small_engine(50, ScoringMethod::Ucb, 1, 23);
        engine.set_churn(ChurnProcess::steady_state(50, 0.08, 55));
        for _ in 0..15 {
            engine.run_round(&mut rng);
            engine.topology().assert_invariants();
        }
        assert_eq!(engine.view_rebuilds(), 1);
        engine.assert_view_consistency();
    }

    #[test]
    fn churn_with_address_book_bootstraps_joiners() {
        use crate::discovery::AddressBook;
        use perigee_netsim::ChurnProcess;
        let (mut engine, mut rng) = small_engine(60, ScoringMethod::Subset, 8, 24);
        let book = AddressBook::bootstrap(60, 10, 40, &mut rng);
        engine.set_address_book(book);
        engine.set_churn(ChurnProcess::steady_state(60, 0.08, 66));
        let mut joined = 0;
        for _ in 0..10 {
            joined += engine.run_round(&mut rng).joined;
        }
        assert!(joined > 0);
        engine.topology().assert_invariants();
        engine.assert_view_consistency();
        // Every live joiner got bootstrap addresses and real connections.
        for id in engine.population().ids_alive() {
            if id.index() >= 60 {
                assert!(engine.address_book().unwrap().known_count(id) > 0);
            }
        }
    }

    #[test]
    fn mismatched_sizes_are_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let pop = PopulationBuilder::new(10).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 0);
        let topo = Topology::new(9, ConnectionLimits::paper_default());
        let cfg = PerigeeConfig::default();
        assert!(PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, mut rng_a) = small_engine(70, ScoringMethod::Subset, 10, 9);
        let (mut b, mut rng_b) = small_engine(70, ScoringMethod::Subset, 10, 9);
        a.run_rounds(3, &mut rng_a);
        b.run_rounds(3, &mut rng_b);
        assert_eq!(a.topology(), b.topology());
    }

    #[test]
    fn gossip_mode_rounds_learn_too() {
        let (mut engine, mut rng) = small_engine(120, ScoringMethod::Subset, 20, 12);
        engine
            .set_propagation(GossipConfig::inv_getdata(0.0))
            .unwrap();
        let before: f64 = engine.evaluate(0.9).iter().sum::<f64>() / 120.0;
        engine.run_rounds(8, &mut rng);
        let after: f64 = engine.evaluate(0.9).iter().sum::<f64>() / 120.0;
        assert!(
            after < before,
            "perigee should learn under INV/GETDATA too: {before:.1} -> {after:.1}"
        );
        engine.topology().assert_invariants();
    }

    /// The default config runs the analytic kernel; the message-level
    /// kernel flooding the same blocks must give the very same round —
    /// same λs, same rows, hence the same decisions — with an active
    /// fault plan and silent and delaying relays in the overlay. The
    /// round's rows, normalized fused against each first arrival, must
    /// equal the message-level faulted rows normalized two-pass by their
    /// own minima.
    #[test]
    fn analytic_and_flood_gossip_modes_agree() {
        use perigee_netsim::{Behavior, FaultPlan, LinkFaultRates};
        let (mut engine, mut rng) = small_engine(60, ScoringMethod::Subset, 10, 13);
        let pop = engine.population_mut();
        pop.profile_mut(NodeId::new(3)).behavior = Behavior::Silent;
        pop.profile_mut(NodeId::new(8)).behavior = Behavior::Delay(SimTime::from_ms(300.0));
        let plan = FaultPlan {
            base: LinkFaultRates {
                drop_prob: 0.1,
                extra_delay: SimTime::from_ms(4.0),
                jitter: SimTime::from_ms(20.0),
                duplicate_prob: 0.1,
            },
            ..FaultPlan::inert(7)
        };
        engine.set_fault_plan(plan).unwrap();
        assert!(engine.propagation().is_analytic());

        let view = engine.view();
        let faults = engine.fault_compile(&view).expect("an active plan");
        let miners = engine.sampler.sample_round(10, &mut rng);
        let round = engine.observe_round_faulted(&view, &miners, Some(&faults), 0);

        let rows = round.observations().as_dense().unwrap();
        let mut scratch = GossipScratch::new();
        let (mut lambda90, mut lambda50) = (Vec::new(), Vec::new());
        let mut seen = vec![0u32; view.len()];
        for (i, &miner) in miners.iter().enumerate() {
            let bf = faults.block(i);
            view.gossip_into_faulted(miner, &GossipConfig::flood(), &mut scratch, Some(&bf));
            let two_pass: Vec<Vec<f32>> = perigee_oracle::collect_rows(&scratch, &view, Some(&bf))
                .into_iter()
                .map(perigee_oracle::normalize_row)
                .collect();
            crate::observation::assert_block_rows(rows, i, &two_pass, "same rows");
            let mut coverage = [SimTime::ZERO; 2];
            scratch.coverage_times_into(&view, &[0.9, 0.5], &mut coverage);
            lambda90.push(coverage[0].as_ms());
            lambda50.push(coverage[1].as_ms());
            for (s, t) in seen.iter_mut().zip(scratch.arrivals()) {
                *s += u32::from(t.is_finite());
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean(round.lambda90_ms()) - mean(&lambda90)).abs() < 1e-6);
        assert_eq!(round.lambda90_ms(), lambda90.as_slice());
        assert_eq!(round.lambda50_ms(), lambda50.as_slice());
        assert_eq!(round.seen(), seen.as_slice());
        assert_eq!(rows.block_count(), miners.len());
    }

    #[test]
    fn invalid_block_sizes_are_rejected_and_leave_the_config() {
        let (mut engine, _) = small_engine(20, ScoringMethod::Subset, 2, 15);
        let inv = GossipConfig::inv_getdata(0.5);
        engine.set_propagation(inv).unwrap();
        for size in [-1.0, -0.001, f64::NAN, f64::INFINITY] {
            for bad in [
                GossipConfig::inv_getdata(size),
                GossipConfig::push_pull(size, 2),
            ] {
                assert!(
                    matches!(
                        engine.set_propagation(bad),
                        Err(NetsimError::InvalidConfig(_))
                    ),
                    "block size {size} must be rejected"
                );
                assert_eq!(
                    engine.propagation(),
                    inv,
                    "a rejected config changes nothing"
                );
            }
        }
    }

    #[test]
    fn partial_discovery_still_learns() {
        use crate::discovery::AddressBook;
        let (mut engine, mut rng) = small_engine(150, ScoringMethod::Subset, 25, 14);
        let book = AddressBook::bootstrap(150, 20, 60, &mut rng);
        engine.set_address_book(book);
        let before: f64 = engine.evaluate(0.9).iter().sum::<f64>() / 150.0;
        engine.run_rounds(10, &mut rng);
        let after: f64 = engine.evaluate(0.9).iter().sum::<f64>() / 150.0;
        assert!(
            after < before,
            "partial views must not break learning: {before:.1} -> {after:.1}"
        );
        // Books kept filling through gossip.
        let known = engine.address_book().unwrap().known_count(NodeId::new(0));
        assert!(known >= 20, "address gossip should grow views, got {known}");
        engine.topology().assert_invariants();
    }

    /// The oracle of the traffic fan-out: `messages` simulated, covered
    /// and recorded one by one through `view` onto `store` (an empty store
    /// of either backend). Returns the store, the per-class stats and the
    /// tallies.
    fn traffic_message_by_message(
        view: &TopologyView,
        traffic: &TrafficConfig,
        messages: &[TrafficMessage],
        store: RoundStore,
    ) -> (RoundStore, TrafficRoundStats, SimCounters) {
        let mut batch = Vec::new();
        traffic.batch_for(messages, &mut batch);
        let mut scratch = GossipScratch::new();
        let mut collector = ObservationCollector::from_view(view);
        let mut per_class: Vec<TrafficClassRoundStats> = traffic
            .classes
            .iter()
            .map(|c| TrafficClassRoundStats {
                name: c.name.clone(),
                messages: 0,
                mean_lambda90_ms: 0.0,
                mean_lambda50_ms: 0.0,
            })
            .collect();
        for (m, msg) in messages.iter().zip(&batch) {
            view.gossip_into(msg.source, &msg.config, &mut scratch);
            let mut coverage = [SimTime::ZERO; 2];
            scratch.coverage_times_into(view, &[0.9, 0.5], &mut coverage);
            collector.record_scratch(view, &scratch);
            let c = &mut per_class[m.class as usize];
            c.messages += 1;
            c.mean_lambda90_ms += coverage[0].as_ms();
            c.mean_lambda50_ms += coverage[1].as_ms();
        }
        for c in &mut per_class {
            c.mean_lambda90_ms /= c.messages as f64;
            c.mean_lambda50_ms /= c.messages as f64;
        }
        let stats = TrafficRoundStats {
            messages: messages.len(),
            per_class,
        };
        let store = match store {
            RoundStore::Dense(_) => RoundStore::Dense(collector.finish()),
            RoundStore::Sketch(mut sketch) => {
                sketch.ingest(&collector.finish());
                RoundStore::Sketch(sketch)
            }
        };
        (store, stats, scratch.take_counters())
    }

    /// The traffic fan-out serves a repeat from its predecessor's run,
    /// covers it with its predecessor's λs and copies its rows. On both
    /// backends and 1, 2 and 3 threads, over a stream whose runs of 1 to
    /// 9 copies straddle chunk starts (wherever there is more than one
    /// chunk), that equals simulating, covering and recording every
    /// message one by one; only the repeats inside a chunk are served, and
    /// every other count is the loop's.
    #[test]
    fn traffic_repeats_equal_a_message_by_message_loop() {
        let traffic = TrafficConfig::paper_stream(5);
        let messages: Vec<TrafficMessage> = (0..3u32)
            .flat_map(|class| {
                (0..40u32).step_by(3).flat_map(move |v| {
                    let copies = 1 + (5 * v + class) as usize % 9;
                    std::iter::repeat_n(
                        TrafficMessage {
                            source: NodeId::new(v),
                            class,
                        },
                        copies,
                    )
                })
            })
            .collect();
        let repeat_at = |i: &usize| messages[*i] == messages[*i - 1];
        for backend in [ObservationBackend::Dense, ObservationBackend::Sketch] {
            let (mut engine, _) = small_engine(40, ScoringMethod::Subset, 4, 71);
            engine.config.observation_backend = backend;
            let view = engine.view();
            let empty = || match backend {
                ObservationBackend::Dense => RoundStore::Dense(ObservationStore::default()),
                ObservationBackend::Sketch => RoundStore::Sketch(
                    SketchObservationStore::from_view(&view, engine.config.percentile),
                ),
            };
            let (store, stats, looped) =
                traffic_message_by_message(&view, &traffic, &messages, empty());
            for threads in [1, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let what = format!("{backend:?} on {threads} threads");
                let (chunk, (got_store, got_stats, got)) = pool.install(|| {
                    let mut chunk = chunk_len(messages.len());
                    if backend == ObservationBackend::Sketch {
                        chunk = chunk.min(SKETCH_CHUNK_BLOCKS);
                    }
                    let observed = engine.observe_traffic(&view, &traffic, &messages, empty());
                    (chunk, observed)
                });
                let (starts, inside): (Vec<usize>, Vec<usize>) = (1..messages.len())
                    .filter(repeat_at)
                    .partition(|i| i % chunk == 0);
                if chunk < messages.len() {
                    assert!(
                        !starts.is_empty(),
                        "{what}: a run must straddle a chunk start"
                    );
                }
                assert_eq!(got_store, store, "{what}: store");
                assert_eq!(got_stats, stats, "{what}: traffic stats");
                assert_eq!(got.batch_repeats, inside.len() as u64, "{what}: repeats");
                assert_eq!(got.batch_messages, messages.len() as u64, "{what}");
                let counts = SimCounters {
                    batch_messages: 0,
                    batch_peak: 0,
                    batch_repeats: 0,
                    ..got
                };
                assert_eq!(counts, looped, "{what}: counters");
            }
        }
    }

    #[test]
    fn round_stats_are_populated() {
        let (mut engine, mut rng) = small_engine(50, ScoringMethod::Subset, 7, 10);
        let s = engine.run_round(&mut rng);
        assert_eq!(s.round, 0);
        assert_eq!(s.blocks, 7);
        assert!(s.mean_lambda90_ms > 0.0 && s.mean_lambda90_ms.is_finite());
        assert!(s.mean_lambda50_ms <= s.mean_lambda90_ms);
    }
}
