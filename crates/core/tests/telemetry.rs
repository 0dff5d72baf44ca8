//! Telemetry is strictly observational: attaching a `RunTelemetry`
//! handle (phase timers, hot-path counters, per-round trace records)
//! must change **nothing** about what the engine simulates. These tests
//! pin that contract bit-for-bit in the hardest world the suite has —
//! active link faults, steady-state churn, liveness eviction and a
//! transaction stream all at once — across pinned 1/2/8-thread rayon
//! pools and both priority-queue kinds. They also pin the counters
//! themselves: the totals harvested through the parallel round path
//! must equal a direct sequential scratch run over the same blocks.

use std::sync::{Arc, Mutex};

use perigee_core::{
    LivenessConfig, PerigeeConfig, PerigeeEngine, PropagationMode, RoundStats, ScoringMethod,
};
use perigee_netsim::{
    reference, BroadcastScratch, ChurnProcess, ConnectionLimits, FaultPlan, FaultWindow,
    GeoLatencyModel, GossipConfig, GossipScratch, LinkFaultRates, LinkFlaps, MinerSampler,
    Population, PopulationBuilder, QueueKind, SimCounters, SimTime, Topology, TopologyView,
    TrafficConfig,
};
use perigee_telemetry::{RunTelemetry, TraceRecord, TraceSink};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A sink that appends every record to a shared vector, so a test can
/// hand the engine telemetry and still read back what it emitted.
#[derive(Debug, Clone, Default)]
struct CollectingSink(Arc<Mutex<Vec<TraceRecord>>>);

impl TraceSink for CollectingSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.lock().unwrap().push(rec.clone());
    }
}

/// The nastiest world the determinism suite knows: burst loss, flapping
/// links, a timed partition, steady-state churn, aggressive liveness
/// and a dense transaction stream — everything that could plausibly
/// interleave with a timer or counter read.
fn churny_faulted_traffic_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x7E1E,
        base: LinkFaultRates {
            drop_prob: 0.03,
            extra_delay: SimTime::from_ms(2.0),
            jitter: SimTime::from_ms(10.0),
            duplicate_prob: 0.05,
        },
        windows: vec![FaultWindow {
            start: 3,
            end: 7,
            rates: LinkFaultRates {
                drop_prob: 0.5,
                extra_delay: SimTime::from_ms(20.0),
                jitter: SimTime::from_ms(40.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.1,
            period: 5,
            down: 2,
        }),
        partitions: Vec::new(),
        regional: Vec::new(),
    }
}

fn hard_world_engine(kind: QueueKind) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(67);
    let pop = PopulationBuilder::new(70).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 67);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = 6;
    cfg.liveness = LivenessConfig::aggressive();
    let mut e = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    e.set_queue_kind(kind);
    e.set_churn(ChurnProcess::steady_state(70, 0.03, 107));
    e.set_fault_plan(churny_faulted_traffic_plan()).unwrap();
    e.set_traffic(TrafficConfig::paper_stream(0x7AFF)).unwrap();
    (e, rng)
}

type WorldOutcome = (Vec<RoundStats>, Topology, Population, Vec<f64>);

/// Runs the hard world for `rounds`, optionally under a pinned pool and
/// optionally instrumented; returns everything the simulation produced
/// plus whatever the telemetry sink saw.
fn run_world(
    rounds: usize,
    threads: Option<usize>,
    kind: QueueKind,
    telemetry: bool,
) -> (WorldOutcome, Vec<TraceRecord>) {
    let (mut e, mut rng) = hard_world_engine(kind);
    let sink = CollectingSink::default();
    if telemetry {
        e.set_telemetry(RunTelemetry::new("test", 67).with_sink(Box::new(sink.clone())));
    }
    let stats = {
        let go = |e: &mut PerigeeEngine<GeoLatencyModel>, rng: &mut StdRng| -> Vec<RoundStats> {
            (0..rounds).map(|_| e.run_round(rng)).collect()
        };
        match threads {
            None => go(&mut e, &mut rng),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(|| go(&mut e, &mut rng)),
        }
    };
    let outcome = (
        stats,
        e.topology().clone(),
        e.population().clone(),
        e.evaluate(0.9),
    );
    let records = sink.0.lock().unwrap().clone();
    (outcome, records)
}

/// The flagship contract: telemetry-on and telemetry-off runs of the
/// churny faulted traffic world produce the same IEEE-754 RoundStats,
/// the same learned topology, the same population and the same final
/// λ-curve — across pinned 1/2/8-thread pools and both queue kinds.
#[test]
fn telemetry_on_and_off_are_bit_identical_in_the_hard_world() {
    const ROUNDS: usize = 10;
    let (reference, no_records) = run_world(ROUNDS, None, QueueKind::Calendar, false);
    assert!(
        no_records.is_empty(),
        "disabled telemetry must emit nothing"
    );
    assert!(
        reference.0.iter().any(|s| s.joined > 0) || reference.0.iter().any(|s| s.departed > 0),
        "churn must fire for this test to bite"
    );

    for (threads, kind) in [
        (None, QueueKind::Calendar),
        (Some(1), QueueKind::Calendar),
        (Some(2), QueueKind::BinaryHeap),
        (Some(8), QueueKind::Calendar),
        (Some(1), QueueKind::BinaryHeap),
        (Some(8), QueueKind::BinaryHeap),
    ] {
        let (instrumented, records) = run_world(ROUNDS, threads, kind, true);
        assert_eq!(
            instrumented.0, reference.0,
            "RoundStats diverged with telemetry on ({threads:?}/{kind:?})"
        );
        assert_eq!(
            instrumented.1, reference.1,
            "topology diverged with telemetry on ({threads:?}/{kind:?})"
        );
        assert_eq!(
            instrumented.2, reference.2,
            "population diverged with telemetry on ({threads:?}/{kind:?})"
        );
        assert_eq!(
            instrumented.3, reference.3,
            "evaluation diverged with telemetry on ({threads:?}/{kind:?})"
        );
        assert_eq!(records.len(), ROUNDS, "one trace record per round");
    }
}

/// Counter names whose totals depend only on *what was simulated*, not
/// on how the work was chunked. The excluded four are mechanical:
/// `epoch_bumps`/`epoch_refills` count per-scratch reuse (each worker
/// chunk owns a scratch, so they scale with the chunk layout) and the
/// two `*_peak` gauges watch transient queue/batch occupancy, which may
/// differ between queue kinds even when every result is identical.
const SEMANTIC_COUNTERS: [&str; 11] = [
    "gossip_pops",
    "gossip_elided",
    "gossip_relays",
    "gossip_deliveries",
    "flood_pops",
    "flood_relaxations",
    "flood_improvements",
    "fault_drops",
    "fault_delays",
    "fault_dupes",
    "batch_messages",
];

fn semantic_counters(rec: &TraceRecord) -> Vec<(&str, u64)> {
    SEMANTIC_COUNTERS
        .iter()
        .map(|&name| (name, rec.get_counter(name).unwrap_or(0)))
        .collect()
}

/// Drops the scratch-lifecycle tallies (one scratch per worker chunk →
/// they scale with the chunk layout) so a parallel harvest can be
/// compared field-for-field against a single-scratch sweep.
fn without_scratch_lifecycle(mut c: SimCounters) -> SimCounters {
    c.epoch_bumps = 0;
    c.epoch_refills = 0;
    c
}

/// The *records* are deterministic too, modulo wall-clock phase
/// timings and the mechanical chunk-layout counters: every semantic
/// tally and scalar value a round emits is identical across thread
/// counts and queue kinds, because counter merge is
/// commutative/associative addition.
#[test]
fn trace_counters_and_values_are_thread_and_queue_independent() {
    const ROUNDS: usize = 6;
    let (_, reference) = run_world(ROUNDS, Some(1), QueueKind::Calendar, true);
    assert_eq!(reference.len(), ROUNDS);
    for rec in &reference {
        assert_eq!(rec.kind, "round");
        assert!(
            rec.get_counter("flood_pops").unwrap_or(0) > 0
                || rec.get_counter("gossip_pops").unwrap_or(0) > 0,
            "propagation counters must tally"
        );
        assert!(rec.get_counter("traffic_messages").unwrap() > 0);
        assert_eq!(rec.get_counter("view_rebuilds"), Some(1));
        assert!(rec.get_value("mean_lambda90_ms").is_some());
        assert!(!rec.phases_s.is_empty(), "round must carry phase laps");
    }
    for (threads, kind) in [
        (Some(2), QueueKind::BinaryHeap),
        (Some(8), QueueKind::Calendar),
    ] {
        let (_, records) = run_world(ROUNDS, threads, kind, true);
        for (a, b) in reference.iter().zip(&records) {
            assert_eq!(
                semantic_counters(a),
                semantic_counters(b),
                "counters diverged ({threads:?}/{kind:?})"
            );
            assert_eq!(a.values, b.values, "values diverged ({threads:?}/{kind:?})");
            assert_eq!((a.round, &a.run), (b.round, &b.run));
        }
    }
}

/// Every round record names its laps in pipeline order — the keys
/// `repro trace`'s tables and the round benchmark's per-layer groups
/// read. `audit` is appended on audit rounds and only there.
#[test]
fn round_laps_come_in_pipeline_order() {
    const PIPELINE: [&str; 10] = [
        "mine",
        "view",
        "fault_compile",
        "propagation",
        "traffic",
        "scoring",
        "liveness",
        "rewiring",
        "churn",
        "view_patch",
    ];
    const AUDIT_EVERY: u64 = 3;
    let (mut e, mut rng) = hard_world_engine(QueueKind::Calendar);
    let sink = CollectingSink::default();
    e.set_telemetry(RunTelemetry::new("laps", 67).with_sink(Box::new(sink.clone())));
    e.set_audit_every(AUDIT_EVERY as usize);
    let stats = e.run_rounds(7, &mut rng);
    assert!(
        stats.iter().any(|s| s.joined > 0 || s.departed > 0),
        "churn must fire for this test to bite"
    );
    let records = sink.0.lock().unwrap().clone();
    assert_eq!(records.len(), stats.len(), "one trace record per round");
    for rec in &records {
        let names: Vec<&str> = rec.phases_s.iter().map(|(n, _)| n.as_str()).collect();
        let mut expected = PIPELINE.to_vec();
        if (rec.round + 1) % AUDIT_EVERY == 0 {
            expected.push("audit");
        }
        assert_eq!(names, expected, "laps of round {}", rec.round);
    }
}

/// The registry folds every emitted record: whole-run counter totals
/// equal the sum of the per-round records, and the handle survives a
/// `take_telemetry` round-trip.
#[test]
fn registry_accumulates_round_records_and_handle_round_trips() {
    let (mut e, mut rng) = hard_world_engine(QueueKind::Calendar);
    e.set_telemetry(RunTelemetry::new("agg", 67));
    assert!(e.telemetry().is_some());
    let mut blocks = 0u64;
    for _ in 0..4 {
        blocks += e.run_round(&mut rng).blocks as u64;
    }
    let tel = e.take_telemetry().expect("handle still installed");
    assert!(e.telemetry().is_none(), "take must uninstall");
    assert_eq!(tel.registry().counter("blocks"), blocks);
    assert!(tel.registry().counter("traffic_messages") > 0);
    assert!(
        tel.registry().histogram("phase_s/propagation").is_some(),
        "phase laps must stream into per-phase histograms"
    );
}

/// Counter accuracy, flood mode: the totals the parallel round path
/// harvests equal a direct sequential `broadcast_into` sweep over the
/// same miners with one scratch — merge order cannot matter.
#[test]
fn flood_counters_match_a_direct_scratch_sweep() {
    let mut rng = StdRng::seed_from_u64(11);
    let pop = PopulationBuilder::new(90).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 11);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    let engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    let miners = MinerSampler::new(engine.population()).sample_round(15, &mut rng);

    let harvested = engine.observe_round(&miners).counters();

    let view = TopologyView::new(engine.topology(), engine.latency(), engine.population());
    let mut scratch = BroadcastScratch::with_capacity(view.len());
    let mut reached = 0u64;
    for &miner in &miners {
        view.broadcast_into(miner, &mut scratch);
        reached += scratch
            .arrivals()
            .iter()
            .filter(|t| t.as_ms().is_finite())
            .count() as u64;
    }
    let direct = scratch.take_counters();

    assert_eq!(
        without_scratch_lifecycle(harvested),
        without_scratch_lifecycle(direct),
        "parallel harvest must equal direct sweep"
    );
    assert!(
        harvested.flood_pops >= reached,
        "every reached node was popped"
    );
    assert!(harvested.flood_improvements >= reached - miners.len() as u64);
    assert!(harvested.flood_relaxations >= harvested.flood_improvements);
    assert!(harvested.queue_peak > 0);
    assert_eq!(harvested.gossip_pops, 0, "flood rounds never gossip");
}

/// Counter accuracy, gossip mode: same contract against a sequential
/// `gossip_into` sweep, plus a cross-check against the reference engine
/// [`reference::gossip_block`] — a counted delivery for every node it
/// says the block reached.
#[test]
fn gossip_counters_match_a_direct_scratch_sweep_and_the_outcome() {
    let mut rng = StdRng::seed_from_u64(29);
    let pop = PopulationBuilder::new(60).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 29);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let gossip = GossipConfig::inv_getdata(0.0);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = 8;
    let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    engine.set_propagation_mode(PropagationMode::Gossip(gossip));
    let miners = MinerSampler::new(engine.population()).sample_round(8, &mut rng);

    let harvested = engine.observe_round(&miners).counters();

    let view = TopologyView::new(engine.topology(), engine.latency(), engine.population());
    let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
    for &miner in &miners {
        view.gossip_into(miner, &gossip, &mut scratch);
    }
    let direct = scratch.take_counters();
    assert_eq!(
        without_scratch_lifecycle(harvested),
        without_scratch_lifecycle(direct),
        "parallel harvest must equal direct sweep"
    );

    // Cross-check against the reference engine: every node it reports as
    // reached received at least one full-block delivery, and the
    // engine's totals are consistent with that floor.
    let reached: u64 = miners
        .iter()
        .map(|&m| {
            let (arrivals, _) = reference::gossip_block(
                engine.topology(),
                engine.latency(),
                engine.population(),
                m,
                &gossip,
            );
            arrivals.iter().filter(|t| t.as_ms().is_finite()).count() as u64
        })
        .sum();
    assert!(
        harvested.gossip_deliveries >= reached - miners.len() as u64,
        "deliveries {} below reach floor {}",
        harvested.gossip_deliveries,
        reached
    );
    assert!(harvested.gossip_pops > 0);
    assert_eq!(harvested.flood_pops, 0, "gossip rounds never flood");
}

/// `SimCounters::merge` is the whole determinism story for counters:
/// counts add, peaks max — so chunk order can never show through.
#[test]
fn counter_merge_is_commutative_and_respects_peaks() {
    let mut a = SimCounters::ZERO;
    a.gossip_pops = 3;
    a.queue_peak = 10;
    a.batch_peak = 2;
    let mut b = SimCounters::ZERO;
    b.gossip_pops = 4;
    b.queue_peak = 7;
    b.batch_peak = 9;

    let mut ab = a;
    ab.merge(&b);
    let mut ba = b;
    ba.merge(&a);
    assert_eq!(ab, ba, "merge must be commutative");
    assert_eq!(ab.gossip_pops, 7);
    assert_eq!(ab.queue_peak, 10, "peaks take the max, not the sum");
    assert_eq!(ab.batch_peak, 9);
}
