//! The parallel round engine must be *bit-identical* to the sequential
//! path — a one-thread rayon pool: same RoundStats floats, same learned
//! topology, same observation rows — and its propagation phase must
//! reproduce the reference pipeline exactly: a flood through a freshly
//! built view (or the seed's event-queue gossip engine), recorded by
//! `ObservationCollector::record` (or `record_gossip`) and measured by
//! `reference::coverage_times`.

use perigee_core::{
    ObservationCollector, PerigeeConfig, PerigeeEngine, PropagationMode, ScoringMethod,
};
use perigee_netsim::{
    reference, BroadcastScratch, ConnectionLimits, GeoLatencyModel, GossipConfig, MinerSampler,
    NodeId, PopulationBuilder, SimTime, TopologyView,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine(n: usize, blocks: usize, seed: u64) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    engine_with(n, blocks, seed, ScoringMethod::Subset)
}

/// Runs `f` inside a dedicated rayon pool of `threads` workers.
fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

fn engine_with(
    n: usize,
    blocks: usize,
    seed: u64,
    method: ScoringMethod,
) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(method);
    cfg.blocks_per_round = blocks;
    let engine = PerigeeEngine::new(pop, lat, topo, method, cfg).unwrap();
    (engine, rng)
}

/// An 8-thread pool vs a one-thread pool: every per-round statistic is
/// the same IEEE-754 value, and the learned topologies match edge for
/// edge.
#[test]
fn parallel_rounds_are_bit_identical_to_sequential() {
    let (mut par, mut rng_par) = engine(150, 30, 42);
    let (mut seq, mut rng_seq) = engine(150, 30, 42);
    for _ in 0..4 {
        let a = in_pool(8, || par.run_round(&mut rng_par));
        let b = in_pool(1, || seq.run_round(&mut rng_seq));
        assert_eq!(a, b, "RoundStats must match bit for bit");
    }
    assert_eq!(par.topology(), seq.topology());
    assert_eq!(
        par.evaluate(0.9),
        seq.evaluate(0.9),
        "static evaluation must not depend on the thread count"
    );
}

/// The same holds for the propagation phase alone, against the default
/// pool.
#[test]
fn pinned_thread_pool_matches_default_pool() {
    let (engine_a, mut rng) = engine(120, 25, 7);
    let miners = MinerSampler::new(engine_a.population()).sample_round(25, &mut rng);
    let wide = engine_a.observe_round(&miners);
    let narrow = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| engine_a.observe_round(&miners));
    assert_eq!(wide.lambda90_ms(), narrow.lambda90_ms());
    assert_eq!(wide.lambda50_ms(), narrow.lambda50_ms());
    assert_eq!(wide.observations(), narrow.observations());
}

/// The engine's propagation phase — carried view, parallel fan-out,
/// `record_scratch`, production coverage — reproduces the reference
/// sequential pipeline — a fresh view, `record()` against the latency
/// model, `reference::coverage_times` — bit for bit.
#[test]
fn observe_round_matches_legacy_pipeline() {
    let (engine_a, mut rng) = engine(130, 20, 11);
    let miners = MinerSampler::new(engine_a.population()).sample_round(20, &mut rng);

    let round = engine_a.observe_round(&miners);

    let view = TopologyView::new(
        engine_a.topology(),
        engine_a.latency(),
        engine_a.population(),
    );
    let mut collector = ObservationCollector::from_view(&view);
    let mut scratch = BroadcastScratch::new();
    let mut legacy90 = Vec::new();
    let mut legacy50 = Vec::new();
    for &miner in &miners {
        view.broadcast_into(miner, &mut scratch);
        let coverage =
            reference::coverage_times(scratch.arrivals(), engine_a.population(), &[0.9, 0.5]);
        legacy90.push(coverage[0].as_ms());
        legacy50.push(coverage[1].as_ms());
        collector.record(&scratch, engine_a.latency());
    }
    let legacy_obs = collector.finish();

    assert_eq!(round.lambda90_ms(), legacy90.as_slice());
    assert_eq!(round.lambda50_ms(), legacy50.as_slice());
    assert_eq!(round.observations().as_dense().unwrap(), &legacy_obs);
}

/// Gossip-mode rounds go through the same chunked fan-out; they too must
/// not depend on the thread count.
#[test]
fn gossip_mode_is_thread_count_independent() {
    let (mut par, mut rng_par) = engine(80, 12, 23);
    let (mut seq, mut rng_seq) = engine(80, 12, 23);
    par.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.0)));
    seq.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.0)));
    for _ in 0..3 {
        let a = in_pool(8, || par.run_round(&mut rng_par));
        let b = in_pool(1, || seq.run_round(&mut rng_seq));
        assert_eq!(a, b);
    }
    assert_eq!(par.topology(), seq.topology());
}

/// The scratch-based Gossip arm of `observe_round` reproduces the legacy
/// sequential gossip pipeline — the seed's event-queue engine
/// `reference::gossip_block()`, `record_gossip()` over its BTreeMap
/// delivery logs, `reference::coverage_times` on its arrivals — bit for
/// bit, for both modes and with bandwidth-limited transfers.
#[test]
fn gossip_observe_round_matches_legacy_gossip_pipeline() {
    for cfg in [
        GossipConfig::flood(),
        GossipConfig::inv_getdata(0.0),
        GossipConfig::inv_getdata(1.0),
    ] {
        let (mut engine_a, mut rng) = engine(100, 15, 19);
        engine_a.set_propagation_mode(PropagationMode::Gossip(cfg));
        let miners = MinerSampler::new(engine_a.population()).sample_round(15, &mut rng);

        let round = engine_a.observe_round(&miners);

        let view = TopologyView::new(
            engine_a.topology(),
            engine_a.latency(),
            engine_a.population(),
        );
        let mut collector = ObservationCollector::from_view(&view);
        let mut legacy90 = Vec::new();
        let mut legacy50 = Vec::new();
        for &miner in &miners {
            let (arrivals, logs) = reference::gossip_block(
                engine_a.topology(),
                engine_a.latency(),
                engine_a.population(),
                miner,
                &cfg,
            );
            let coverage = reference::coverage_times(&arrivals, engine_a.population(), &[0.9, 0.5]);
            legacy90.push(coverage[0].as_ms());
            legacy50.push(coverage[1].as_ms());
            collector.record_gossip(&logs);
        }
        let legacy_obs = collector.finish();

        assert_eq!(round.lambda90_ms(), legacy90.as_slice());
        assert_eq!(round.lambda50_ms(), legacy50.as_slice());
        assert_eq!(round.observations().as_dense().unwrap(), &legacy_obs);
    }
}

/// Flood-mode gossip rounds are bit-identical to analytic rounds: the
/// pooled message-level engine computes the exact same arrival floats as
/// the analytic Dijkstra, both coverage paths share one implementation,
/// and the observation rows coincide — so whole learning trajectories
/// match RoundStats for RoundStats and edge for edge.
#[test]
fn flood_gossip_rounds_are_bit_identical_to_analytic_rounds() {
    let (mut analytic, mut rng_a) = engine(120, 20, 37);
    let (mut flood, mut rng_b) = engine(120, 20, 37);
    flood.set_propagation_mode(PropagationMode::Gossip(GossipConfig::flood()));
    for _ in 0..3 {
        let a = analytic.run_round(&mut rng_a);
        let b = flood.run_round(&mut rng_b);
        assert_eq!(a, b, "RoundStats must match bit for bit across engines");
    }
    assert_eq!(analytic.topology(), flood.topology());
}

/// Gossip-mode static evaluation is thread-count independent too.
#[test]
fn gossip_evaluation_is_thread_count_independent() {
    let (mut engine_a, _) = engine(90, 5, 41);
    engine_a.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.5)));
    let wide = engine_a.evaluate_in_mode(0.9);
    let narrow = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| engine_a.evaluate_in_mode(0.9));
    assert_eq!(wide, narrow);
}

/// Observation rows from the view path match the legacy collector on the
/// exact same flood, node by node and neighbor by neighbor.
#[test]
fn per_neighbor_rows_match_legacy_exactly() {
    let (engine_a, _) = engine(90, 5, 31);
    let miners: Vec<NodeId> = (0..5).map(|i| NodeId::new(i * 13)).collect();
    let round = engine_a.observe_round(&miners);
    for i in 0..90u32 {
        let v = NodeId::new(i);
        let obs = round.observations().node(v);
        let neighbors: Vec<NodeId> = obs.neighbors().collect();
        assert_eq!(neighbors, engine_a.topology().neighbors(v));
        assert_eq!(obs.block_count(), 5);
    }
}

/// Whole learning trajectories are queue-kind independent: an engine on
/// the calendar queue matches the `BinaryHeap` reference RoundStats for
/// RoundStats and edge for edge — in analytic and gossip modes, at any
/// thread count (wide pool × calendar vs 1-thread pool × heap crosses
/// both axes at once).
#[test]
fn calendar_queue_rounds_match_heap_rounds_across_thread_counts() {
    use perigee_netsim::QueueKind;
    for mode in [
        PropagationMode::Analytic,
        PropagationMode::Gossip(GossipConfig::inv_getdata(0.0)),
    ] {
        let (mut cal, mut rng_cal) = engine(90, 12, 53);
        let (mut heap, mut rng_heap) = engine(90, 12, 53);
        cal.set_queue_kind(QueueKind::Calendar);
        heap.set_queue_kind(QueueKind::BinaryHeap);
        assert_eq!(cal.queue_kind(), QueueKind::Calendar);
        assert_eq!(heap.queue_kind(), QueueKind::BinaryHeap);
        cal.set_propagation_mode(mode);
        heap.set_propagation_mode(mode);
        let narrow = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        for _ in 0..3 {
            let a = cal.run_round(&mut rng_cal);
            let b = narrow.install(|| heap.run_round(&mut rng_heap));
            assert_eq!(a, b, "queue kinds diverged under {mode:?}");
        }
        assert_eq!(cal.topology(), heap.topology());
        assert_eq!(
            cal.evaluate_in_mode(0.9),
            narrow.install(|| heap.evaluate_in_mode(0.9)),
            "static evaluation must not depend on queue kind or threads"
        );
    }
}

/// A *churny* 50-round run — arrivals, departures and growth driven by a
/// seeded `ChurnProcess` — is bit-identical across thread counts (1, 2
/// and 8 pinned rayon pools) and across both priority-queue kinds: same
/// RoundStats floats (including the streaming p90 estimate and the
/// join/depart counts), same learned topology, same grown population,
/// and every run patches its snapshot incrementally (exactly one view
/// build for the whole 50 rounds — the dynamics acceptance gate).
#[test]
fn churny_rounds_are_thread_and_queue_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::{ChurnProcess, QueueKind};

    let run = |threads: Option<usize>, kind: QueueKind| {
        let (mut e, mut rng) = engine(80, 8, 61);
        e.set_queue_kind(kind);
        e.set_churn(ChurnProcess::steady_state(80, 0.04, 99));
        let rounds = |e: &mut PerigeeEngine<GeoLatencyModel>,
                      rng: &mut StdRng|
         -> Vec<RoundStats> { (0..50).map(|_| e.run_round(rng)).collect() };
        let stats = match threads {
            None => rounds(&mut e, &mut rng),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(|| rounds(&mut e, &mut rng)),
        };
        assert_eq!(
            e.view_rebuilds(),
            1,
            "a churny run must never rebuild its view"
        );
        e.assert_view_consistency();
        (stats, e.topology().clone(), e.population().clone())
    };

    let (ref_stats, ref_topo, ref_pop) = run(None, QueueKind::Calendar);
    assert!(
        ref_stats.iter().any(|s| s.joined > 0) && ref_stats.iter().any(|s| s.departed > 0),
        "the process must actually churn for this test to mean anything"
    );
    for (threads, kind) in [
        (Some(1), QueueKind::Calendar),
        (Some(2), QueueKind::BinaryHeap),
        (Some(8), QueueKind::Calendar),
        (Some(1), QueueKind::BinaryHeap),
        (Some(8), QueueKind::BinaryHeap),
    ] {
        let (stats, topo, pop) = run(threads, kind);
        assert_eq!(
            stats, ref_stats,
            "RoundStats diverged at {threads:?} threads on {kind:?}"
        );
        assert_eq!(topo, ref_topo, "topology diverged at {threads:?}/{kind:?}");
        assert_eq!(pop, ref_pop, "population diverged at {threads:?}/{kind:?}");
    }
}

/// The fault layer keeps every determinism guarantee: a 50-round run
/// under an *active* `FaultPlan` — burst loss, flapping links, a timed
/// partition — with churn, stability gating and liveness eviction all
/// firing, is bit-identical across thread counts (1, 2 and 8 pinned
/// rayon pools) and across both priority-queue kinds. Fault decisions
/// are pure hashes of `(seed, round, global block, edge)` and the
/// degradation machinery consumes RNG in a fixed sequential order, so
/// nothing about the schedule can depend on the execution interleaving.
#[test]
fn fault_injected_rounds_are_thread_and_queue_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::{
        ChurnProcess, FaultPlan, FaultWindow, LinkFaultRates, LinkFlaps, PartitionWindow, QueueKind,
    };

    let plan = FaultPlan {
        seed: 0xFA17,
        base: LinkFaultRates {
            drop_prob: 0.03,
            extra_delay: SimTime::from_ms(2.0),
            jitter: SimTime::from_ms(10.0),
            duplicate_prob: 0.05,
        },
        windows: vec![FaultWindow {
            start: 8,
            end: 16,
            rates: LinkFaultRates {
                drop_prob: 0.6,
                extra_delay: SimTime::from_ms(20.0),
                jitter: SimTime::from_ms(40.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.1,
            period: 6,
            down: 2,
        }),
        partitions: vec![PartitionWindow {
            start: 22,
            heal: 34,
            fraction: 0.3,
        }],
        regional: Vec::new(),
    };

    let run = |threads: Option<usize>, kind: QueueKind| {
        // Hand-built engine: liveness on, so suspect→evict and backoff
        // state also prove themselves execution-order independent.
        let mut rng = StdRng::seed_from_u64(67);
        let pop = PopulationBuilder::new(80).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 67);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
        cfg.blocks_per_round = 8;
        cfg.liveness = perigee_core::LivenessConfig::aggressive();
        let mut e = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
        e.set_queue_kind(kind);
        e.set_churn(ChurnProcess::steady_state(80, 0.03, 107));
        e.set_fault_plan(plan.clone()).unwrap();
        let stats = {
            let rounds =
                |e: &mut PerigeeEngine<GeoLatencyModel>, rng: &mut StdRng| -> Vec<RoundStats> {
                    (0..50).map(|_| e.run_round(rng)).collect()
                };
            match threads {
                None => rounds(&mut e, &mut rng),
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
                    .install(|| rounds(&mut e, &mut rng)),
            }
        };
        assert_eq!(e.view_rebuilds(), 1, "faulted rounds must still patch");
        e.assert_view_consistency();
        (stats, e.topology().clone(), e.population().clone())
    };

    let (ref_stats, ref_topo, ref_pop) = run(None, QueueKind::Calendar);
    assert!(
        ref_stats.iter().any(|s| s.gated > 0),
        "the burst window must trip stability gating for this test to bite"
    );
    assert!(
        ref_stats.iter().any(|s| s.joined > 0) && ref_stats.iter().any(|s| s.departed > 0),
        "churn must fire under faults too"
    );
    for (threads, kind) in [
        (Some(1), QueueKind::Calendar),
        (Some(2), QueueKind::BinaryHeap),
        (Some(8), QueueKind::Calendar),
        (Some(1), QueueKind::BinaryHeap),
        (Some(8), QueueKind::BinaryHeap),
    ] {
        let (stats, topo, pop) = run(threads, kind);
        assert_eq!(
            stats, ref_stats,
            "faulted RoundStats diverged at {threads:?} threads on {kind:?}"
        );
        assert_eq!(topo, ref_topo, "topology diverged at {threads:?}/{kind:?}");
        assert_eq!(pop, ref_pop, "population diverged at {threads:?}/{kind:?}");
    }
}

/// Fault-injected *gossip* rounds (message-level INV/GETDATA) are
/// likewise queue-kind and thread-count independent.
#[test]
fn fault_injected_gossip_rounds_are_queue_kind_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::{FaultPlan, LinkFaultRates, QueueKind};

    let plan = FaultPlan {
        base: LinkFaultRates {
            drop_prob: 0.15,
            extra_delay: SimTime::from_ms(5.0),
            jitter: SimTime::from_ms(25.0),
            duplicate_prob: 0.2,
        },
        ..FaultPlan::inert(0xBEEF)
    };
    let run = |threads: Option<usize>, kind: QueueKind| {
        let (mut e, mut rng) = engine(70, 10, 71);
        e.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.0)));
        e.set_queue_kind(kind);
        e.set_fault_plan(plan.clone()).unwrap();
        let rounds: Vec<RoundStats> = match threads {
            None => (0..12).map(|_| e.run_round(&mut rng)).collect(),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(|| (0..12).map(|_| e.run_round(&mut rng)).collect()),
        };
        (rounds, e.topology().clone())
    };
    let (ref_stats, ref_topo) = run(None, QueueKind::Calendar);
    for (threads, kind) in [
        (Some(1), QueueKind::BinaryHeap),
        (Some(8), QueueKind::BinaryHeap),
        (Some(1), QueueKind::Calendar),
    ] {
        let (stats, topo) = run(threads, kind);
        assert_eq!(stats, ref_stats, "diverged at {threads:?}/{kind:?}");
        assert_eq!(topo, ref_topo);
    }
}

/// A full UCB run — the method that writes its per-node histories, each
/// worker mutating only its own chunk of them — is bit-identical on an
/// 8-thread pool and a one-thread pool: same RoundStats floats, same
/// per-connection history evolution (observable through the learned
/// topology), round after round.
#[test]
fn ucb_parallel_rounds_are_bit_identical_to_sequential() {
    let (mut par, mut rng_par) = engine_with(150, 2, 91, ScoringMethod::Ucb);
    let (mut seq, mut rng_seq) = engine_with(150, 2, 91, ScoringMethod::Ucb);
    for _ in 0..8 {
        let a = in_pool(8, || par.run_round(&mut rng_par));
        let b = in_pool(1, || seq.run_round(&mut rng_seq));
        assert_eq!(a, b, "UCB RoundStats must match bit for bit");
    }
    assert_eq!(par.topology(), seq.topology());
    assert_eq!(par.evaluate(0.9), seq.evaluate(0.9));
}

/// Sketch-backed rounds keep the determinism guarantee: with the
/// observation store folded into per-edge P² sketches, whole learning
/// trajectories are bit-identical across thread counts and queue kinds
/// (the sketch fold consumes blocks in block order regardless of how
/// chunks were scheduled).
#[test]
fn sketch_backend_rounds_are_thread_and_queue_independent() {
    use perigee_core::{ObservationBackend, RoundStats};
    use perigee_netsim::QueueKind;

    for method in [ScoringMethod::Vanilla, ScoringMethod::Subset] {
        let run = |threads: Option<usize>, kind: QueueKind| {
            let mut rng = StdRng::seed_from_u64(83);
            let pop = PopulationBuilder::new(90).build(&mut rng).unwrap();
            let lat = GeoLatencyModel::new(&pop, 83);
            let topo =
                RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
            let mut cfg = PerigeeConfig::paper_default(method);
            cfg.blocks_per_round = 12;
            cfg.observation_backend = ObservationBackend::Sketch;
            let mut e = PerigeeEngine::new(pop, lat, topo, method, cfg).unwrap();
            e.set_queue_kind(kind);
            let rounds =
                |e: &mut PerigeeEngine<GeoLatencyModel>, rng: &mut StdRng| -> Vec<RoundStats> {
                    (0..5).map(|_| e.run_round(rng)).collect()
                };
            let stats = match threads {
                None => rounds(&mut e, &mut rng),
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
                    .install(|| rounds(&mut e, &mut rng)),
            };
            (stats, e.topology().clone())
        };
        let (ref_stats, ref_topo) = run(None, QueueKind::Calendar);
        for (threads, kind) in [
            (Some(1), QueueKind::Calendar),
            (Some(2), QueueKind::BinaryHeap),
            (Some(8), QueueKind::Calendar),
            (Some(8), QueueKind::BinaryHeap),
        ] {
            let (stats, topo) = run(threads, kind);
            assert_eq!(
                stats, ref_stats,
                "sketch-backed {method:?} diverged at {threads:?}/{kind:?}"
            );
            assert_eq!(topo, ref_topo);
        }
    }
}

/// The same UCB run is also independent of the rayon pool width.
#[test]
fn ucb_rounds_are_thread_count_independent() {
    let (mut wide, mut rng_a) = engine_with(100, 1, 97, ScoringMethod::Ucb);
    let (mut narrow, mut rng_b) = engine_with(100, 1, 97, ScoringMethod::Ucb);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for _ in 0..6 {
        let a = wide.run_round(&mut rng_a);
        let b = pool.install(|| narrow.run_round(&mut rng_b));
        assert_eq!(a, b);
    }
    assert_eq!(wide.topology(), narrow.topology());
}
