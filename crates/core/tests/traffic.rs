//! Combined block + transaction-stream rounds: the traffic phase must
//! change *nothing* about the determinism contract. Batched observation
//! rows are bit-identical to one `gossip_into` call per message, rounds
//! with a workload installed are bit-identical across thread counts, the
//! per-class λ-statistics are backend-independent, and a traffic workload
//! rides checkpoints through the on-disk envelope.

use perigee_core::{
    ObservationBackend, ObservationCollector, PerigeeConfig, PerigeeEngine, RunSnapshot,
    ScoringMethod,
};
use perigee_netsim::{
    ConnectionLimits, GeoLatencyModel, GossipConfig, GossipScratch, PopulationBuilder,
    TopologyView, TrafficConfig,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine_with(
    n: usize,
    blocks: usize,
    seed: u64,
    backend: ObservationBackend,
) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = blocks;
    cfg.observation_backend = backend;
    let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    engine
        .set_traffic(TrafficConfig::paper_stream(seed ^ 0x7AFF))
        .unwrap();
    (engine, rng)
}

/// The satellite contract at the observation layer: a k-message batch
/// pass records observation rows **bit-identical** to k single-message
/// passes through the same collector pipeline.
#[test]
fn batched_observation_rows_match_sequential_single_passes() {
    let mut rng = StdRng::seed_from_u64(3);
    let pop = PopulationBuilder::new(50).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 3);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let view = TopologyView::new(&topo, &lat, &pop);

    let traffic = TrafficConfig::paper_stream(5);
    let messages = traffic.messages_for_round(1, &pop);
    assert!(messages.len() > 200, "stream should be dense");
    let mut batch = Vec::new();
    traffic.batch_for(&messages, &mut batch);
    batch.truncate(150);

    let mut batched = ObservationCollector::from_view(&view);
    let mut scratch = GossipScratch::new();
    view.gossip_batch_into(&batch, &mut scratch, |_, s| {
        batched.record_scratch(&view, s);
    });

    let mut sequential = ObservationCollector::from_view(&view);
    let mut single = GossipScratch::new();
    for m in &batch {
        view.gossip_into(m.source, &m.config, &mut single);
        sequential.record_scratch(&view, &single);
    }

    assert_eq!(
        batched.finish(),
        sequential.finish(),
        "batched rows must equal sequential rows"
    );
}

/// Combined rounds are bit-identical across pinned 1/2/3/8-thread rayon
/// pools, on both observation backends — the same
/// guarantee the blocks-only engine gives, now under ~10× more messages
/// per round. A sketch-mode fan-out runs in waves of one 8-item chunk
/// per pool thread and folds each wave over one edge range per thread:
/// 11 blocks end in a short chunk, and the rounds' message counts
/// (checked below) leave a partial last wave on every multi-thread pool.
#[test]
fn combined_rounds_are_thread_independent() {
    const ROUNDS: usize = 3;
    const BLOCKS: usize = 11;
    let run = |backend, threads| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let (mut engine, mut rng) = engine_with(59, BLOCKS, 17, backend);
            let stats = engine.run_rounds(ROUNDS, &mut rng);
            let traffic = engine.last_traffic_stats().unwrap().clone();
            (
                stats,
                traffic,
                engine.evaluate(0.9),
                engine.topology().clone(),
            )
        })
    };

    // The engine caps sketch-mode chunks at 8 items.
    let (engine, _) = engine_with(59, BLOCKS, 17, ObservationBackend::Sketch);
    let chunks: Vec<usize> = (0..ROUNDS as u64)
        .map(|r| {
            let messages = engine
                .traffic()
                .unwrap()
                .messages_for_round(r, engine.population());
            messages.len().div_ceil(8)
        })
        .collect();
    for width in [2, 3, 8] {
        assert!(
            chunks.iter().any(|c| c % width != 0),
            "no round leaves a partial last wave on {width} threads: {chunks:?}"
        );
    }

    for backend in [ObservationBackend::Dense, ObservationBackend::Sketch] {
        let reference = run(backend, 1);
        for threads in [1, 2, 3, 8] {
            let variant = run(backend, threads);
            let case = format!("{backend:?}, {threads} threads");
            assert_eq!(reference.0, variant.0, "RoundStats differ ({case})");
            assert_eq!(reference.1, variant.1, "traffic stats differ ({case})");
            assert_eq!(reference.2, variant.2, "evaluation differs ({case})");
            assert_eq!(reference.3, variant.3, "topology differs ({case})");
        }
    }
}

/// The per-class λ-statistics come from the propagation phase, not the
/// observation store, so dense and sketch backends must report the
/// identical floats — while the sketch keeps the round's memory flat.
#[test]
fn traffic_stats_are_backend_independent_and_cover_every_class() {
    // One round only: the backends share the initial world, so the
    // traffic phase sees the same snapshot. (From round two on the
    // *scoring* legitimately diverges — sketch strategies read
    // percentile estimates — so the topologies, and with them the λ
    // values, part ways.)
    let (mut dense, mut rng_d) = engine_with(60, 6, 29, ObservationBackend::Dense);
    let (mut sketch, mut rng_s) = engine_with(60, 6, 29, ObservationBackend::Sketch);
    dense.run_round(&mut rng_d);
    sketch.run_round(&mut rng_s);
    let d = dense.last_traffic_stats().unwrap();
    let s = sketch.last_traffic_stats().unwrap();
    assert_eq!(d, s, "per-class λ must not depend on the backend");

    let config = dense.traffic().unwrap();
    assert_eq!(d.per_class.len(), config.classes.len());
    let mut total = 0;
    for (stats, class) in d.per_class.iter().zip(&config.classes) {
        assert_eq!(stats.name, class.name);
        assert!(
            stats.messages > 0,
            "class {} originated nothing",
            stats.name
        );
        assert!(stats.mean_lambda90_ms.is_finite());
        assert!(stats.mean_lambda50_ms <= stats.mean_lambda90_ms);
        total += stats.messages;
    }
    assert_eq!(total, d.messages);
}

/// Traffic composes with the message-level block path: a gossip-mode
/// engine with a workload installed still runs bit-identically across
/// pool widths.
#[test]
fn gossip_block_mode_composes_with_traffic() {
    let (mut par, mut rng_par) = engine_with(50, 5, 41, ObservationBackend::Dense);
    let (mut seq, mut rng_seq) = engine_with(50, 5, 41, ObservationBackend::Dense);
    for engine in [&mut par, &mut seq] {
        engine
            .set_propagation(GossipConfig::inv_getdata(0.001))
            .unwrap();
    }
    let pool = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    };
    let (wide, narrow) = (pool(8), pool(1));
    for _ in 0..2 {
        let a = wide.install(|| par.run_round(&mut rng_par));
        let b = narrow.install(|| seq.run_round(&mut rng_seq));
        assert_eq!(a, b);
    }
    assert_eq!(par.last_traffic_stats(), seq.last_traffic_stats());
    assert_eq!(par.topology(), seq.topology());
}

/// A workload rides checkpoints: checkpoint mid-run, serialize through
/// the on-disk envelope, resume, continue — bit-identical to the
/// uninterrupted run, traffic statistics included, and the restored
/// engine still carries the workload.
#[test]
fn traffic_rides_checkpoints_bit_identically() {
    const TOTAL: usize = 6;
    const K: usize = 3;

    let (mut straight, mut rng) = engine_with(55, 6, 53, ObservationBackend::Dense);
    let straight_stats = straight.run_rounds(TOTAL, &mut rng);
    let straight_traffic = straight.last_traffic_stats().unwrap().clone();

    let (mut first, mut rng1) = engine_with(55, 6, 53, ObservationBackend::Dense);
    let mut resumed_stats = first.run_rounds(K, &mut rng1);
    let bytes = first.checkpoint(&rng1).to_bytes();
    let snapshot = RunSnapshot::from_bytes(&bytes).unwrap();
    let (mut second, mut rng2) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).expect("resume");
    assert_eq!(
        second.traffic(),
        first.traffic(),
        "the workload must survive the envelope"
    );
    resumed_stats.extend(second.run_rounds(TOTAL - K, &mut rng2));

    assert_eq!(straight_stats, resumed_stats);
    assert_eq!(&straight_traffic, second.last_traffic_stats().unwrap());
    assert_eq!(straight.topology(), second.topology());
    assert_eq!(straight.evaluate(0.9), second.evaluate(0.9));
}

/// `set_traffic` validates up front and refuses to clobber a working
/// workload with a broken one; `take_traffic` returns rounds to
/// blocks-only.
#[test]
fn set_traffic_validates_and_take_traffic_uninstalls() {
    let (mut engine, mut rng) = engine_with(40, 4, 61, ObservationBackend::Dense);
    let mut bad = TrafficConfig::paper_stream(0);
    bad.classes[0].lambda_per_node = f64::NAN;
    assert!(engine.set_traffic(bad).is_err());
    assert!(
        engine.traffic().is_some(),
        "a rejected config must leave the old workload installed"
    );

    engine.run_round(&mut rng);
    let stats = engine.last_traffic_stats().unwrap().clone();
    assert!(stats.messages > 0);

    assert!(engine.take_traffic().is_some());
    engine.run_round(&mut rng);
    assert_eq!(
        engine.last_traffic_stats(),
        Some(&stats),
        "blocks-only rounds keep the last traffic round's stats readable"
    );
}
