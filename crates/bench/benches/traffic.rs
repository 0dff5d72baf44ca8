//! Continuous-traffic benchmarks: multi-message batching through one
//! [`GossipScratch`] vs one `gossip_into` call per message, and the
//! combined block + transaction-stream round the engine runs when a
//! [`TrafficConfig`] is installed.
//!
//! Three sections:
//!
//! * `traffic-batching/*` — the tentpole's per-message cost claim at the
//!   paper's 1000-node scale, measured twice. `*_inv_*` is end-to-end:
//!   the round's tx-class (INV/GETDATA) messages through
//!   [`TopologyView::gossip_batch_into`] vs one `gossip_into` call each —
//!   full-network propagation dominates there, so the two run close.
//!   `*_overhead_*` isolates exactly what batching amortizes — the
//!   per-message arrival-vector and bit-flag resets — by pushing
//!   messages from a withholding source (zero propagation): a batch
//!   pass's per-message fixed cost is one epoch bump instead of an O(n)
//!   refill, and the margin there is the tentpole's number.
//! * `traffic_smoke/*` — the CI gate at 300 nodes: a batch pass's
//!   per-message coverage times are bit-identical to sequential
//!   single-message passes on both queue kinds, a combined round under
//!   the paper stream reports every class with finite λ, and a 2-round
//!   combined trajectory is bit-identical across pool widths.
//! * `traffic-report` — hand-timed (local only): one sketch-backed
//!   1000-node engine under [`TrafficConfig::paper_stream`] — ≥ 10k
//!   messages per combined round — plus the batching margin and the
//!   blocks-only vs combined learning ablation, written to
//!   `BENCH_traffic.json` at the workspace root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{ObservationBackend, PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee_experiments::{traffic as traffic_exp, Scenario};
use perigee_netsim::{
    BatchMessage, Behavior, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipScratch, NodeId,
    Population, PopulationBuilder, QueueKind, SimTime, Topology, TopologyView, TrafficConfig,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};

use perigee_bench::{bench_json, median, section_enabled, MemoryFootprint};

const NODES: usize = 1000;
const SMOKE_NODES: usize = 300;

fn world(nodes: usize, seed: u64) -> (Population, GeoLatencyModel, Topology) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(nodes).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    (pop, lat, topo)
}

fn engine_with_traffic(
    nodes: usize,
    blocks: usize,
    seed: u64,
    backend: ObservationBackend,
) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(nodes).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut config = PerigeeConfig::paper_default(ScoringMethod::Subset);
    config.blocks_per_round = blocks;
    config.observation_backend = backend;
    let mut engine =
        PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, config).expect("valid config");
    engine
        .set_traffic(TrafficConfig::paper_stream(seed ^ 0x7AFF))
        .expect("valid workload");
    (engine, rng)
}

/// The round's tx-class (INV/GETDATA) messages as a batch — the class
/// whose volume dominates the paper stream, so the class where the
/// per-message reset cost matters most.
fn tx_batch(
    traffic: &TrafficConfig,
    round: u64,
    pop: &Population,
    cap: usize,
) -> Vec<BatchMessage> {
    let messages = traffic.messages_for_round(round, pop);
    let tx: Vec<_> = messages.iter().filter(|m| m.class == 0).cloned().collect();
    let mut batch = Vec::new();
    traffic.batch_for(&tx, &mut batch);
    batch.truncate(cap);
    batch
}

/// A world whose node 0 withholds everything it originates: a message
/// from it costs exactly the per-message scratch machinery and nothing
/// else, which isolates the cost batching amortizes.
fn overhead_world(nodes: usize, seed: u64) -> (Population, GeoLatencyModel, Topology) {
    let (mut pop, lat, topo) = world(nodes, seed);
    pop.profile_mut(NodeId::new(0)).behavior = Behavior::Silent;
    (pop, lat, topo)
}

/// `count` zero-propagation INV messages from the withholding source.
fn overhead_batch(count: usize) -> Vec<BatchMessage> {
    vec![
        BatchMessage {
            source: NodeId::new(0),
            config: GossipConfig::inv_getdata(0.0),
        };
        count
    ]
}

fn bench_traffic_batching(c: &mut Criterion) {
    if !section_enabled("traffic-batching") {
        return;
    }
    let (pop, lat, topo) = world(NODES, 11);
    let view = TopologyView::new(&topo, &lat, &pop);
    let traffic = TrafficConfig::paper_stream(11);
    let batch = tx_batch(&traffic, 1, &pop, 100);
    assert_eq!(
        batch.len(),
        100,
        "1000 nodes originate far more than 100 tx"
    );

    let mut group = c.benchmark_group("traffic-batching");
    group.sample_size(10);
    group.bench_function("batched_inv_1000x100", |b| {
        let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
        b.iter(|| {
            let mut reached = 0usize;
            view.gossip_batch_into(&batch, &mut scratch, |_, s| {
                reached += usize::from(s.batch_arrival(batch[0].source).is_finite());
            });
            criterion::black_box(reached)
        });
    });
    group.bench_function("unbatched_inv_1000x100", |b| {
        let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
        b.iter(|| {
            let mut reached = 0usize;
            for m in &batch {
                view.gossip_into(m.source, &m.config, &mut scratch);
                reached += usize::from(scratch.arrival(batch[0].source).is_finite());
            }
            criterion::black_box(reached)
        });
    });

    let (opop, olat, otopo) = overhead_world(NODES, 11);
    let oview = TopologyView::new(&otopo, &olat, &opop);
    let obatch = overhead_batch(1000);
    group.bench_function("batched_overhead_1000x1000", |b| {
        let mut scratch = GossipScratch::with_capacity(oview.len(), oview.directed_edge_count());
        b.iter(|| {
            oview.gossip_batch_into(&obatch, &mut scratch, |_, s| {
                criterion::black_box(s.batch_arrival(NodeId::new(0)));
            });
        });
    });
    group.bench_function("unbatched_overhead_1000x1000", |b| {
        let mut scratch = GossipScratch::with_capacity(oview.len(), oview.directed_edge_count());
        b.iter(|| {
            for m in &obatch {
                oview.gossip_into(m.source, &m.config, &mut scratch);
                criterion::black_box(scratch.arrival(NodeId::new(0)));
            }
        });
    });
    group.finish();
}

fn bench_traffic_smoke(c: &mut Criterion) {
    if !section_enabled("traffic_smoke") {
        return;
    }

    // Contract 1: a batch pass's per-message λ50/λ90 are bit-identical
    // to sequential single-message passes, on both queue kinds.
    let (pop, lat, topo) = world(SMOKE_NODES, 7);
    let view = TopologyView::new(&topo, &lat, &pop);
    let traffic = TrafficConfig::paper_stream(7);
    let batch = tx_batch(&traffic, 1, &pop, 100);
    let fractions = [0.5, 0.9];
    for kind in [QueueKind::Calendar, QueueKind::BinaryHeap] {
        let mut batched = Vec::new();
        let mut scratch =
            GossipScratch::with_capacity_and_queue(view.len(), view.directed_edge_count(), kind);
        view.gossip_batch_into(&batch, &mut scratch, |_, s| {
            let mut cov = [SimTime::ZERO; 2];
            s.batch_coverage_times_into(&view, &fractions, &mut cov);
            batched.push(cov);
        });
        let mut sequential = Vec::new();
        let mut single =
            GossipScratch::with_capacity_and_queue(view.len(), view.directed_edge_count(), kind);
        for m in &batch {
            view.gossip_into(m.source, &m.config, &mut single);
            let mut cov = [SimTime::ZERO; 2];
            single.coverage_times_into(&view, &fractions, &mut cov);
            sequential.push(cov);
        }
        assert_eq!(
            batched, sequential,
            "batch pass diverged from single-message passes ({kind:?})"
        );
    }

    // Contract 2: a combined 2-round trajectory is bit-identical across
    // pool widths (8 and 3 threads vs the sequential one-thread pool), and
    // every class reports finite λ. The 3-thread pool splits the sketch
    // fold into uneven edge ranges and runs a partial last wave whenever
    // a round's chunk count is not a multiple of 3.
    let (mut par, mut rng_par) =
        engine_with_traffic(SMOKE_NODES, 10, 7, ObservationBackend::Sketch);
    let (mut mid, mut rng_mid) =
        engine_with_traffic(SMOKE_NODES, 10, 7, ObservationBackend::Sketch);
    let (mut seq, mut rng_seq) =
        engine_with_traffic(SMOKE_NODES, 10, 7, ObservationBackend::Sketch);
    let pool = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    };
    let (wide, three, narrow) = (pool(8), pool(3), pool(1));
    for _ in 0..2 {
        let a = wide.install(|| par.run_round(&mut rng_par));
        let b = three.install(|| mid.run_round(&mut rng_mid));
        let c = narrow.install(|| seq.run_round(&mut rng_seq));
        assert_eq!(a, c, "combined rounds diverged across pool widths (8 vs 1)");
        assert_eq!(b, c, "combined rounds diverged across pool widths (3 vs 1)");
    }
    assert_eq!(par.last_traffic_stats(), seq.last_traffic_stats());
    assert_eq!(mid.last_traffic_stats(), seq.last_traffic_stats());
    assert_eq!(mid.topology(), seq.topology());
    let stats = par
        .last_traffic_stats()
        .expect("workload installed")
        .clone();
    let expected = par.traffic().unwrap().expected_messages(SMOKE_NODES);
    assert!(
        (stats.messages as f64) > expected * 0.8,
        "round carried {} messages, expected ≈{expected:.0}",
        stats.messages
    );
    for class in &stats.per_class {
        assert!(
            class.messages > 0,
            "class {} originated nothing",
            class.name
        );
        assert!(class.mean_lambda90_ms.is_finite());
    }

    // Timing: combined rounds at smoke scale (rounds advance across
    // iterations; fine for a smoke-level number).
    let mut group = c.benchmark_group("traffic_smoke");
    group.sample_size(10);
    group.bench_function("combined_round_300", |b| {
        b.iter(|| par.run_round(&mut rng_par));
    });
    group.finish();
}

fn bench_traffic_report(c: &mut Criterion) {
    let _ = c;
    if !section_enabled("traffic-report") {
        return;
    }

    // Headline: one sketch-backed 1000-node engine under the paper
    // stream. Hand-time three combined rounds and take the median; the
    // world drifts a little between rounds, which is exactly the regime
    // the number describes.
    let (mut engine, mut rng) = engine_with_traffic(NODES, 100, 1, ObservationBackend::Sketch);
    let mut round_s = [0.0f64; 3];
    let mut messages = usize::MAX;
    for slot in &mut round_s {
        let start = Instant::now();
        criterion::black_box(engine.run_round(&mut rng));
        *slot = start.elapsed().as_secs_f64();
        messages = messages.min(engine.last_traffic_stats().unwrap().messages);
    }
    let combined_round_s = median(&mut round_s);
    assert!(
        messages >= 10_000,
        "paper stream must carry >= 10k messages/round at 1000 nodes, got {messages}"
    );
    let stats = engine.last_traffic_stats().unwrap().clone();
    let class_fields: Vec<String> = stats
        .per_class
        .iter()
        .map(|cl| {
            format!(
                "{{ \"name\": \"{}\", \"messages\": {}, \"mean_lambda90_ms\": {:.1} }}",
                cl.name, cl.messages, cl.mean_lambda90_ms
            )
        })
        .collect();

    // Batching, end to end: the round's tx-class messages batched vs one
    // gossip_into per message (median of 3 passes each). Full-network
    // INV propagation dominates this number, so expect rough parity —
    // it is reported to show batching costs nothing at stream scale.
    let (pop, lat, topo) = world(NODES, 1);
    let view = TopologyView::new(&topo, &lat, &pop);
    let traffic = TrafficConfig::paper_stream(1 ^ 0x7AFF);
    let batch = tx_batch(&traffic, 1, &pop, 1500);
    let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
    let mut batched_s = [0.0f64; 3];
    for slot in &mut batched_s {
        let start = Instant::now();
        view.gossip_batch_into(&batch, &mut scratch, |_, s| {
            criterion::black_box(s.batch_reached());
        });
        *slot = start.elapsed().as_secs_f64();
    }
    let mut unbatched_s = [0.0f64; 3];
    for slot in &mut unbatched_s {
        let start = Instant::now();
        for m in &batch {
            view.gossip_into(m.source, &m.config, &mut scratch);
            criterion::black_box(scratch.reached());
        }
        *slot = start.elapsed().as_secs_f64();
    }
    let (batched, unbatched) = (median(&mut batched_s), median(&mut unbatched_s));

    // Batching, per-message overhead: messages from a withholding source
    // propagate to nobody, so each one costs exactly the fixed
    // per-message scratch work — the O(n) arrival-vector and bit-flag
    // refill that `gossip_into` pays and a batch pass replaces with one
    // epoch bump. This margin is the cost batching amortizes away.
    let (opop, olat, otopo) = overhead_world(NODES, 1);
    let oview = TopologyView::new(&otopo, &olat, &opop);
    let obatch = overhead_batch(10_000);
    let mut oscratch = GossipScratch::with_capacity(oview.len(), oview.directed_edge_count());
    let mut overhead_batched_s = [0.0f64; 3];
    for slot in &mut overhead_batched_s {
        let start = Instant::now();
        oview.gossip_batch_into(&obatch, &mut oscratch, |_, s| {
            criterion::black_box(s.batch_arrival(NodeId::new(0)));
        });
        *slot = start.elapsed().as_secs_f64();
    }
    let mut overhead_unbatched_s = [0.0f64; 3];
    for slot in &mut overhead_unbatched_s {
        let start = Instant::now();
        for m in &obatch {
            oview.gossip_into(m.source, &m.config, &mut oscratch);
            criterion::black_box(oscratch.arrival(NodeId::new(0)));
        }
        *slot = start.elapsed().as_secs_f64();
    }
    let overhead_batched = median(&mut overhead_batched_s);
    let overhead_unbatched = median(&mut overhead_unbatched_s);
    println!(
        "traffic-report: combined round {combined_round_s:.3} s ({messages} messages); \
         tx end-to-end batched {batched:.3} s vs unbatched {unbatched:.3} s ({} tx); \
         per-message overhead batched {:.0} ns vs unbatched {:.0} ns -> {:.1}x \
         ({NODES} nodes, 1 thread)",
        batch.len(),
        overhead_batched * 1e9 / obatch.len() as f64,
        overhead_unbatched * 1e9 / obatch.len() as f64,
        overhead_unbatched / overhead_batched,
    );
    assert!(
        overhead_batched < overhead_unbatched,
        "a batch pass's per-message fixed cost must beat the per-message reset: \
         {overhead_batched:.4} s vs {overhead_unbatched:.4} s over {} messages",
        obatch.len()
    );

    // Learning ablation at reduced scale: blocks-only vs combined from
    // the same seed — λ90 must still improve under combined load.
    let scenario = Scenario {
        nodes: 300,
        rounds: 10,
        blocks_per_round: 25,
        seeds: vec![1],
        ..Scenario::paper()
    };
    let ablation = traffic_exp::run_ablation(&scenario, 1);
    assert!(
        ablation.combined.improvement() > 0.0,
        "lambda90 must improve under combined load"
    );

    let fields = format!(
        "  \"nodes\": {NODES},\n  \"threads\": 1,\n  \
         \"combined_round\": {{ \"seconds\": {combined_round_s:.3}, \"messages\": {messages}, \
         \"classes\": [{}] }},\n  \
         \"tx_end_to_end\": {{ \"messages\": {}, \"batched_s\": {batched:.4}, \
         \"unbatched_s\": {unbatched:.4}, \"speedup\": {:.2} }},\n  \
         \"per_message_overhead\": {{ \"messages\": {}, \"batched_ns\": {:.0}, \
         \"unbatched_ns\": {:.0}, \"speedup\": {:.1} }},\n  \
         \"ablation\": {{ \"nodes\": {}, \"rounds\": {}, \"traffic_messages\": {}, \
         \"blocks_only\": {{ \"start_median90_ms\": {:.1}, \"final_median90_ms\": {:.1} }}, \
         \"combined\": {{ \"start_median90_ms\": {:.1}, \"final_median90_ms\": {:.1} }} }}\n",
        class_fields.join(", "),
        batch.len(),
        unbatched / batched,
        obatch.len(),
        overhead_batched * 1e9 / obatch.len() as f64,
        overhead_unbatched * 1e9 / obatch.len() as f64,
        overhead_unbatched / overhead_batched,
        scenario.nodes,
        scenario.rounds,
        ablation.combined.total_messages,
        ablation.blocks_only.start_median90_ms,
        ablation.blocks_only.final_median90_ms,
        ablation.combined.start_median90_ms,
        ablation.combined.final_median90_ms,
    );
    // Dominant structure of a sketch-backed combined round: the 48-byte
    // per-directed-edge P² sketches — independent of messages per round.
    let mem =
        MemoryFootprint::per_edge(view.directed_edge_count() * 48, view.directed_edge_count());
    let json = bench_json(
        "traffic-engine",
        &format!("nodes={NODES},stream=paper,backend=sketch,threads=1"),
        mem,
        &fields,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_traffic.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

criterion_group!(
    benches,
    bench_traffic_batching,
    bench_traffic_smoke,
    bench_traffic_report
);
criterion_main!(benches);
