//! The 10k-node scale benchmarks — the workload the flat observation
//! store, split-borrow parallel UCB and incremental CSR patching were
//! built for.
//!
//! Two criterion groups:
//!
//! * `scale/*` — 10 000 nodes: one analytic flood, one INV/GETDATA
//!   message-level block, and a full 100-block analytic observation round
//!   through [`PerigeeEngine::observe_round`] (rayon fan-out, flat `f32`
//!   store). The former per-node `f64` row layout held
//!   `2 × blocks × directed-edges × 8 B` per round at this scale; the
//!   flat store holds half that and appends chunks by `memcpy`.
//! * `scale_smoke/*` — the same shapes at 1 000 nodes and 10 blocks,
//!   cheap enough for CI to run on every push so the scale path cannot
//!   rot.
//!
//! After the groups (when run unfiltered or with a `scale-report`
//! filter), the bench hand-times the 10k round and the 1k single-thread
//! gossip round (the `BENCH_gossip.json` trajectory quantity) and writes
//! the results to `BENCH_scale.json` at the workspace root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_bench::{bench_json, median, section_enabled, MemoryFootprint};
use perigee_core::{ObservationBackend, PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee_netsim::{
    BroadcastScratch, ChurnProcess, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipScratch,
    MinerSampler, NodeId, Population, PopulationBuilder, Topology, TopologyView,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};

const SCALE_NODES: usize = 10_000;
const SCALE_BLOCKS: usize = 100;
const SMOKE_NODES: usize = 1_000;
const SMOKE_BLOCKS: usize = 10;
const HUGE_NODES: usize = 100_000;
const HUGE_BLOCKS: usize = 100;

fn world(n: usize, seed: u64) -> (Population, GeoLatencyModel, Topology) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    (pop, lat, topo)
}

fn engine_for(
    pop: &Population,
    lat: &GeoLatencyModel,
    topo: &Topology,
    blocks: usize,
) -> PerigeeEngine<GeoLatencyModel> {
    engine_with_backend(pop, lat, topo, blocks, ObservationBackend::Dense)
}

fn engine_with_backend(
    pop: &Population,
    lat: &GeoLatencyModel,
    topo: &Topology,
    blocks: usize,
    backend: ObservationBackend,
) -> PerigeeEngine<GeoLatencyModel> {
    let mut config = PerigeeConfig::paper_default(ScoringMethod::Subset);
    config.blocks_per_round = blocks;
    config.observation_backend = backend;
    PerigeeEngine::new(
        pop.clone(),
        lat.clone(),
        topo.clone(),
        ScoringMethod::Subset,
        config,
    )
    .expect("bench configuration is valid")
}

fn bench_scale(c: &mut Criterion) {
    if !section_enabled("scale/") && !section_enabled("scale-report") {
        return;
    }
    let (pop, lat, topo) = world(SCALE_NODES, 1);
    let view = TopologyView::new(&topo, &lat, &pop);
    let engine = engine_for(&pop, &lat, &topo, SCALE_BLOCKS);
    let mut rng = StdRng::seed_from_u64(2);
    let miners = MinerSampler::new(&pop).sample_round(SCALE_BLOCKS, &mut rng);

    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("flood_10000", |b| {
        let mut scratch = BroadcastScratch::with_capacity(SCALE_NODES);
        b.iter(|| view.broadcast_into(NodeId::new(0), &mut scratch));
    });
    group.bench_function("inv_getdata_10000", |b| {
        let cfg = GossipConfig::inv_getdata(0.0);
        let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
        b.iter(|| view.gossip_into(NodeId::new(0), &cfg, &mut scratch));
    });
    group.bench_function("analytic_round_10000x100", |b| {
        b.iter(|| engine.observe_round_with(&view, &miners));
    });
    group.finish();

    if !section_enabled("scale-report") {
        return;
    }

    // The 10k × 100-block analytic round (rayon fan-out, flat f32 store).
    let mut round = [0.0f64; 3];
    for slot in &mut round {
        let start = Instant::now();
        criterion::black_box(engine.observe_round_with(&view, &miners));
        *slot = start.elapsed().as_secs_f64();
    }
    let round_s = median(&mut round);
    let store = engine.observe_round_with(&view, &miners);
    let matrix_mb = store.observations().matrix_bytes() as f64 / (1024.0 * 1024.0);
    let edges = store.observations().directed_edge_count();
    println!(
        "scale: 10k-node round {round_s:.3} s ({:.1} blocks/s, {} threads), \
         observation matrix {matrix_mb:.1} MiB over {edges} directed edges \
         (f32; the former f64 rows held {:.1} MiB)",
        SCALE_BLOCKS as f64 / round_s,
        rayon::current_num_threads(),
        matrix_mb * 2.0,
    );

    // The BENCH_gossip.json trajectory quantity — 1k nodes, 100 blocks,
    // single thread through the pooled gossip engine — so the scale
    // baseline records that 1k round throughput did not regress.
    let (pop1k, lat1k, topo1k) = world(SMOKE_NODES, 5);
    let view1k = TopologyView::new(&topo1k, &lat1k, &pop1k);
    let mut rng = StdRng::seed_from_u64(6);
    let miners1k = MinerSampler::new(&pop1k).sample_round(100, &mut rng);
    let time_gossip = |cfg: &GossipConfig| {
        let mut scratch = GossipScratch::with_capacity(view1k.len(), view1k.directed_edge_count());
        let mut samples = [0.0f64; 3];
        for slot in &mut samples {
            let start = Instant::now();
            for &miner in &miners1k {
                view1k.gossip_into(miner, cfg, &mut scratch);
                criterion::black_box(scratch.arrivals());
            }
            *slot = start.elapsed().as_secs_f64();
        }
        median(&mut samples)
    };
    let flood_1k = time_gossip(&GossipConfig::flood());
    let inv_1k = time_gossip(&GossipConfig::inv_getdata(0.0));
    println!(
        "scale: 1k-node 100-block gossip round (1 thread): flood {flood_1k:.4} s, \
         inv {inv_1k:.4} s (BENCH_gossip.json baseline: 0.0444 / 0.0405)"
    );

    // Sketch backend at the same 10k × 100 shape: constant-space per-edge
    // P² sketches instead of the raw sample matrix. The store must be
    // ≥ 4× smaller than dense (the scale acceptance gate), and — the
    // sublinearity claim — its size must not depend on blocks-per-round.
    let sketch_engine =
        engine_with_backend(&pop, &lat, &topo, SCALE_BLOCKS, ObservationBackend::Sketch);
    let mut sk = [0.0f64; 3];
    for slot in &mut sk {
        let start = Instant::now();
        criterion::black_box(sketch_engine.observe_round_with(&view, &miners));
        *slot = start.elapsed().as_secs_f64();
    }
    let sketch_s = median(&mut sk);
    let sketch_store = sketch_engine.observe_round_with(&view, &miners);
    let sketch_bytes = sketch_store.observations().matrix_bytes();
    let dense_bytes = store.observations().matrix_bytes();
    assert!(
        sketch_bytes * 4 <= dense_bytes,
        "sketch store must be >= 4x smaller than dense at 10k x 100 \
         (sketch {sketch_bytes} B, dense {dense_bytes} B)"
    );
    println!(
        "scale: sketch round {sketch_s:.3} s, store {:.1} MiB vs dense {matrix_mb:.1} MiB \
         ({:.1}x smaller, {} B/edge independent of blocks-per-round)",
        sketch_bytes as f64 / (1024.0 * 1024.0),
        dense_bytes as f64 / sketch_bytes as f64,
        sketch_bytes / edges,
    );

    // The 100k-node round: sketch observations (dense would hold
    // ~640 MiB at 100 blocks) over the analytic flood. One
    // warm-up-free hand-timed triple.
    let (pop100k, lat100k, topo100k) = world(HUGE_NODES, 9);
    let view100k = TopologyView::new(&topo100k, &lat100k, &pop100k);
    let engine100k = engine_with_backend(
        &pop100k,
        &lat100k,
        &topo100k,
        HUGE_BLOCKS,
        ObservationBackend::Sketch,
    );
    let mut rng = StdRng::seed_from_u64(10);
    let miners100k = MinerSampler::new(&pop100k).sample_round(HUGE_BLOCKS, &mut rng);
    let mut huge = [0.0f64; 3];
    for slot in &mut huge {
        let start = Instant::now();
        criterion::black_box(engine100k.observe_round_with(&view100k, &miners100k));
        *slot = start.elapsed().as_secs_f64();
    }
    let huge_s = median(&mut huge);
    let huge_store = engine100k.observe_round_with(&view100k, &miners100k);
    let huge_edges = huge_store.observations().directed_edge_count();
    let huge_bytes = huge_store.observations().matrix_bytes();
    println!(
        "scale: 100k-node {HUGE_BLOCKS}-block round {huge_s:.3} s \
         ({:.1} blocks/s), sketch store {:.1} MiB over {huge_edges} edges \
         (dense would hold {:.1} MiB)",
        HUGE_BLOCKS as f64 / huge_s,
        huge_bytes as f64 / (1024.0 * 1024.0),
        (huge_edges * HUGE_BLOCKS * 4) as f64 / (1024.0 * 1024.0),
    );

    let fields = format!(
        "  \"nodes\": {SCALE_NODES},\n  \
         \"blocks_per_round\": {SCALE_BLOCKS},\n  \
         \"analytic_round\": {{ \"seconds\": {round_s:.4}, \"blocks_per_s\": {:.1}, \
         \"threads\": {} }},\n  \
         \"observation_store\": {{ \"directed_edges\": {edges}, \"matrix_mib_f32\": {matrix_mb:.1}, \
         \"former_f64_mib\": {:.1} }},\n  \
         \"sketch_backend\": {{ \"seconds\": {sketch_s:.4}, \"store_bytes\": {sketch_bytes}, \
         \"bytes_per_edge\": {:.1}, \"dense_over_sketch\": {:.1} }},\n  \
         \"round_100k\": {{ \"nodes\": {HUGE_NODES}, \"blocks\": {HUGE_BLOCKS}, \
         \"seconds\": {huge_s:.4}, \"blocks_per_s\": {:.1}, \
         \"sketch_store_bytes\": {huge_bytes}, \"directed_edges\": {huge_edges} }},\n  \
         \"gossip_1k_100blocks_1thread\": {{ \"flood_s\": {flood_1k:.4}, \"inv_s\": {inv_1k:.4} }}\n",
        SCALE_BLOCKS as f64 / round_s,
        rayon::current_num_threads(),
        matrix_mb * 2.0,
        sketch_bytes as f64 / edges as f64,
        dense_bytes as f64 / sketch_bytes as f64,
        HUGE_BLOCKS as f64 / huge_s,
    );
    let json = bench_json(
        "scale",
        &format!("nodes={SCALE_NODES},blocks={SCALE_BLOCKS},huge={HUGE_NODES}x{HUGE_BLOCKS}"),
        MemoryFootprint::per_edge(sketch_bytes, edges),
        &fields,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

fn bench_scale_smoke(c: &mut Criterion) {
    if !section_enabled("scale_smoke/") {
        return;
    }
    let (pop, lat, topo) = world(SMOKE_NODES, 3);
    let view = TopologyView::new(&topo, &lat, &pop);
    let engine = engine_for(&pop, &lat, &topo, SMOKE_BLOCKS);
    let mut rng = StdRng::seed_from_u64(4);
    let miners = MinerSampler::new(&pop).sample_round(SMOKE_BLOCKS, &mut rng);

    let mut group = c.benchmark_group("scale_smoke");
    group.sample_size(10);
    group.bench_function("flood_1000", |b| {
        let mut scratch = BroadcastScratch::with_capacity(SMOKE_NODES);
        b.iter(|| view.broadcast_into(NodeId::new(0), &mut scratch));
    });
    group.bench_function("inv_getdata_1000", |b| {
        let cfg = GossipConfig::inv_getdata(0.0);
        let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
        b.iter(|| view.gossip_into(NodeId::new(0), &cfg, &mut scratch));
    });
    group.bench_function("analytic_round_1000x10", |b| {
        b.iter(|| engine.observe_round_with(&view, &miners));
    });
    group.finish();

    // The smoke pass also cross-checks the flat store against the
    // reference recording path (a latency-model call per neighbor) once,
    // so CI exercises the equivalence, not just the speed.
    let round = engine.observe_round_with(&view, &miners);
    let mut legacy = perigee_core::ObservationCollector::from_view(&view);
    let mut scratch = BroadcastScratch::new();
    for &miner in &miners {
        view.broadcast_into(miner, &mut scratch);
        legacy.record(&scratch, &lat);
    }
    assert_eq!(
        round.observations().as_dense().unwrap(),
        &legacy.finish(),
        "flat store diverged from the legacy recording path"
    );
}

/// CI's gate on the sketch store and compaction, at 300 nodes: the
/// sketch store is ≥ 4× smaller than dense at 100 blocks with
/// bit-identical λ-curves, and free-list compaction under churn leaves
/// the carried view exactly equal to a fresh build.
fn bench_sketch_smoke(c: &mut Criterion) {
    let _ = c;
    if !section_enabled("sketch_smoke") {
        return;
    }
    const NODES: usize = 300;

    // 1. The sketch-vs-dense ablation gate: at 100 blocks the sketch
    //    store must be ≥ 4× smaller, and the λ-curves — computed from
    //    the floods, not the store — must not move at all.
    let (pop, lat, topo) = world(NODES, 13);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut rng = StdRng::seed_from_u64(14);
    let miners = MinerSampler::new(&pop).sample_round(100, &mut rng);
    let dense = engine_for(&pop, &lat, &topo, 100).observe_round_with(&view, &miners);
    let sketch = engine_with_backend(&pop, &lat, &topo, 100, ObservationBackend::Sketch)
        .observe_round_with(&view, &miners);
    let dense_bytes = dense.observations().matrix_bytes();
    let sketch_bytes = sketch.observations().matrix_bytes();
    assert!(
        sketch_bytes * 4 <= dense_bytes,
        "sketch store {sketch_bytes} B must be >= 4x smaller than dense {dense_bytes} B"
    );
    assert_eq!(dense.lambda90_ms(), sketch.lambda90_ms());
    assert_eq!(dense.lambda50_ms(), sketch.lambda50_ms());

    // 2. Compaction under churn: retire slots for a few rounds, compact,
    //    and the carried view must still equal a fresh build — then keep
    //    running on the renumbered world.
    let (pop, lat, topo) = world(NODES, 15);
    let mut engine =
        engine_with_backend(&pop, &lat, &topo, SMOKE_BLOCKS, ObservationBackend::Sketch);
    let mut rng = StdRng::seed_from_u64(16);
    engine.set_churn(ChurnProcess::steady_state(NODES, 0.05, 17));
    let mut departed = 0;
    for _ in 0..6 {
        departed += engine.run_round(&mut rng).departed;
    }
    assert!(departed > 0, "churn must retire slots before the compact");
    let reclaimed = engine.compact().expect("retired slots to reclaim");
    assert!(reclaimed > 0);
    engine.assert_view_consistency();
    for _ in 0..3 {
        engine.run_round(&mut rng);
    }
    engine.assert_view_consistency();

    println!(
        "sketch_smoke: sketch {sketch_bytes} B vs dense {dense_bytes} B ({:.1}x), \
         compaction reclaimed {reclaimed} -> all gates passed",
        dense_bytes as f64 / sketch_bytes as f64
    );
}

criterion_group!(benches, bench_scale, bench_scale_smoke, bench_sketch_smoke);
criterion_main!(benches);
