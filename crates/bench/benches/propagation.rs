//! The tentpole benchmark: frozen CSR snapshots + reusable scratch vs the
//! seed's legacy propagation pipeline, at the paper's evaluation scale
//! (1000 nodes, 100 blocks per round).
//!
//! The `legacy_*` baselines are faithful replicas (through the public API)
//! of the pre-CSR hot path this PR replaced: Dijkstra that calls
//! `Topology::neighbors()` — a fresh `BTreeSet` + `Vec` allocation — per
//! settled node and `LatencyModel::delay` per edge, observation rows that
//! call `delay` per neighbor per block, and a freshly allocated + sorted
//! weighted vector per `coverage_time` call (twice per block).
//!
//! Three comparisons:
//!
//! * `broadcast/*` — one flood: the legacy Dijkstra vs an allocation-free
//!   flood through a prebuilt [`TopologyView`].
//! * `round/*` — a full observation round (floods + observation rows +
//!   λ50/λ90 per block): the legacy sequential pipeline vs
//!   [`PerigeeEngine::observe_round`] (one snapshot per round, cached edge
//!   latencies, rayon block fan-out).
//! * `gossip/*` — one message-level block (Flood and INV/GETDATA): the
//!   legacy engine's reference implementation
//!   ([`perigee_netsim::reference`]: boxed `EventQueue` events, one
//!   `BTreeMap` delivery log per node, latency-model calls per event) vs
//!   the pooled [`GossipScratch`] engine on a prebuilt view.
//!
//! After the criterion groups, the bench prints the measured round and
//! gossip speedups explicitly, and writes the single-thread gossip
//! numbers to `BENCH_gossip.json` at the workspace root so future PRs
//! have a perf trajectory.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee_netsim::{
    reference, Behavior, BroadcastScratch, ConnectionLimits, GeoLatencyModel, GossipConfig,
    GossipScratch, LatencyModel, MinerSampler, NodeId, Population, PopulationBuilder, SimTime,
    Topology, TopologyView,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};

const NODES: usize = 1000;
const BLOCKS_PER_ROUND: usize = 100;

fn world(seed: u64) -> (Population, GeoLatencyModel, Topology) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(NODES).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    (pop, lat, topo)
}

/// The seed's Dijkstra flood: `Topology::neighbors()` (BTreeSet clone +
/// Vec collect) per settled node, `LatencyModel::delay` per relaxed edge.
/// Returns `(arrival, relay_at)`.
fn legacy_flood(
    topo: &Topology,
    lat: &GeoLatencyModel,
    pop: &Population,
    source: NodeId,
) -> (Vec<SimTime>, Vec<SimTime>) {
    let n = topo.len();
    let mut arrival = vec![SimTime::INFINITY; n];
    let mut relay_at = vec![SimTime::INFINITY; n];
    let mut heap: BinaryHeap<Reverse<(SimTime, NodeId)>> = BinaryHeap::new();
    arrival[source.index()] = SimTime::ZERO;
    heap.push(Reverse((SimTime::ZERO, source)));
    while let Some(Reverse((t, u))) = heap.pop() {
        if t > arrival[u.index()] {
            continue;
        }
        let profile = pop.profile(u);
        let validated = if u == source {
            t
        } else {
            t + profile.validation_delay
        };
        let relay = match profile.behavior {
            Behavior::Honest => validated,
            Behavior::Silent => SimTime::INFINITY,
            Behavior::Delay(extra) => validated + extra,
        };
        relay_at[u.index()] = relay;
        if relay.is_infinite() {
            continue;
        }
        for v in topo.neighbors(u) {
            let tv = relay + lat.delay(u, v);
            if tv < arrival[v.index()] {
                arrival[v.index()] = tv;
                heap.push(Reverse((tv, v)));
            }
        }
    }
    (arrival, relay_at)
}

/// The seed's observation recording: `LatencyModel::delay` per neighbor
/// per block, one freshly allocated row per node per block.
fn legacy_record(
    rows: &mut [Vec<Vec<f64>>],
    neighbors: &[Vec<NodeId>],
    lat: &GeoLatencyModel,
    relay_at: &[SimTime],
) {
    for (i, node_rows) in rows.iter_mut().enumerate() {
        let v = NodeId::new(i as u32);
        let mut row: Vec<f64> = neighbors[i]
            .iter()
            .map(|&u| {
                let r = relay_at[u.index()];
                if r.is_infinite() {
                    f64::INFINITY
                } else {
                    (r + lat.delay(u, v)).as_ms()
                }
            })
            .collect();
        let min = row.iter().copied().fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            for t in &mut row {
                *t -= min;
            }
        }
        node_rows.push(row);
    }
}

/// The seed's full sequential round: flood, two coverage sorts, and
/// latency-model-driven observation rows per block.
fn legacy_round(
    topo: &Topology,
    lat: &GeoLatencyModel,
    pop: &Population,
    miners: &[NodeId],
) -> f64 {
    let neighbors: Vec<Vec<NodeId>> = (0..topo.len() as u32)
        .map(|i| topo.neighbors(NodeId::new(i)))
        .collect();
    let mut rows: Vec<Vec<Vec<f64>>> = vec![Vec::new(); topo.len()];
    let mut sum90 = 0.0;
    for &miner in miners {
        let (arrival, relay_at) = legacy_flood(topo, lat, pop, miner);
        // The seed's `coverage_time`: a fresh weighted vector, a full
        // sort and a scan per call — the reference definition.
        sum90 += reference::coverage_times(&arrival, pop, &[0.9])[0].as_ms();
        let _ = reference::coverage_times(&arrival, pop, &[0.5]);
        legacy_record(&mut rows, &neighbors, lat, &relay_at);
    }
    sum90
}

use perigee_bench::{bench_json, median, section_enabled, MemoryFootprint};

fn bench_broadcast(c: &mut Criterion) {
    // Each bench fn gates its (1000-node) world construction on its own
    // group name, so a filtered invocation (CI runs `-- round` and
    // `-- gossip` separately) pays only the setup it samples.
    if !section_enabled("broadcast") {
        return;
    }
    let (pop, lat, topo) = world(1);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut group = c.benchmark_group("broadcast");
    group.sample_size(20);
    group.bench_function("legacy_1000", |b| {
        b.iter(|| legacy_flood(&topo, &lat, &pop, NodeId::new(0)));
    });
    group.bench_function("csr_1000", |b| {
        let mut scratch = BroadcastScratch::with_capacity(NODES);
        b.iter(|| view.broadcast_into(NodeId::new(0), &mut scratch));
    });
    group.finish();

    // Sanity: the legacy replica and the CSR engine agree exactly.
    let (arrival, _) = legacy_flood(&topo, &lat, &pop, NodeId::new(0));
    let mut scratch = BroadcastScratch::new();
    view.broadcast_into(NodeId::new(0), &mut scratch);
    assert_eq!(
        arrival,
        scratch.arrivals(),
        "legacy replica diverged from CSR engine"
    );
}

fn bench_round_throughput(c: &mut Criterion) {
    if !section_enabled("round") {
        return;
    }
    let (pop, lat, topo) = world(2);
    let mut rng = StdRng::seed_from_u64(3);
    let miners = MinerSampler::new(&pop).sample_round(BLOCKS_PER_ROUND, &mut rng);

    let mut config = PerigeeConfig::paper_default(ScoringMethod::Subset);
    config.blocks_per_round = BLOCKS_PER_ROUND;
    let engine = PerigeeEngine::new(
        pop.clone(),
        lat.clone(),
        topo.clone(),
        ScoringMethod::Subset,
        config,
    )
    .expect("bench configuration is valid");

    let mut group = c.benchmark_group("round");
    group.sample_size(10);
    group.bench_function("legacy_sequential_1000x100", |b| {
        b.iter(|| legacy_round(&topo, &lat, &pop, &miners));
    });
    group.bench_function("csr_rayon_1000x100", |b| {
        b.iter(|| engine.observe_round(&miners));
    });
    group.finish();

    if !section_enabled("round-throughput") {
        return;
    }

    // Cross-check the pipelines agree before reporting a speedup.
    let sum90: f64 = engine.observe_round(&miners).lambda90_ms().iter().sum();
    let legacy_sum90 = legacy_round(&topo, &lat, &pop, &miners);
    assert_eq!(sum90, legacy_sum90, "round pipelines diverged");

    // Explicit speedup report (median of 3 runs each), so the number the
    // tentpole promises is visible without post-processing.
    let mut legacy = [0.0f64; 3];
    for slot in &mut legacy {
        let start = Instant::now();
        criterion::black_box(legacy_round(&topo, &lat, &pop, &miners));
        *slot = start.elapsed().as_secs_f64();
    }
    let mut fast = [0.0f64; 3];
    for slot in &mut fast {
        let start = Instant::now();
        criterion::black_box(engine.observe_round(&miners));
        *slot = start.elapsed().as_secs_f64();
    }
    let (l, f) = (median(&mut legacy), median(&mut fast));
    println!(
        "round-throughput: legacy {:.3} s, csr+rayon {:.3} s -> speedup {:.1}x \
         ({} nodes, {} blocks/round, {} threads)",
        l,
        f,
        l / f,
        NODES,
        BLOCKS_PER_ROUND,
        rayon::current_num_threads(),
    );
}

fn bench_gossip(c: &mut Criterion) {
    if !section_enabled("gossip") {
        return;
    }
    let (pop, lat, topo) = world(5);
    let view = TopologyView::new(&topo, &lat, &pop);
    let flood_cfg = GossipConfig::flood();
    let inv_cfg = GossipConfig::inv_getdata(0.0);
    let src = NodeId::new(0);

    let mut group = c.benchmark_group("gossip");
    group.sample_size(10);
    group.bench_function("legacy_flood_1000", |b| {
        b.iter(|| reference::gossip_block(&topo, &lat, &pop, src, &flood_cfg));
    });
    group.bench_function("scratch_flood_1000", |b| {
        let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
        b.iter(|| view.gossip_into(src, &flood_cfg, &mut scratch));
    });
    group.bench_function("legacy_inv_1000", |b| {
        b.iter(|| reference::gossip_block(&topo, &lat, &pop, src, &inv_cfg));
    });
    group.bench_function("scratch_inv_1000", |b| {
        let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
        b.iter(|| view.gossip_into(src, &inv_cfg, &mut scratch));
    });
    group.finish();

    if !section_enabled("gossip-throughput") {
        return;
    }

    // Sanity: the reference engine and the pooled engine agree exactly —
    // arrivals and full delivery logs — before any speedup is reported.
    let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
    for cfg in [&flood_cfg, &inv_cfg] {
        let (legacy_arrival, legacy_deliveries) =
            reference::gossip_block(&topo, &lat, &pop, src, cfg);
        view.gossip_into(src, cfg, &mut scratch);
        assert_eq!(
            scratch.arrivals(),
            legacy_arrival.as_slice(),
            "legacy gossip replica diverged from the pooled engine"
        );
        for i in 0..view.len() as u32 {
            let v = NodeId::new(i);
            let log: BTreeMap<NodeId, SimTime> = view
                .neighbors(v)
                .zip(scratch.neighbor_deliveries(&view, v))
                .filter(|(_, t)| t.is_finite())
                .collect();
            assert_eq!(log, legacy_deliveries[v.index()]);
        }
    }

    // Single-thread block throughput over a full 100-block round (median
    // of 3 runs each) — the number the tentpole promises (≥ 3×) — written
    // to BENCH_gossip.json at the workspace root as the perf trajectory
    // baseline. Both loops below are plain sequential code, so no thread
    // pinning is needed.
    let mut rng = StdRng::seed_from_u64(6);
    let miners = MinerSampler::new(&pop).sample_round(BLOCKS_PER_ROUND, &mut rng);
    let time_legacy = |cfg: &GossipConfig| {
        let mut samples = [0.0f64; 3];
        for slot in &mut samples {
            let start = Instant::now();
            for &miner in &miners {
                criterion::black_box(reference::gossip_block(&topo, &lat, &pop, miner, cfg));
            }
            *slot = start.elapsed().as_secs_f64();
        }
        median(&mut samples)
    };
    let time_scratch = |cfg: &GossipConfig| {
        let mut scratch = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
        let mut samples = [0.0f64; 3];
        for slot in &mut samples {
            let start = Instant::now();
            for &miner in &miners {
                view.gossip_into(miner, cfg, &mut scratch);
                criterion::black_box(scratch.arrivals());
            }
            *slot = start.elapsed().as_secs_f64();
        }
        median(&mut samples)
    };
    let (flood_legacy, flood_scratch) = (time_legacy(&flood_cfg), time_scratch(&flood_cfg));
    let (inv_legacy, inv_scratch) = (time_legacy(&inv_cfg), time_scratch(&inv_cfg));
    println!(
        "gossip-throughput: flood legacy {flood_legacy:.3} s vs scratch {flood_scratch:.3} s \
         -> {:.1}x; inv legacy {inv_legacy:.3} s vs scratch {inv_scratch:.3} s -> {:.1}x \
         ({NODES} nodes, {BLOCKS_PER_ROUND} blocks, 1 thread)",
        flood_legacy / flood_scratch,
        inv_legacy / inv_scratch,
    );
    let fields = format!(
        "  \"nodes\": {NODES},\n  \
         \"blocks_per_round\": {BLOCKS_PER_ROUND},\n  \"threads\": 1,\n  \
         \"flood\": {{ \"legacy_s\": {flood_legacy:.4}, \"scratch_s\": {flood_scratch:.4}, \
         \"speedup\": {:.2} }},\n  \
         \"inv_getdata\": {{ \"legacy_s\": {inv_legacy:.4}, \"scratch_s\": {inv_scratch:.4}, \
         \"speedup\": {:.2} }}\n",
        flood_legacy / flood_scratch,
        inv_legacy / inv_scratch,
    );
    // Dominant structure: the gossip scratch's per-directed-edge
    // delivery slots (4-byte f32 arrival each).
    let mem = MemoryFootprint::per_edge(view.directed_edge_count() * 4, view.directed_edge_count());
    let json = bench_json(
        "gossip-engine",
        &format!("nodes={NODES},blocks={BLOCKS_PER_ROUND},threads=1"),
        mem,
        &fields,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gossip.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

criterion_group!(
    benches,
    bench_broadcast,
    bench_round_throughput,
    bench_gossip
);
criterion_main!(benches);
