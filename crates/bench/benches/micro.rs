//! Microbenchmarks of the substrate: broadcast engines, scoring methods,
//! topology construction, percentile computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_core::{NodeHistory, ObservationCollector, ScoringMethod};
use perigee_metrics::percentile_or_inf;
use perigee_netsim::{
    BroadcastScratch, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipScratch, MinerSampler,
    NodeId, Population, PopulationBuilder, Topology, TopologyView,
};
use perigee_topology::{GeographicBuilder, KademliaBuilder, RandomBuilder, TopologyBuilder};

fn world(n: usize, seed: u64) -> (Population, GeoLatencyModel, Topology) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    (pop, lat, topo)
}

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadcast");
    for n in [250usize, 1000] {
        let (pop, lat, topo) = world(n, 1);
        let view = TopologyView::new(&topo, &lat, &pop);
        group.bench_with_input(BenchmarkId::new("dijkstra", n), &n, |b, _| {
            let mut scratch = BroadcastScratch::new();
            b.iter(|| view.broadcast_into(NodeId::new(0), &mut scratch));
        });
        for (name, cfg) in [
            ("event_flood", GossipConfig::flood()),
            ("event_inv_getdata", GossipConfig::inv_getdata(0.0)),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                let mut scratch = GossipScratch::new();
                b.iter(|| view.gossip_into(NodeId::new(0), &cfg, &mut scratch));
            });
        }
    }
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    // One round of observations on a 500-node network, then time each
    // scoring method's retain pass over all nodes.
    let (pop, lat, topo) = world(500, 2);
    let mut rng = StdRng::seed_from_u64(3);
    let sampler = MinerSampler::new(&pop);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut collector = ObservationCollector::from_view(&view);
    let mut scratch = BroadcastScratch::new();
    for _ in 0..100 {
        view.broadcast_into(sampler.sample(&mut rng), &mut scratch);
        collector.record_scratch(&view, &scratch);
    }
    let observations = collector.finish();

    let mut group = c.benchmark_group("scoring");
    for method in ScoringMethod::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(method),
            &method,
            |b, &method| {
                let strategy = method.strategy(500, 6, 90.0, 50.0);
                let mut histories = vec![NodeHistory::default(); 500];
                b.iter(|| {
                    for (i, history) in histories.iter_mut().enumerate() {
                        let v = NodeId::new(i as u32);
                        let outgoing = topo.outgoing_vec(v);
                        let _ = strategy.retain(v, &outgoing, observations.node(v), history);
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_topology_builders(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let pop = PopulationBuilder::new(1000).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 5);
    let limits = ConnectionLimits::paper_default();

    let mut group = c.benchmark_group("topology");
    group.bench_function("random_1000", |b| {
        b.iter(|| RandomBuilder::new().build(&pop, &lat, limits, &mut rng));
    });
    group.bench_function("geographic_1000", |b| {
        b.iter(|| GeographicBuilder::new().build(&pop, &lat, limits, &mut rng));
    });
    group.bench_function("kademlia_1000", |b| {
        b.iter(|| KademliaBuilder::new().build(&pop, &lat, limits, &mut rng));
    });
    group.finish();
}

fn bench_percentile(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let values: Vec<f64> = (0..1000).map(|_| rng.gen::<f64>() * 1e4).collect();
    c.bench_function("percentile_1000", |b| {
        b.iter(|| percentile_or_inf(&values, 90.0));
    });
}

criterion_group!(
    benches,
    bench_broadcast,
    bench_scoring,
    bench_topology_builders,
    bench_percentile
);
criterion_main!(benches);
