//! Cross-validation of both propagation kernels against the reference
//! engine [`perigee_oracle::gossip_block`]: the original
//! event-heap engine with per-node `BTreeMap` delivery logs. The
//! production kernels claim bit-identical behaviour by construction (same
//! schedule order, same time-tie insertion-sequence break, same `δ(u,v)`
//! call directions, same transfer floats); this suite checks the claim
//! event for event across both modes, bandwidth models and adversarial
//! behaviours, on 20- to 250-node worlds. The analytic flood
//! ([`TopologyView::broadcast_into`]) is checked against the reference's
//! flood of a zero-size block, coverage times against
//! [`perigee_oracle::coverage_times`], and a scratch reused
//! across blocks must leave each block exactly what the reference
//! computes from nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::BTreeMap;

use perigee_netsim::{
    Behavior, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipMode, GossipScratch, NodeId,
    Population, PopulationBuilder, SimTime, Topology, TopologyView, TransferModel,
};
use perigee_oracle::{collect_rows, coverage_times, gossip_block as legacy_gossip_block};

fn random_world(n: usize, seed: u64) -> (Population, GeoLatencyModel, Topology, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let mut topo = Topology::new(n, ConnectionLimits::paper_default());
    for i in 0..n as u32 {
        let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % n as u32));
    }
    for _ in 0..3 * n {
        let u = NodeId::new(rng.gen_range(0..n as u32));
        let v = NodeId::new(rng.gen_range(0..n as u32));
        let _ = topo.connect(u, v);
    }
    (pop, lat, topo, rng)
}

/// Asserts the message `scratch` just simulated through `view` from
/// `src` under `cfg` equals the legacy replica bit for bit: arrivals AND
/// every node's full per-neighbor delivery log.
fn assert_matches_legacy(
    world: (&Population, &GeoLatencyModel, &Topology),
    view: &TopologyView,
    scratch: &GossipScratch,
    src: NodeId,
    cfg: &GossipConfig,
) {
    let (pop, lat, topo) = world;
    let (legacy_arrival, legacy_deliveries) = legacy_gossip_block(topo, lat, pop, src, cfg);
    assert_eq!(scratch.source(), src);
    assert_eq!(
        scratch.arrivals(),
        legacy_arrival.as_slice(),
        "arrivals differ"
    );
    let rows = collect_rows(scratch, view, None);
    for i in 0..pop.len() as u32 {
        let v = NodeId::new(i);
        // The scratch's row of `v`, as the legacy log keys it: neighbors
        // that delivered, by id.
        let log: BTreeMap<NodeId, SimTime> = view
            .neighbors(v)
            .zip(rows[v.index()].iter().copied())
            .filter(|(_, t)| t.is_finite())
            .collect();
        assert_eq!(
            log,
            legacy_deliveries[v.index()],
            "delivery log of {v} differs"
        );
    }
}

/// Asserts the pooled engine, on a fresh view and scratch, equals the
/// legacy replica bit for bit.
fn assert_engines_agree(
    pop: &Population,
    lat: &GeoLatencyModel,
    topo: &Topology,
    src: NodeId,
    cfg: &GossipConfig,
) {
    let view = TopologyView::new(topo, lat, pop);
    let mut scratch = GossipScratch::new();
    view.gossip_into(src, cfg, &mut scratch);
    assert_matches_legacy((pop, lat, topo), &view, &scratch, src, cfg);
}

/// Floods `src` analytically on `scratch` and asserts it equals the
/// legacy replica's flood of a zero-size block: arrivals, delivery logs
/// and multi-fraction coverage times.
fn assert_flood_matches_legacy(
    world: (&Population, &GeoLatencyModel, &Topology),
    view: &TopologyView,
    scratch: &mut GossipScratch,
    src: NodeId,
) {
    view.broadcast_into(src, scratch);
    assert_matches_legacy(world, view, scratch, src, &GossipConfig::flood());
    let fractions = [0.1, 0.5, 0.9, 1.0];
    let mut coverage = [SimTime::ZERO; 4];
    scratch.coverage_times_into(view, &fractions, &mut coverage);
    assert_eq!(
        coverage.as_slice(),
        coverage_times(scratch.arrivals(), world.0, &fractions),
        "coverage times differ"
    );
}

#[test]
fn flood_mode_is_bit_identical_to_legacy_engine() {
    for seed in 0..6 {
        let (pop, lat, topo, mut rng) = random_world(70, seed);
        for _ in 0..3 {
            let src = NodeId::new(rng.gen_range(0..70));
            assert_engines_agree(&pop, &lat, &topo, src, &GossipConfig::flood());
        }
    }
}

#[test]
fn inv_getdata_mode_is_bit_identical_to_legacy_engine() {
    for seed in 0..6 {
        let (pop, lat, topo, mut rng) = random_world(70, seed + 100);
        for _ in 0..3 {
            let src = NodeId::new(rng.gen_range(0..70));
            assert_engines_agree(&pop, &lat, &topo, src, &GossipConfig::inv_getdata(0.0));
        }
    }
}

#[test]
fn push_pull_mode_is_bit_identical_to_legacy_engine() {
    for seed in 0..6 {
        let (pop, lat, topo, mut rng) = random_world(70, seed + 200);
        for push_degree in [1, 3, 8] {
            let src = NodeId::new(rng.gen_range(0..70));
            assert_engines_agree(
                &pop,
                &lat,
                &topo,
                src,
                &GossipConfig::push_pull(0.001, push_degree),
            );
        }
    }
}

#[test]
fn bandwidth_limited_transfers_are_bit_identical_to_legacy_engine() {
    // (population seed, latency seed): two families of skewed worlds.
    let worlds = [
        (500, 0),
        (501, 1),
        (502, 2),
        (503, 3),
        (700, 0),
        (701, 1),
        (702, 2),
    ];
    for (pop_seed, seed) in worlds {
        let mut rng = StdRng::seed_from_u64(pop_seed);
        let pop = PopulationBuilder::new(60)
            .bandwidth_skew(true)
            .build(&mut rng)
            .unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(60, ConnectionLimits::paper_default());
        for i in 0..60u32 {
            let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % 60));
        }
        for _ in 0..180 {
            let u = NodeId::new(rng.gen_range(0..60));
            let v = NodeId::new(rng.gen_range(0..60));
            let _ = topo.connect(u, v);
        }
        for cfg in [
            GossipConfig {
                mode: GossipMode::Flood,
                transfer: TransferModel::new(1.0),
            },
            GossipConfig::inv_getdata(1.0),
            GossipConfig::push_pull(1.0, 2),
        ] {
            let src = NodeId::new(rng.gen_range(0..60));
            assert_engines_agree(&pop, &lat, &topo, src, &cfg);
        }
    }
}

#[test]
fn adversarial_behaviors_are_bit_identical_to_legacy_engine() {
    let (mut pop, lat, topo, _) = random_world(50, 77);
    pop.profile_mut(NodeId::new(4)).behavior = Behavior::Silent;
    pop.profile_mut(NodeId::new(9)).behavior = Behavior::Delay(SimTime::from_ms(300.0));
    for cfg in [
        GossipConfig::flood(),
        GossipConfig::inv_getdata(0.0),
        GossipConfig::push_pull(0.0, 2),
    ] {
        // An honest source, the delaying node, and a silent (withholding)
        // source that never announces at all.
        for src in [0u32, 9, 4] {
            assert_engines_agree(&pop, &lat, &topo, NodeId::new(src), &cfg);
        }
    }
}

#[test]
fn analytic_flood_is_bit_identical_to_legacy_engine_across_sizes() {
    for (n, seed) in [(20usize, 0u64), (50, 1), (50, 2), (120, 3), (250, 4)] {
        let (pop, lat, topo, mut rng) = random_world(n, seed);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = GossipScratch::new();
        for _ in 0..4 {
            let src = NodeId::new(rng.gen_range(0..n as u32));
            assert_flood_matches_legacy((&pop, &lat, &topo), &view, &mut scratch, src);
        }
    }
}

#[test]
fn gossip_on_a_reused_scratch_is_bit_identical_to_legacy_engine_across_sizes() {
    for (n, seed) in [(20usize, 10u64), (60, 11), (60, 12), (150, 13)] {
        let (pop, lat, topo, mut rng) = random_world(n, seed);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = GossipScratch::new();
        for cfg in [
            GossipConfig::flood(),
            GossipConfig::inv_getdata(0.0),
            GossipConfig::inv_getdata(1.0),
        ] {
            for _ in 0..3 {
                let src = NodeId::new(rng.gen_range(0..n as u32));
                view.gossip_into(src, &cfg, &mut scratch);
                assert_matches_legacy((&pop, &lat, &topo), &view, &scratch, src, &cfg);
            }
        }
    }
}

#[test]
fn withholding_past_whole_seconds_is_bit_identical_to_legacy_engine() {
    // Silent absorbers and long withholding delays push event times far
    // from the typical latency band, past whole-second marks included.
    let (mut pop, lat, topo, mut rng) = random_world(50, 77);
    pop.profile_mut(NodeId::new(3)).behavior = Behavior::Silent;
    pop.profile_mut(NodeId::new(11)).behavior = Behavior::Delay(SimTime::from_ms(2_500.0));
    pop.profile_mut(NodeId::new(29)).behavior = Behavior::Delay(SimTime::from_ms(301.5));
    let view = TopologyView::new(&topo, &lat, &pop);
    let world = (&pop, &lat, &topo);
    let mut flood = GossipScratch::new();
    let mut gossip = GossipScratch::new();
    for _ in 0..4 {
        let src = NodeId::new(rng.gen_range(0..50));
        assert_flood_matches_legacy(world, &view, &mut flood, src);
        for cfg in [GossipConfig::flood(), GossipConfig::inv_getdata(0.0)] {
            view.gossip_into(src, &cfg, &mut gossip);
            assert_matches_legacy(world, &view, &gossip, src, &cfg);
        }
    }
}

#[test]
fn one_scratch_across_25_blocks_is_bit_identical_to_legacy_engine() {
    // The per-message reset and the calendar's O(1) clear leave no
    // residue between blocks: every block of a long sequence through ONE
    // scratch equals the reference, which starts each block from nothing.
    let (pop, lat, topo, mut rng) = random_world(80, 99);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut scratch = GossipScratch::new();
    let cfg = GossipConfig::inv_getdata(0.0);
    for _ in 0..25 {
        let src = NodeId::new(rng.gen_range(0..80));
        view.gossip_into(src, &cfg, &mut scratch);
        assert_matches_legacy((&pop, &lat, &topo), &view, &scratch, src, &cfg);
    }
}
