//! Golden cross-engine tests for the calendar queue: flood and gossip on
//! [`QueueKind::Calendar`] must be **event-for-event identical** to the
//! [`QueueKind::BinaryHeap`] reference — same arrivals, same relay
//! starts, same delivery rows, same coverage floats, across
//! seeds, network sizes, gossip modes, bandwidth models and adversarial
//! behaviours (the `gossip_legacy.rs` pattern, one engine layer up).
//!
//! The heap path is itself cross-validated against the seed engines
//! (`tests/gossip_legacy.rs`, `view::tests`), so equality here chains all
//! the way back to the original implementations. Thread-count
//! independence of calendar-queue rounds is covered by the engine-level
//! suite in `crates/core/tests/determinism.rs` (blocks within a round are
//! simulated on per-worker scratches; this file pins down the per-block
//! engines the workers run).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_netsim::{
    Behavior, BroadcastScratch, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipMode,
    GossipScratch, NodeId, Population, PopulationBuilder, QueueKind, SimTime, Topology,
    TopologyView, TransferModel,
};

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

/// Floods `src` on both queue kinds and asserts every observable output
/// is bit-equal: arrivals, relay starts, reached count and multi-fraction
/// coverage times.
fn assert_flood_agrees(
    view: &TopologyView,
    src: NodeId,
    heap: &mut GossipScratch,
    cal: &mut GossipScratch,
) {
    assert_eq!(heap.queue_kind(), QueueKind::BinaryHeap);
    assert_eq!(cal.queue_kind(), QueueKind::Calendar);
    view.broadcast_into(src, heap);
    view.broadcast_into(src, cal);
    assert_eq!(heap.arrivals(), cal.arrivals(), "arrival times diverged");
    assert_eq!(
        heap.relay_starts(),
        cal.relay_starts(),
        "relay starts diverged"
    );
    assert_eq!(heap.reached(), cal.reached());
    let fractions = [0.1, 0.5, 0.9, 1.0];
    let mut cov_heap = [SimTime::ZERO; 4];
    let mut cov_cal = [SimTime::ZERO; 4];
    heap.coverage_times_into(view, &fractions, &mut cov_heap);
    cal.coverage_times_into(view, &fractions, &mut cov_cal);
    assert_eq!(cov_heap, cov_cal, "coverage times diverged");
}

/// Every delivery row of the last block, in CSR edge order.
fn rows(view: &TopologyView, s: &GossipScratch) -> Vec<SimTime> {
    (0..view.len() as u32)
        .flat_map(|v| s.neighbor_deliveries(view, NodeId::new(v)))
        .collect()
}

/// Simulates `src` on both queue kinds under `cfg` and asserts the full
/// event record is bit-equal: arrivals, relay starts and every delivery
/// row.
fn assert_gossip_agrees(
    view: &TopologyView,
    src: NodeId,
    cfg: &GossipConfig,
    heap: &mut GossipScratch,
    cal: &mut GossipScratch,
) {
    assert_eq!(heap.queue_kind(), QueueKind::BinaryHeap);
    assert_eq!(cal.queue_kind(), QueueKind::Calendar);
    view.gossip_into(src, cfg, heap);
    view.gossip_into(src, cfg, cal);
    assert_eq!(heap.arrivals(), cal.arrivals(), "arrival times diverged");
    assert_eq!(
        heap.relay_starts(),
        cal.relay_starts(),
        "relay starts diverged"
    );
    assert_eq!(rows(view, heap), rows(view, cal), "delivery rows diverged");
}

#[test]
fn calendar_flood_is_bit_identical_across_seeds_and_sizes() {
    for (n, seed) in [(20usize, 0u64), (50, 1), (50, 2), (120, 3), (250, 4)] {
        let (pop, lat, topo, mut rng) = random_world(n, seed);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut heap = GossipScratch::with_queue(QueueKind::BinaryHeap);
        let mut cal = GossipScratch::with_queue(QueueKind::Calendar);
        for _ in 0..4 {
            let src = NodeId::new(rng.gen_range(0..n as u32));
            assert_flood_agrees(&view, src, &mut heap, &mut cal);
        }
    }
}

#[test]
fn calendar_gossip_is_bit_identical_across_seeds_modes_and_sizes() {
    for (n, seed) in [(20usize, 10u64), (60, 11), (60, 12), (150, 13)] {
        let (pop, lat, topo, mut rng) = random_world(n, seed);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut heap = GossipScratch::with_queue(QueueKind::BinaryHeap);
        let mut cal = GossipScratch::with_queue(QueueKind::Calendar);
        for cfg in [
            GossipConfig::flood(),
            GossipConfig::inv_getdata(0.0),
            GossipConfig::inv_getdata(1.0),
        ] {
            for _ in 0..3 {
                let src = NodeId::new(rng.gen_range(0..n as u32));
                assert_gossip_agrees(&view, src, &cfg, &mut heap, &mut cal);
            }
        }
    }
}

#[test]
fn calendar_engines_agree_under_bandwidth_skew() {
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed + 700);
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
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut heap = GossipScratch::with_queue(QueueKind::BinaryHeap);
        let mut cal = GossipScratch::with_queue(QueueKind::Calendar);
        for cfg in [
            GossipConfig {
                mode: GossipMode::Flood,
                transfer: TransferModel::new(1.0),
            },
            GossipConfig::inv_getdata(1.0),
        ] {
            let src = NodeId::new(rng.gen_range(0..60));
            assert_gossip_agrees(&view, src, &cfg, &mut heap, &mut cal);
        }
    }
}

#[test]
fn calendar_engines_agree_under_adversarial_behaviors() {
    // Silent absorbers and long withholding delays push event times far
    // from the typical latency band — including past whole-second marks —
    // without breaking bit-identity.
    let (mut pop, lat, topo, mut rng) = random_world(50, 77);
    pop.profile_mut(NodeId::new(3)).behavior = Behavior::Silent;
    pop.profile_mut(NodeId::new(11)).behavior = Behavior::Delay(SimTime::from_ms(2_500.0));
    pop.profile_mut(NodeId::new(29)).behavior = Behavior::Delay(SimTime::from_ms(301.5));
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut fheap = GossipScratch::with_queue(QueueKind::BinaryHeap);
    let mut fcal = GossipScratch::with_queue(QueueKind::Calendar);
    let mut gheap = GossipScratch::with_queue(QueueKind::BinaryHeap);
    let mut gcal = GossipScratch::with_queue(QueueKind::Calendar);
    for _ in 0..4 {
        let src = NodeId::new(rng.gen_range(0..50));
        assert_flood_agrees(&view, src, &mut fheap, &mut fcal);
        for cfg in [GossipConfig::flood(), GossipConfig::inv_getdata(0.0)] {
            assert_gossip_agrees(&view, src, &cfg, &mut gheap, &mut gcal);
        }
    }
}

#[test]
fn scratch_reuse_across_blocks_keeps_kinds_identical() {
    // The per-message reset and the calendar's O(1) clear must leave no
    // residue between blocks: simulate a long block
    // sequence through both kinds on ONE scratch each and compare every
    // block (a fresh-scratch run would hide stale-state bugs).
    let (pop, lat, topo, mut rng) = random_world(80, 99);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut heap = GossipScratch::with_queue(QueueKind::BinaryHeap);
    let mut cal = GossipScratch::with_queue(QueueKind::Calendar);
    let cfg = GossipConfig::inv_getdata(0.0);
    for _ in 0..25 {
        let src = NodeId::new(rng.gen_range(0..80));
        assert_gossip_agrees(&view, src, &cfg, &mut heap, &mut cal);
    }
    // And a fresh calendar scratch agrees with the reused one — reuse is
    // residue-free in both directions.
    let src = NodeId::new(17);
    view.gossip_into(src, &cfg, &mut cal);
    let mut fresh = GossipScratch::with_queue(QueueKind::Calendar);
    view.gossip_into(src, &cfg, &mut fresh);
    assert_eq!(cal.arrivals(), fresh.arrivals());
    assert_eq!(cal.relay_starts(), fresh.relay_starts());
    assert_eq!(rows(&view, &cal), rows(&view, &fresh));
}

#[test]
fn default_scratches_run_the_calendar_queue() {
    // The perf path is the default; the heap stays opt-in as reference.
    assert_eq!(BroadcastScratch::new().queue_kind(), QueueKind::Calendar);
    assert_eq!(GossipScratch::new().queue_kind(), QueueKind::Calendar);
    assert_eq!(
        BroadcastScratch::with_capacity(64).queue_kind(),
        QueueKind::Calendar
    );
    assert_eq!(
        GossipScratch::with_capacity(64, 512).queue_kind(),
        QueueKind::Calendar
    );
}
