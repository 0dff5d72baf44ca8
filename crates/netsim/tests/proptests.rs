//! Property-based tests of the simulator substrate.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_netsim::pq::{CalendarQueue, BUCKET_WIDTH_MS};
use perigee_netsim::{
    BlockFaults, ConnectionLimits, FaultPlan, GeoLatencyModel, GossipConfig, GossipScratch,
    LatencyModel, LinkFaultRates, LinkFlaps, NodeId, PopulationBuilder, Region, RegionalWindow,
    RoundDelta, SimTime, Topology, TopologyView,
};
use perigee_oracle::collect_rows;

/// A calendar key like the propagation kernels' settle keys: the time
/// bits over `payload`.
fn settle_key(t: f64, payload: u32) -> u128 {
    ((t.to_bits() as u128) << 64) | payload as u128
}

/// The time of a packed calendar key.
fn key_time(key: u128) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

/// Maps a `(class, unit float, integer)` triple onto the f64 edge cases
/// the calendar queue must order exactly: zero, subnormals, exact bucket
/// boundaries and their neighbouring ulps, small tie grids, the 2–300 ms
/// latency band, 300+ ms outliers and keys past the ~32.8 s wheel horizon.
fn edge_case_time(class: u8, x: f64, k: u32) -> f64 {
    match class % 8 {
        0 => 0.0,
        1 => f64::from_bits(u64::from(k) + 1), // true subnormals
        2 => f64::from(k) * BUCKET_WIDTH_MS,   // exact bucket boundaries
        3 => {
            // One ulp either side of a bucket boundary (rollover edges).
            let bits = (f64::from(k.max(1)) * BUCKET_WIDTH_MS).to_bits();
            f64::from_bits(if k.is_multiple_of(2) {
                bits + 1
            } else {
                bits - 1
            })
        }
        4 => f64::from(k % 16) * 0.125, // coarse grid: exact duplicate ties
        5 => 2.0 + x * 298.0,           // the paper's latency band
        6 => 300.0 + x * 4_700.0,       // 300+ ms outliers
        _ => 32_000.0 + x * 2_000.0,    // straddles the wheel horizon
    }
}

fn random_connected_topology(n: usize, rng: &mut StdRng) -> Topology {
    let mut topo = Topology::new(n, ConnectionLimits::paper_default());
    for i in 0..n as u32 {
        let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % n as u32));
    }
    for _ in 0..2 * n {
        let u = NodeId::new(rng.gen_range(0..n as u32));
        let v = NodeId::new(rng.gen_range(0..n as u32));
        let _ = topo.connect(u, v);
    }
    topo
}

/// Every delivery row of the last fault-free gossiped block, in CSR edge
/// order.
fn deliveries(view: &TopologyView, s: &GossipScratch) -> Vec<SimTime> {
    collect_rows(s, view, None).concat()
}

/// [`deliveries`] of a block gossiped under `faults`.
fn faulted_deliveries(
    view: &TopologyView,
    s: &GossipScratch,
    faults: &BlockFaults<'_>,
) -> Vec<SimTime> {
    collect_rows(s, view, Some(faults)).concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// δ is symmetric, zero on the diagonal and positive elsewhere — for
    /// arbitrary populations and seeds.
    #[test]
    fn latency_model_axioms(n in 2usize..80, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        for i in 0..n as u32 {
            let u = NodeId::new(i);
            prop_assert_eq!(lat.delay(u, u), SimTime::ZERO);
            for j in (i + 1)..n as u32 {
                let v = NodeId::new(j);
                prop_assert_eq!(lat.delay(u, v), lat.delay(v, u));
                prop_assert!(lat.delay(u, v).as_ms() > 0.0);
            }
        }
    }

    /// Coverage time is monotone in the coverage fraction.
    #[test]
    fn coverage_time_is_monotone(n in 3usize..60, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = GossipScratch::new();
        view.broadcast_into(NodeId::new(0), &mut scratch);
        let mut cov = [SimTime::ZERO; 6];
        scratch.coverage_times_into(&view, &[0.1, 0.3, 0.5, 0.7, 0.9, 1.0], &mut cov);
        let mut last = SimTime::ZERO;
        for t in cov {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// First arrivals never precede the source's direct-link time and the
    /// miner always has its own block at time zero.
    #[test]
    fn arrival_lower_bounds(n in 3usize..60, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let src = NodeId::new(rng.gen_range(0..n as u32));
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut out = GossipScratch::new();
        view.broadcast_into(src, &mut out);
        prop_assert_eq!(out.arrival(src), SimTime::ZERO);
        for i in 0..n as u32 {
            let v = NodeId::new(i);
            if v == src { continue; }
            prop_assert!(out.arrival(v).as_ms() >= lat.delay(src, v).as_ms() - 1e-9);
        }
    }

    /// The frozen CSR snapshot exposes exactly `Topology::neighbors` (same
    /// sets, same ascending order) with exactly the latency model's edge
    /// delays — on arbitrary randomized topologies.
    #[test]
    fn view_matches_topology_neighbors(n in 3usize..80, seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let view = TopologyView::new(&topo, &lat, &pop);
        for i in 0..n as u32 {
            let u = NodeId::new(i);
            let from_view: Vec<NodeId> = view.neighbors(u).collect();
            prop_assert_eq!(&from_view, &topo.neighbors(u), "neighbor mismatch at {}", u);
            let delays = view.neighbor_delays(u);
            prop_assert_eq!(delays.len(), from_view.len());
            for (k, v) in from_view.iter().enumerate() {
                prop_assert_eq!(delays[k], lat.delay(u, *v), "latency mismatch {}–{}", u, v);
            }
        }
    }

    /// Allocation-free floods through a reused scratch are bit-identical
    /// to floods through a fresh one, across many blocks.
    #[test]
    fn reused_scratch_floods_match_fresh_scratch(n in 3usize..60, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = GossipScratch::new();
        for _ in 0..4 {
            let src = NodeId::new(rng.gen_range(0..n as u32));
            view.broadcast_into(src, &mut scratch);
            let mut fresh = GossipScratch::new();
            view.broadcast_into(src, &mut fresh);
            prop_assert_eq!(scratch.arrivals(), fresh.arrivals());
            for i in 0..n as u32 {
                let v = NodeId::new(i);
                prop_assert_eq!(scratch.relay_start(v), fresh.relay_start(v));
            }
        }
    }

    /// `GossipMode::Flood` through the pooled scratch engine is
    /// bit-identical to the analytic `broadcast_into` flood — the
    /// message-level and analytic engines agree exactly, across reused
    /// scratches and arbitrary randomized topologies.
    #[test]
    fn gossip_flood_scratch_matches_broadcast_into(n in 3usize..60, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut flood = GossipScratch::new();
        let mut gossip = GossipScratch::new();
        let cfg = GossipConfig::flood();
        for _ in 0..3 {
            let src = NodeId::new(rng.gen_range(0..n as u32));
            view.broadcast_into(src, &mut flood);
            view.gossip_into(src, &cfg, &mut gossip);
            prop_assert_eq!(flood.arrivals(), gossip.arrivals());
            prop_assert_eq!(flood.relay_starts(), gossip.relay_starts());
            let mut a = [SimTime::ZERO; 2];
            let mut b = [SimTime::ZERO; 2];
            flood.coverage_times_into(&view, &[0.9, 0.5], &mut a);
            gossip.coverage_times_into(&view, &[0.9, 0.5], &mut b);
            prop_assert_eq!(a, b);
        }
    }

    /// The pooled engine and the reference event-queue engine agree in
    /// INV/GETDATA mode, including every node's full delivery log.
    #[test]
    fn gossip_scratch_matches_reference_in_inv_mode(n in 3usize..50, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = GossipScratch::new();
        let cfg = GossipConfig::inv_getdata(0.0);
        let src = NodeId::new(rng.gen_range(0..n as u32));
        view.gossip_into(src, &cfg, &mut scratch);
        let (arrivals, logs) = perigee_oracle::gossip_block(&topo, &lat, &pop, src, &cfg);
        prop_assert_eq!(scratch.arrivals(), arrivals.as_slice());
        let rows = collect_rows(&scratch, &view, None);
        for i in 0..n as u32 {
            let v = NodeId::new(i);
            let log: BTreeMap<NodeId, SimTime> = view
                .neighbors(v)
                .zip(rows[v.index()].iter().copied())
                .filter(|(_, t)| t.is_finite())
                .collect();
            prop_assert_eq!(&log, &logs[v.index()], "delivery log of {}", v);
        }
    }

    /// An *inert* `FaultPlan` — zero rates, no windows, no flaps, no
    /// partitions, no regional brownouts — is bit-identical to running
    /// with no plan at all, through both faulted entry points, in every
    /// gossip mode, including every delivery row.
    #[test]
    fn inert_fault_plan_is_bit_identical_to_no_plan(n in 3usize..60, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let view = TopologyView::new(&topo, &lat, &pop);
        let regions: Vec<Region> = pop.iter().map(|p| p.region).collect();
        let plan = FaultPlan::inert(seed ^ 0xFA17);
        prop_assert!(plan.is_inert());
        let rf = plan.compile((seed % 7) as usize, &view, &regions);

        let mut plain = GossipScratch::new();
        let mut faulted = GossipScratch::new();
        let mut g_plain = GossipScratch::new();
        let mut g_faulted = GossipScratch::new();
        for block in 0..3 {
            let bf = rf.block(block);
            let src = NodeId::new(rng.gen_range(0..n as u32));
            view.broadcast_into(src, &mut plain);
            view.broadcast_into_faulted(src, &mut faulted, Some(&bf));
            prop_assert_eq!(plain.arrivals(), faulted.arrivals());
            for i in 0..n as u32 {
                let v = NodeId::new(i);
                prop_assert_eq!(plain.relay_start(v), faulted.relay_start(v));
            }
            for cfg in [GossipConfig::flood(), GossipConfig::inv_getdata(0.0)] {
                view.gossip_into(src, &cfg, &mut g_plain);
                view.gossip_into_faulted(src, &cfg, &mut g_faulted, Some(&bf));
                prop_assert_eq!(g_plain.arrivals(), g_faulted.arrivals());
                prop_assert_eq!(g_plain.relay_starts(), g_faulted.relay_starts());
                prop_assert_eq!(
                    deliveries(&view, &g_plain),
                    faulted_deliveries(&view, &g_faulted, &bf)
                );
            }
        }
    }

    /// Under *active* faults the analytic flood and the message-level
    /// flood still agree bit for bit: the edge-fate collapse preserves the
    /// one-announcement-per-edge invariant, so the two engines see the
    /// same faulted link crossings.
    #[test]
    fn faulted_analytic_flood_matches_faulted_gossip_flood(n in 3usize..60, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let view = TopologyView::new(&topo, &lat, &pop);
        let regions: Vec<Region> = pop.iter().map(|p| p.region).collect();
        let plan = FaultPlan {
            seed: seed ^ 0xBAD,
            base: LinkFaultRates {
                drop_prob: 0.2,
                extra_delay: SimTime::from_ms(4.0),
                jitter: SimTime::from_ms(15.0),
                duplicate_prob: 0.3,
            },
            flaps: Some(LinkFlaps { fraction: 0.2, period: 4, down: 1 }),
            regional: vec![RegionalWindow {
                region: Region::Europe,
                start: 0,
                end: 100,
                slow_factor: 2.5,
            }],
            ..FaultPlan::default()
        };
        let rf = plan.compile((seed % 5) as usize, &view, &regions);
        let cfg = GossipConfig::flood();
        let mut flood = GossipScratch::new();
        let mut gossip = GossipScratch::new();
        for block in 0..3 {
            let bf = rf.block(block);
            let src = NodeId::new(rng.gen_range(0..n as u32));
            view.broadcast_into_faulted(src, &mut flood, Some(&bf));
            view.gossip_into_faulted(src, &cfg, &mut gossip, Some(&bf));
            prop_assert_eq!(flood.arrivals(), gossip.arrivals());
            prop_assert_eq!(flood.relay_starts(), gossip.relay_starts());
            let mut a = [SimTime::ZERO; 2];
            let mut b = [SimTime::ZERO; 2];
            flood.coverage_times_into(&view, &[0.9, 0.5], &mut a);
            gossip.coverage_times_into(&view, &[0.9, 0.5], &mut b);
            prop_assert_eq!(a, b);
        }
    }

    /// An incrementally patched snapshot is **field-for-field equal** to a
    /// freshly built `TopologyView::new` after arbitrary rewirings —
    /// random drops and refills, including edges removed and re-added in
    /// the same round, applied over several consecutive rounds so patch
    /// errors would compound and surface.
    #[test]
    fn patched_view_matches_fresh_build_after_arbitrary_rewirings(
        n in 4usize..50,
        seed in 0u64..300,
        rounds in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = random_connected_topology(n, &mut rng);
        let mut view = TopologyView::new(&topo, &lat, &pop);
        for _ in 0..rounds {
            let (mut removed, mut added) = (Vec::new(), Vec::new());
            for _ in 0..3 * n {
                let u = NodeId::new(rng.gen_range(0..n as u32));
                let v = NodeId::new(rng.gen_range(0..n as u32));
                if rng.gen_bool(0.6) {
                    if topo.connect(u, v).is_ok() {
                        added.push((u, v));
                    }
                } else {
                    let was = topo.are_connected(u, v);
                    topo.disconnect(u, v);
                    if was && !topo.are_connected(u, v) {
                        removed.push((u, v));
                    }
                }
            }
            view.apply_delta(&RoundDelta::new(removed, added), &lat, &pop);
            prop_assert_eq!(&view, &TopologyView::new(&topo, &lat, &pop));
        }
    }

    /// A world-delta-patched snapshot — joins, departures *and* ordinary
    /// rewiring folded into one round — is **field-for-field equal** to a
    /// freshly built `TopologyView::new` over the post-delta world, across
    /// several consecutive dynamic rounds so patch errors would compound
    /// and surface. Joins spawn fresh stable ids (growing population,
    /// topology and latency model), departures tear a node's edges out
    /// and retire it, and hash power renormalizes each round exactly as
    /// the engine does.
    #[test]
    fn world_delta_patched_view_matches_fresh_build(
        n in 5usize..40,
        seed in 0u64..250,
        rounds in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let mut lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = random_connected_topology(n, &mut rng);
        let mut view = TopologyView::new(&topo, &lat, &pop);
        let mut builder = PopulationBuilder::new(0);
        builder.bandwidth_skew(true);
        for round in 0..rounds {
            let (mut removed, mut added) = (Vec::new(), Vec::new());
            // Whether a node joined or departed this round.
            let mut moved = false;
            // Departures: up to 2 live nodes leave entirely.
            for _ in 0..rng.gen_range(0..3u8) {
                let alive: Vec<NodeId> = pop.ids_alive().collect();
                if alive.len() <= 3 { break; }
                let v = alive[rng.gen_range(0..alive.len())];
                for u in topo.clear_node(v) {
                    removed.push((v, u));
                }
                pop.retire(v);
                moved = true;
            }
            // Joins: up to 2 fresh nodes spawn and bootstrap random edges.
            for _ in 0..rng.gen_range(0..3u8) {
                let mut profile = builder.sample_profile(&mut rng);
                profile.hash_power = pop.mean_alive_hash_power();
                let id = pop.spawn(profile);
                topo.grow_to(pop.len());
                lat.extend_for(&pop);
                let alive: Vec<NodeId> = pop.ids_alive().collect();
                for _ in 0..4 {
                    let u = alive[rng.gen_range(0..alive.len())];
                    if u != id && topo.connect(id, u).is_ok() {
                        added.push((id, u));
                    }
                }
                moved = true;
            }
            // Plus ordinary rewiring among survivors — including edges
            // removed and re-added within the same round.
            for _ in 0..2 * n {
                let a = NodeId::new(rng.gen_range(0..pop.len() as u32));
                let b = NodeId::new(rng.gen_range(0..pop.len() as u32));
                if a == b || !pop.is_alive(a) || !pop.is_alive(b) { continue; }
                if rng.gen_bool(0.6) {
                    if topo.connect(a, b).is_ok() {
                        added.push((a, b));
                    }
                } else {
                    let was = topo.are_connected(a, b);
                    topo.disconnect(a, b);
                    if was && !topo.are_connected(a, b) {
                        removed.push((a, b));
                    }
                }
            }
            if moved {
                pop.renormalize_hash_power();
            }
            view.apply_delta(&RoundDelta::new(removed, added), &lat, &pop);
            prop_assert_eq!(
                &view,
                &TopologyView::new(&topo, &lat, &pop),
                "world-delta patch diverged from a fresh build in round {}", round
            );
        }
    }

    /// Calendar-queue pop order equals the sorted reference for arbitrary
    /// key streams: exact duplicate-time ties, zero, subnormals, exact
    /// bucket-boundary multiples and their neighbouring ulps (rollover
    /// edges), the 2–300 ms latency band, 300+ ms outliers and keys past
    /// the wheel horizon.
    #[test]
    fn calendar_pop_order_equals_sorted_reference(
        entries in proptest::collection::vec((0u8..8, 0.0f64..1.0, 0u32..70_000), 1..400)
    ) {
        let mut q = CalendarQueue::new();
        let mut expect: Vec<u128> = Vec::with_capacity(entries.len());
        for (i, &(class, x, k)) in entries.iter().enumerate() {
            let key = settle_key(edge_case_time(class, x, k), i as u32);
            q.push(key);
            expect.push(key);
        }
        prop_assert_eq!(q.len(), expect.len());
        expect.sort_unstable();
        let mut popped = Vec::with_capacity(expect.len());
        while let Some(k) = q.pop() {
            popped.push(k);
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(popped, expect);
    }

    /// Under monotone interleaving (every push ≥ the last pop — the
    /// Dijkstra/gossip discipline), the calendar agrees with a
    /// `BinaryHeap` oracle pop for pop.
    #[test]
    fn calendar_agrees_with_the_heap_under_monotone_interleaving(
        seeds in proptest::collection::vec((0u8..8, 0.0f64..1.0, 0u32..70_000), 1..60),
        fanout in 1usize..4,
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u32;
        for &(class, x, k) in &seeds {
            let key = settle_key(edge_case_time(class, x, k), seq);
            seq += 1;
            cal.push(key);
            heap.push(Reverse(key));
        }
        let mut deltas = seeds.iter().cycle();
        while let Some(k) = cal.pop() {
            prop_assert_eq!(heap.pop(), Some(Reverse(k)));
            // Schedule follow-ups relative to the popped time, like a
            // relaxation step: delays are non-negative, so the monotone
            // contract holds by construction.
            if seq < 300 {
                let t = key_time(k);
                for _ in 0..fanout {
                    let &(class, x, kk) = deltas.next().unwrap();
                    let key = settle_key(t + edge_case_time(class, x, kk), seq);
                    seq += 1;
                    cal.push(key);
                    heap.push(Reverse(key));
                }
            }
        }
        prop_assert_eq!(heap.pop(), None);
    }

    /// The reuse contract: one calendar queue driven through pushes, pops
    /// and clears — clears after partial drains, pushes into the bucket
    /// being drained (zero and subnormal delays) and keys past the wheel
    /// horizon included — pops exactly what a `BinaryHeap` cleared at the
    /// same steps pops, so a scratch's queue carries nothing from one
    /// message to the next.
    #[test]
    fn reused_calendar_agrees_with_a_heap_cleared_at_the_same_steps(
        ops in proptest::collection::vec((0u8..16, 0u8..8, 0.0f64..1.0, 0u32..70_000), 1..400)
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        // Every push lands at or after the last popped time, the monotone
        // contract; a clear resets it.
        let mut floor = 0.0;
        for (seq, &(op, class, x, k)) in ops.iter().enumerate() {
            match op {
                0..=7 => {
                    let key = settle_key(floor + edge_case_time(class, x, k), seq as u32);
                    cal.push(key);
                    heap.push(Reverse(key));
                }
                8..=13 => {
                    let popped = cal.pop();
                    prop_assert_eq!(popped, heap.pop().map(|Reverse(k)| k));
                    if let Some(k) = popped {
                        floor = key_time(k);
                    }
                }
                _ => {
                    cal.clear();
                    heap.clear();
                    floor = 0.0;
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        loop {
            let popped = cal.pop();
            prop_assert_eq!(popped, heap.pop().map(|Reverse(k)| k));
            if popped.is_none() {
                break;
            }
        }
    }

    /// The gossip engine's packed `u128` words pop in exact insertion-
    /// sequence order within duplicate-time ties — the seed engine's
    /// tie-break the whole determinism story rests on.
    #[test]
    fn calendar_u128_ties_break_by_insertion_sequence(
        entries in proptest::collection::vec((0u8..8, 0.0f64..1.0, 0u32..70_000), 1..300)
    ) {
        let mut q = CalendarQueue::new();
        let mut expect: Vec<u128> = Vec::with_capacity(entries.len());
        for (i, &(class, x, k)) in entries.iter().enumerate() {
            // Coarse grid on the time classes so exact duplicate times are
            // common and the tie-break actually decides.
            let t = match class % 3 {
                0 => edge_case_time(class, x, k),
                1 => f64::from(k % 40) * BUCKET_WIDTH_MS,
                _ => f64::from(k % 8) * 0.125,
            };
            let word = ((t.to_bits() as u128) << 64) | ((i as u128) << 32);
            q.push(word);
            expect.push(word);
        }
        expect.sort_unstable();
        let mut popped = Vec::with_capacity(expect.len());
        while let Some(w) = q.pop() {
            popped.push(w);
        }
        prop_assert_eq!(popped, expect);
    }

    /// Per-neighbor delivery times always upper-bound the first arrival.
    #[test]
    fn delivery_upper_bounds_arrival(n in 3usize..50, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo = random_connected_topology(n, &mut rng);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut out = GossipScratch::new();
        view.broadcast_into(NodeId::new(0), &mut out);
        for i in 0..n as u32 {
            let v = NodeId::new(i);
            for u in topo.neighbors(v) {
                prop_assert!(
                    out.relay_start(u) + lat.delay(u, v) >= out.arrival(v),
                    "neighbor {} delivered to {} before its first arrival", u, v
                );
            }
        }
    }
}
