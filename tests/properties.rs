//! Cross-crate property-based tests (proptest) on the core invariants.

use proptest::prelude::*;

use perigee::core::{
    ObservationCollector, ObservationStore, ScoringMethod, SelectionStrategy, SubsetScoring,
    VanillaScoring,
};
use perigee::metrics::{percentile, DelayCurve};
use perigee::netsim::{
    BroadcastScratch, ConnectionLimits, GeoLatencyModel, LatencyModel, NodeId, Population,
    PopulationBuilder, Topology, TopologyView,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Floods one block from each of `sources` and collects the round's
/// observations through the engine's recording path.
fn observe(
    topo: &Topology,
    lat: &GeoLatencyModel,
    pop: &Population,
    sources: impl IntoIterator<Item = NodeId>,
) -> ObservationStore {
    let view = TopologyView::new(topo, lat, pop);
    let mut collector = ObservationCollector::from_view(&view);
    let mut scratch = BroadcastScratch::new();
    for src in sources {
        view.broadcast_into(src, &mut scratch);
        collector.record_scratch(&view, &scratch);
    }
    collector.finish()
}

/// Arbitrary connect/disconnect sequences never violate topology limits.
fn topology_ops_strategy() -> impl Strategy<Value = (u8, u8, Vec<(u8, u8, bool)>)> {
    (
        4u8..40, // nodes
        1u8..6,  // dout
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..200),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topology_invariants_under_arbitrary_operations(
        (n, dout, ops) in topology_ops_strategy()
    ) {
        let n = n as usize;
        let mut topo = Topology::new(n, ConnectionLimits::new(dout as usize, Some(4)));
        for (a, b, connect) in ops {
            let u = NodeId::new((a as usize % n) as u32);
            let v = NodeId::new((b as usize % n) as u32);
            if connect {
                let _ = topo.connect(u, v);
            } else {
                let _ = topo.disconnect(u, v);
            }
        }
        topo.assert_invariants();
        // Degrees within bounds.
        for i in 0..n as u32 {
            let u = NodeId::new(i);
            prop_assert!(topo.out_degree(u) <= dout as usize);
            prop_assert!(topo.in_degree(u) <= 4);
        }
        // Edge list is consistent with are_connected.
        for (u, v) in topo.undirected_edges() {
            prop_assert!(topo.are_connected(u, v));
            prop_assert!(topo.are_connected(v, u));
        }
    }

    #[test]
    fn percentile_is_monotone_and_bounded(
        mut values in proptest::collection::vec(0.0f64..1e6, 1..100),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&values, lo).unwrap();
        let b = percentile(&values, hi).unwrap();
        prop_assert!(a <= b, "percentile must be monotone: p{lo}={a} > p{hi}={b}");
        values.sort_by(f64::total_cmp);
        prop_assert!(a >= values[0] && b <= values[values.len() - 1]);
    }

    #[test]
    fn delay_curve_mean_is_between_extremes(
        values in proptest::collection::vec(0.0f64..1e6, 1..50)
    ) {
        let curve = DelayCurve::from_values(values.clone());
        let min = curve.value_at(0);
        let max = curve.value_at(curve.len() - 1);
        prop_assert!(curve.mean() >= min - 1e-9 && curve.mean() <= max + 1e-9);
        prop_assert!(curve.median() >= min && curve.median() <= max);
    }

    #[test]
    fn broadcast_arrivals_respect_triangle_bound(seed in 0u64..500) {
        // First arrivals can never beat the direct link latency.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 40;
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(n, ConnectionLimits::paper_default());
        for i in 0..n as u32 {
            let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % n as u32));
            let _ = topo.connect(
                NodeId::new(i),
                NodeId::new(rng.gen_range(0..n as u32)),
            );
        }
        let src = NodeId::new(rng.gen_range(0..n as u32));
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut prop_result = BroadcastScratch::new();
        view.broadcast_into(src, &mut prop_result);
        for i in 0..n as u32 {
            let v = NodeId::new(i);
            if v == src { continue; }
            prop_assert!(
                prop_result.arrival(v).as_ms() >= lat.delay(src, v).as_ms() - 1e-9,
                "node {v} arrived before the direct-link bound"
            );
        }
    }

    #[test]
    fn subset_group_score_never_exceeds_best_individual(seed in 0u64..200) {
        // Adding neighbors to a group can only help (min over a larger set).
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 30;
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(n, ConnectionLimits::unlimited());
        for i in 1..6u32 {
            topo.connect(NodeId::new(0), NodeId::new(i)).unwrap();
        }
        for i in 6..n as u32 {
            let _ = topo.connect(NodeId::new(i), NodeId::new(i % 6));
        }
        let sources: Vec<NodeId> =
            (0..10).map(|_| NodeId::new(rng.gen_range(0..n as u32))).collect();
        let store = observe(&topo, &lat, &pop, sources);
        let obs = store.node(NodeId::new(0));
        let scorer = SubsetScoring::new(3, 90.0);
        let all: Vec<NodeId> = (1..6).map(NodeId::new).collect();
        let group = scorer.group_score(&obs, &all);
        for &u in &all {
            prop_assert!(group <= scorer.group_score(&obs, &[u]) + 1e-9);
        }
    }

    #[test]
    fn vanilla_retains_exactly_the_best_scored(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 25;
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(n, ConnectionLimits::unlimited());
        let outgoing: Vec<NodeId> = (1..9).map(NodeId::new).collect();
        for &v in &outgoing {
            topo.connect(NodeId::new(0), v).unwrap();
        }
        for i in 9..n as u32 {
            let _ = topo.connect(NodeId::new(i), NodeId::new(1 + (i % 8)));
        }
        let sources: Vec<NodeId> =
            (0..8).map(|_| NodeId::new(rng.gen_range(0..n as u32))).collect();
        let store = observe(&topo, &lat, &pop, sources);
        let obs = store.node(NodeId::new(0));
        let scorer = VanillaScoring::new(4, 90.0);
        let kept = scorer.retain_stateless(NodeId::new(0), &outgoing, obs);
        prop_assert_eq!(kept.len(), 4);
        // Every kept neighbor scores no worse than every dropped one.
        let dropped: Vec<NodeId> =
            outgoing.iter().copied().filter(|u| !kept.contains(u)).collect();
        for &k in &kept {
            for &d in &dropped {
                prop_assert!(
                    scorer.score(&obs, k) <= scorer.score(&obs, d) + 1e-9,
                    "kept {} scored worse than dropped {}", k, d
                );
            }
        }
    }

    #[test]
    fn scoring_strategies_never_invent_neighbors(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 30;
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(n, ConnectionLimits::paper_default());
        for i in 0..n as u32 {
            for _ in 0..4 {
                let _ = topo.connect(NodeId::new(i), NodeId::new(rng.gen_range(0..n as u32)));
            }
        }
        let all_obs = observe(&topo, &lat, &pop, [NodeId::new(0)]);
        for method in ScoringMethod::ALL {
            let strategy = method.strategy(n, 3, 90.0, 50.0);
            for i in 0..n as u32 {
                let v = NodeId::new(i);
                let outgoing = topo.outgoing_vec(v);
                let kept = strategy.retain_stateless(v, &outgoing, all_obs.node(v));
                for u in &kept {
                    prop_assert!(outgoing.contains(u), "{method}: invented neighbor");
                }
                // No duplicates.
                let mut sorted = kept.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), kept.len());
            }
        }
    }
}
