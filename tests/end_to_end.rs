//! End-to-end integration tests: the paper's headline claims, exercised
//! through the public API at reduced (CI-friendly) scale.

use perigee::core::{PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee::experiments::{fig3, fig5, Algorithm, Scenario};
use perigee::netsim::{
    ConnectionLimits, GossipConfig, GossipScratch, LatencyModel, NodeId, TopologyView,
};
use perigee::topology::{RandomBuilder, TopologyBuilder};
use perigee_oracle::{coverage_times, gossip_block};
use rand::SeedableRng;

fn ci_scenario() -> Scenario {
    Scenario {
        nodes: 250,
        rounds: 10,
        blocks_per_round: 40,
        seeds: vec![1, 2],
        ..Scenario::paper()
    }
}

/// Fig. 3(a)'s qualitative shape: the algorithm ordering the paper reports.
#[test]
fn figure3_ordering_holds() {
    let result = fig3::run(&ci_scenario());

    let median = |a: Algorithm| result.get(a).mean90.median();

    // Ideal lower-bounds every deployable topology.
    for r in &result.results {
        assert!(
            median(r.algorithm) >= median(Algorithm::Ideal) - 1e-9,
            "{} beat the fully-connected bound",
            r.algorithm
        );
    }
    // Perigee-Subset is the best deployable algorithm.
    for a in [
        Algorithm::Random,
        Algorithm::Geographic,
        Algorithm::Kademlia,
        Algorithm::PerigeeVanilla,
        Algorithm::PerigeeUcb,
    ] {
        assert!(
            median(Algorithm::PerigeeSubset) <= median(a) * 1.02,
            "subset ({:.1}) should not lose to {} ({:.1})",
            median(Algorithm::PerigeeSubset),
            a,
            median(a)
        );
    }
    // Perigee beats random by a clear margin even at this reduced scale
    // (the paper reports ~33% at 1000 nodes after full convergence).
    let improvement = result.improvement(Algorithm::PerigeeSubset, Algorithm::Random);
    assert!(
        improvement > 0.10,
        "perigee-subset only improved {:.1}% over random",
        improvement * 100.0
    );
    // Geographic helps over random; Kademlia does not beat geographic.
    assert!(median(Algorithm::Geographic) < median(Algorithm::Random));
    assert!(median(Algorithm::Kademlia) >= median(Algorithm::Geographic) * 0.98);
}

/// Fig. 3(b): the exponential-hash-power setting preserves the result.
#[test]
fn figure3b_exponential_hash_power_preserves_the_result() {
    let scenario = ci_scenario().with_exponential_hash_power();
    let result = fig3::run(&scenario);
    let improvement = result.improvement(Algorithm::PerigeeSubset, Algorithm::Random);
    assert!(
        improvement > 0.10,
        "improvement under exponential hash power was {:.1}%",
        improvement * 100.0
    );
}

/// Fig. 5: Perigee's learned topology concentrates edge latency mass at
/// the intra-continent mode.
#[test]
fn figure5_histogram_mass_shifts_low() {
    let r = fig5::run(&ci_scenario());
    let perigee = r.get(Algorithm::PerigeeSubset);
    let random = r.get(Algorithm::Random);
    assert!(
        perigee.low_mode_fraction > random.low_mode_fraction + 0.1,
        "perigee {:.2} vs random {:.2}",
        perigee.low_mode_fraction,
        random.low_mode_fraction
    );
    assert!(perigee.mean_latency_ms < random.mean_latency_ms);
}

/// The analytic (Dijkstra) engine and the seed's message-level event
/// engine agree exactly in flooding mode — on a realistic learned
/// topology, not just toy graphs.
#[test]
fn engines_agree_on_a_learned_topology() {
    let scenario = Scenario {
        nodes: 150,
        rounds: 4,
        blocks_per_round: 20,
        seeds: vec![5],
        ..Scenario::paper()
    };
    let out = perigee::experiments::run_algorithm(Algorithm::PerigeeSubset, &scenario, 5);
    let cfg = GossipConfig::flood();
    let view = TopologyView::new(&out.topology, &out.latency, &out.population);
    let mut fast = GossipScratch::new();
    for src in [0u32, 42, 141] {
        let src = NodeId::new(src);
        view.broadcast_into(src, &mut fast);
        let (slow, _) = gossip_block(&out.topology, &out.latency, &out.population, src, &cfg);
        for i in 0..scenario.nodes as u32 {
            let v = NodeId::new(i);
            assert!(
                (fast.arrival(v).as_ms() - slow[v.index()].as_ms()).abs() < 1e-6,
                "engines disagree at {v}"
            );
        }
    }
}

/// INV/GETDATA semantics: three-leg exchange slows every delivery relative
/// to idealized flooding, but the network still fully propagates.
#[test]
fn inv_getdata_gossip_on_learned_topology() {
    let scenario = Scenario {
        nodes: 120,
        rounds: 3,
        blocks_per_round: 20,
        seeds: vec![6],
        ..Scenario::paper()
    };
    let out = perigee::experiments::run_algorithm(Algorithm::PerigeeSubset, &scenario, 6);
    let src = NodeId::new(7);
    let view = TopologyView::new(&out.topology, &out.latency, &out.population);
    let mut flood = GossipScratch::new();
    view.gossip_into(src, &GossipConfig::flood(), &mut flood);
    let mut inv = GossipScratch::new();
    view.gossip_into(src, &GossipConfig::inv_getdata(0.0), &mut inv);
    for i in 0..scenario.nodes as u32 {
        let v = NodeId::new(i);
        assert!(inv.arrival(v).is_finite());
        assert!(inv.arrival(v) >= flood.arrival(v));
    }
}

/// The learned topology respects all connection limits and stays connected.
#[test]
fn learned_topology_is_well_formed() {
    let scenario = ci_scenario();
    let out = perigee::experiments::run_algorithm(Algorithm::PerigeeSubset, &scenario, 1);
    out.topology.assert_invariants();
    assert!(out.topology.is_connected(), "learned topology fragmented");
    for i in 0..scenario.nodes as u32 {
        let v = NodeId::new(i);
        assert_eq!(out.topology.out_degree(v), 8, "{v} must keep dout=8");
        assert!(out.topology.in_degree(v) <= 20);
    }
}

/// Determinism across identical invocations (seeded end-to-end).
#[test]
fn end_to_end_determinism() {
    let scenario = Scenario {
        nodes: 100,
        rounds: 3,
        blocks_per_round: 15,
        seeds: vec![9],
        ..Scenario::paper()
    };
    let a = perigee::experiments::run_algorithm(Algorithm::PerigeeSubset, &scenario, 9);
    let b = perigee::experiments::run_algorithm(Algorithm::PerigeeSubset, &scenario, 9);
    assert_eq!(a.curve90, b.curve90);
    assert_eq!(a.topology, b.topology);
}

/// A message-level (INV/GETDATA) engine round end to end — closing the
/// seed-era gap where this suite only ever exercised analytic rounds:
/// per-round λ50/λ90 must be coherent, per-node coverage times must be
/// monotone in the coverage fraction, and the engine's evaluation must
/// be bit-identical to the `perigee_oracle` crate's oracles: the seed's
/// event-queue engine and the sort-and-scan coverage time.
#[test]
fn gossip_mode_round_has_monotone_coverage() {
    let world = perigee::experiments::build_world(&ci_scenario(), 21);
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let topo = RandomBuilder::new().build(
        &world.population,
        &world.latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = 20;
    let mut engine = PerigeeEngine::new(
        world.population,
        world.latency,
        topo,
        ScoringMethod::Subset,
        cfg,
    )
    .expect("valid engine");
    let inv = GossipConfig::inv_getdata(0.0);
    engine.set_propagation(inv).expect("a valid block config");

    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let stats = engine.run_round(&mut rng);
    assert!(stats.mean_lambda90_ms.is_finite() && stats.mean_lambda90_ms > 0.0);
    assert!(
        stats.mean_lambda50_ms <= stats.mean_lambda90_ms,
        "mean λ50 {} cannot exceed mean λ90 {}",
        stats.mean_lambda50_ms,
        stats.mean_lambda90_ms
    );
    engine.topology().assert_invariants();

    // Coverage monotonicity under the message-level engine: reaching a
    // larger hash-power fraction can never be faster, for any source. The
    // seed's event-queue engine and the sort-and-scan coverage oracle,
    // run over the learned overlay, reproduce every coverage time the
    // engine's evaluation reports.
    let fractions = [0.25, 0.5, 0.75, 0.9, 1.0];
    let per_fraction: Vec<Vec<f64>> = fractions.iter().map(|&f| engine.evaluate(f)).collect();
    for node in 0..ci_scenario().nodes {
        let (arrivals, _) = gossip_block(
            engine.topology(),
            engine.latency(),
            engine.population(),
            NodeId::new(node as u32),
            &inv,
        );
        let coverage = coverage_times(&arrivals, engine.population(), &fractions);
        for (k, t) in coverage.iter().enumerate() {
            assert_eq!(
                t.as_ms().to_bits(),
                per_fraction[k][node].to_bits(),
                "node {node}: the engine's evaluation diverged from the reference engine"
            );
        }
        for w in per_fraction.windows(2) {
            assert!(
                w[0][node] <= w[1][node],
                "node {node}: coverage time decreased with the fraction"
            );
        }
        assert!(
            per_fraction.last().unwrap()[node].is_finite(),
            "node {node}: the block never covered the network"
        );
    }
}

/// Latency symmetry on the world model (paper footnote 1).
#[test]
fn world_latency_is_symmetric() {
    let world = perigee::experiments::build_world(&ci_scenario(), 3);
    for i in (0..250u32).step_by(17) {
        for j in (1..250u32).step_by(23) {
            let (u, v) = (NodeId::new(i), NodeId::new(j));
            assert_eq!(world.latency.delay(u, v), world.latency.delay(v, u));
        }
    }
}
