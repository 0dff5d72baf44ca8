//! Integration tests of the robustness and extension claims, end to end
//! through the public API.

use perigee::core::{PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee::experiments::{adversary, bandwidth, deployment, discovery, Scenario};
use perigee::netsim::{Behavior, ConnectionLimits, GossipConfig, NodeId};
use perigee::topology::{RandomBuilder, TopologyBuilder};
use rand::SeedableRng;

fn ci_scenario() -> Scenario {
    Scenario {
        nodes: 150,
        rounds: 10,
        blocks_per_round: 25,
        seeds: vec![1],
        ..Scenario::paper()
    }
}

/// §1: deviant (non-relaying) nodes lose their incoming connections —
/// relaying promptly is incentive-compatible.
#[test]
fn free_riders_are_starved() {
    let r = adversary::run_free_rider(&ci_scenario(), 11);
    assert!(r.degree_after < r.degree_before / 2);
}

/// §6: an eclipse attacker is evicted once it starts withholding, and the
/// network's delay recovers. A handful of incoming links remain at any
/// instant: they are that round's random exploration picks, and the
/// evicted attacker's freed incoming slots attract them disproportionately
/// (good nodes sit at their caps) — each is dropped again a round later.
#[test]
fn eclipse_attacks_are_evicted() {
    let r = adversary::run_eclipse(&ci_scenario(), 12);
    assert!(
        r.lure_in_degree >= 10,
        "lure in-degree {}",
        r.lure_in_degree
    );
    assert!(
        r.post_attack_in_degree <= r.lure_in_degree / 2,
        "attacker kept {} of {} incoming links",
        r.post_attack_in_degree,
        r.lure_in_degree
    );
    assert!(r.recovered_median90_ms <= r.attack_median90_ms * 1.05);
}

/// §3.2: geo-spoofing degrades location-based selection; Perigee, which
/// never consults locations, outperforms it under the same adversaries.
#[test]
fn spoofing_does_not_fool_perigee() {
    let r = adversary::run_spoofing(&ci_scenario(), 13, 15);
    assert!(r.geographic_spoofed_ms > r.geographic_clean_ms);
    assert!(r.perigee_spoofed_ms < r.geographic_spoofed_ms);
}

/// §6: churn — now a real arrival/departure process, not in-place resets
/// — costs a little but does not break convergence, and every churny
/// round rides the incremental view patch (one build for the whole run).
#[test]
fn churn_is_tolerated() {
    let r = adversary::run_churn(&ci_scenario(), 14, 0.02);
    assert!(r.churn_median90_ms.is_finite());
    assert!(r.churn_median90_ms < r.stable_median90_ms * 1.5);
    assert!(r.joined > 0 && r.departed > 0);
    assert_eq!(r.view_rebuilds, 1);
}

/// §1.2: adopters beat holdouts at partial adoption.
#[test]
fn partial_adoption_rewards_adopters() {
    let r = deployment::run(&ci_scenario(), 15, 0.4);
    assert!(
        r.adopter_advantage() > 0.0,
        "adopters {:.1} vs holdouts {:.1}",
        r.adopter_median90_ms,
        r.holdout_median90_ms
    );
}

/// §6: bounded gossip-refreshed address books barely cost anything.
#[test]
fn partial_knowledge_is_cheap() {
    let r = discovery::run(&ci_scenario(), 16, &[40]);
    assert!(
        r.worst_penalty() < 0.15,
        "penalty {:+.1}%",
        r.worst_penalty() * 100.0
    );
}

/// Message-level rounds under adversarial behaviours — closing the
/// seed-era gap where this suite asserted nothing about gossip-mode
/// rounds: with a silent absorber and a withholding delayer in the
/// population, an INV/GETDATA round still produces coherent statistics
/// and per-node coverage times that are monotone in the coverage
/// fraction.
#[test]
fn gossip_mode_round_is_robust_to_adversarial_relays() {
    let s = ci_scenario();
    let world = perigee::experiments::build_world(&s, 23);
    let mut population = world.population;
    population.profile_mut(NodeId::new(5)).behavior = Behavior::Silent;
    population.profile_mut(NodeId::new(9)).behavior =
        Behavior::Delay(perigee::netsim::SimTime::from_ms(400.0));
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let topo = RandomBuilder::new().build(
        &population,
        &world.latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = 15;
    let mut engine =
        PerigeeEngine::new(population, world.latency, topo, ScoringMethod::Subset, cfg)
            .expect("valid engine");
    engine
        .set_propagation(GossipConfig::inv_getdata(0.0))
        .expect("a valid block config");

    let stats = engine.run_round(&mut rng);
    assert!(stats.mean_lambda90_ms.is_finite() && stats.mean_lambda90_ms > 0.0);
    assert!(
        stats.mean_lambda50_ms <= stats.mean_lambda90_ms,
        "mean λ50 {} cannot exceed mean λ90 {}",
        stats.mean_lambda50_ms,
        stats.mean_lambda90_ms
    );
    engine.topology().assert_invariants();

    // Coverage monotonicity holds per source even with a silent node in
    // the overlay (higher fractions can only take longer, and the tail
    // fraction may legitimately be unreachable — monotonicity still must
    // hold through infinities).
    let fractions = [0.5, 0.9, 0.95];
    let per_fraction: Vec<Vec<f64>> = fractions.iter().map(|&f| engine.evaluate(f)).collect();
    for node in 0..s.nodes {
        for w in per_fraction.windows(2) {
            assert!(
                w[0][node] <= w[1][node],
                "node {node}: coverage time decreased with the fraction"
            );
        }
    }
}

/// §2.1/§3.3: under INV/GETDATA with skewed 3–186 Mbit/s bandwidth,
/// Perigee clearly improves the propagation-dominated regime; once 1 MB
/// transfers dominate, its advantage shrinks toward noise (announcement
/// timestamps do not observe the last-hop transfer bottleneck — a
/// documented limitation, see EXPERIMENTS.md) but never becomes a
/// meaningful regression.
#[test]
fn bandwidth_bottlenecks_are_learned() {
    let mut s = ci_scenario();
    s.nodes = 100;
    s.rounds = 8;
    let r = bandwidth::run(&s, 17, &[0.0, 1.0]);
    assert!(
        r.points[0].improvement() > 0.05,
        "propagation-dominated regime: {:+.1}%",
        r.points[0].improvement() * 100.0
    );
    assert!(
        r.points[1].improvement() > -0.10,
        "transfer-dominated regime regressed: {:+.1}%",
        r.points[1].improvement() * 100.0
    );
}
