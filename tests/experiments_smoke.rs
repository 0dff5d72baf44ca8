//! Tier-1 smoke coverage for the experiment runners that previously ran
//! only inside `examples/`: `fig4` (validation sweep and both special
//! worlds), `convergence`, plus tiny-size `fig3` / `fig5` passes. Each
//! runs at toy scale — the point is that the runner wiring (world
//! construction, parallel seed fan-out, aggregation, tables) cannot
//! regress without failing `cargo test -q`.

use perigee::experiments::{
    convergence, fig3, fig4, fig5, Algorithm, MinerCliqueSpec, RelaySpec, Scenario,
};

fn tiny_scenario() -> Scenario {
    Scenario {
        nodes: 60,
        rounds: 2,
        blocks_per_round: 10,
        seeds: vec![1],
        ..Scenario::paper()
    }
}

#[test]
fn fig3_smoke_runs_all_algorithms() {
    let r = fig3::run(&tiny_scenario());
    assert_eq!(r.results.len(), Algorithm::FIG3.len());
    for res in &r.results {
        let median = res.mean90.median();
        assert!(
            median.is_finite() && median > 0.0,
            "{}: degenerate λ90 median {median}",
            res.algorithm
        );
    }
    // The aggregation table carries one row per algorithm.
    assert_eq!(r.table().len(), Algorithm::FIG3.len());
    // The curve export covers every node of the scenario.
    assert_eq!(fig3::curves_csv(&r).len(), tiny_scenario().nodes);
}

#[test]
fn fig4a_smoke_sweeps_validation_factors() {
    let r = fig4::run_fig4a(&tiny_scenario(), &[0.5, 5.0]);
    assert_eq!(r.points.len(), 2);
    for p in &r.points {
        assert!(p.perigee.median().is_finite() && p.perigee.median() > 0.0);
        assert!(p.random.median().is_finite() && p.random.median() > 0.0);
        assert!(
            p.improvement().is_finite(),
            "factor {}: improvement must be finite",
            p.factor
        );
    }
    assert_eq!(r.table().len(), 2);
}

#[test]
fn fig4b_and_fig4c_smoke_run_special_worlds() {
    let clique = fig4::run_fig4b(&tiny_scenario(), MinerCliqueSpec::default());
    assert!(clique.perigee.median().is_finite());
    assert!(clique.random.median().is_finite());
    assert!(
        clique.ideal.median() <= clique.random.median() * 1.01,
        "the fully-connected bound cannot lose to random"
    );
    assert!(clique.gap_closed().is_finite());

    let relay = fig4::run_fig4c(
        &tiny_scenario(),
        RelaySpec {
            size: 20,
            ..RelaySpec::default()
        },
    );
    assert!(relay.perigee.median().is_finite());
    assert!(relay.ideal.median() <= relay.random.median() * 1.01);
    assert!(!relay.runs.is_empty());
}

#[test]
fn fig5_smoke_builds_edge_histograms() {
    let r = fig5::run(&tiny_scenario());
    for algo in [
        Algorithm::Random,
        Algorithm::Geographic,
        Algorithm::PerigeeSubset,
    ] {
        let h = r.get(algo);
        assert!(
            (0.0..=1.0).contains(&h.low_mode_fraction),
            "{algo}: low-mode fraction {} out of range",
            h.low_mode_fraction
        );
        assert!(h.mean_latency_ms.is_finite() && h.mean_latency_ms > 0.0);
    }
}

#[test]
fn convergence_smoke_tracks_every_round() {
    let scenario = tiny_scenario();
    let r = convergence::run(Algorithm::PerigeeSubset, &scenario, 1);
    // One measurement before round 0 plus one per round.
    assert_eq!(r.median90_by_round.len(), scenario.rounds + 1);
    assert_eq!(r.median50_by_round.len(), scenario.rounds + 1);
    for (m90, m50) in r.median90_by_round.iter().zip(&r.median50_by_round) {
        assert!(m90.is_finite() && m50.is_finite());
        assert!(
            m50 <= m90,
            "λ50 median {m50} cannot exceed λ90 median {m90}"
        );
    }
    assert!(r.total_improvement().is_finite());
    assert_eq!(
        r.table().len(),
        scenario.rounds + 1,
        "one table row per measured round"
    );
}
