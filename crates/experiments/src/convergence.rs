//! Convergence tracking (§5.2's remark).
//!
//! The paper observes that the 90-percentile delays converge as rounds
//! accumulate, while the 50-percentile delays are not monotone — Perigee
//! optimizes only the 90th percentile objective.

use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{evaluate_topology, PerigeeConfig, PerigeeEngine};
use perigee_metrics::{percentile_or_inf, Table};
use perigee_netsim::ConnectionLimits;
use perigee_topology::{RandomBuilder, TopologyBuilder};

use crate::runner::{build_world, Algorithm};
use crate::scenario::Scenario;

/// λ90/λ50 medians measured after each round.
#[derive(Debug, Clone)]
pub struct ConvergenceResult {
    /// Median λ90 after round `i` (index 0 = initial random topology).
    pub median90_by_round: Vec<f64>,
    /// Median λ50 after round `i`.
    pub median50_by_round: Vec<f64>,
    /// Which Perigee variant ran.
    pub algorithm: Algorithm,
}

impl ConvergenceResult {
    /// Total improvement from the initial topology to the final one.
    pub fn total_improvement(&self) -> f64 {
        let first = self.median90_by_round.first().copied().unwrap_or(0.0);
        let last = self.median90_by_round.last().copied().unwrap_or(0.0);
        if first == 0.0 {
            0.0
        } else {
            (first - last) / first
        }
    }

    /// Summary table (one row per round).
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "round".into(),
            "median λ90 (ms)".into(),
            "median λ50 (ms)".into(),
        ]);
        for (i, (a, b)) in self
            .median90_by_round
            .iter()
            .zip(&self.median50_by_round)
            .enumerate()
        {
            t.row(vec![i.to_string(), format!("{a:.1}"), format!("{b:.1}")]);
        }
        t
    }
}

/// Runs one Perigee variant and evaluates the topology after every round.
///
/// # Panics
///
/// Panics if `algorithm` is not a Perigee variant.
pub fn run(algorithm: Algorithm, scenario: &Scenario, seed: u64) -> ConvergenceResult {
    let method = algorithm
        .scoring()
        .expect("convergence tracking applies to Perigee variants");
    let world = build_world(scenario, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let topology = RandomBuilder::new().build(
        &world.population,
        &world.latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    let mut config = PerigeeConfig::paper_default(method);
    config.blocks_per_round = scenario.blocks_per_round;
    let mut engine = PerigeeEngine::new(world.population, world.latency, topology, method, config)
        .expect("valid scenario");
    crate::trace::attach(&mut engine, "convergence", seed);

    let mut median90 = Vec::with_capacity(scenario.rounds + 1);
    let mut median50 = Vec::with_capacity(scenario.rounds + 1);
    let measure = |e: &PerigeeEngine<crate::runner::WorldLatency>| {
        let vals = evaluate_topology(e.topology(), e.latency(), e.population(), &[0.9, 0.5]);
        (
            percentile_or_inf(&vals[0], 50.0),
            percentile_or_inf(&vals[1], 50.0),
        )
    };
    let (m90, m50) = measure(&engine);
    median90.push(m90);
    median50.push(m50);
    for _ in 0..scenario.rounds {
        engine.run_round(&mut rng);
        let (m90, m50) = measure(&engine);
        median90.push(m90);
        median50.push(m50);
    }
    ConvergenceResult {
        median90_by_round: median90,
        median50_by_round: median50,
        algorithm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_converges_downward() {
        let scenario = Scenario {
            nodes: 150,
            rounds: 10,
            blocks_per_round: 25,
            seeds: vec![1],
            ..Scenario::paper()
        };
        let r = run(Algorithm::PerigeeSubset, &scenario, 1);
        assert_eq!(r.median90_by_round.len(), 11);
        assert!(
            r.total_improvement() > 0.0,
            "λ90 should improve, got {:.3}",
            r.total_improvement()
        );
        // Late rounds are better than the start (convergence, allowing
        // small non-monotonic wiggles).
        let first = r.median90_by_round[0];
        let tail_mean: f64 = r.median90_by_round[8..].iter().sum::<f64>() / 3.0;
        assert!(tail_mean < first);
        assert_eq!(r.table().len(), 11);
    }

    #[test]
    #[should_panic(expected = "Perigee variants")]
    fn non_perigee_algorithms_are_rejected() {
        let _ = run(Algorithm::Random, &Scenario::quick(), 1);
    }
}
