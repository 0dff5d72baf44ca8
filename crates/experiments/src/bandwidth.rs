//! Bandwidth heterogeneity (§2.1, §3.3): when blocks are large relative to
//! access bandwidth (Croman et al. measured 3–186 Mbit/s across Bitcoin
//! nodes), transfer time dominates and a good neighbor is a *well-provisioned*
//! one, not merely a nearby one.
//!
//! **Reproduction finding.** Perigee's observations are INV *announcement*
//! timestamps (§4.1 footnote: "blocks, or advertisements for blocks").
//! Announcement time reflects the announcer's own (bandwidth-limited)
//! receive time, so Perigee does learn to prefer well-provisioned peers —
//! but it cannot observe the *last-hop* transfer cost of actually fetching
//! from a neighbor. Its advantage therefore shrinks from ~16% in the
//! propagation-dominated regime toward low single digits when 1 MB
//! transfers dominate (the paper's default setting assumes negligible
//! block size, §5.1(3), so this regime is outside its evaluation).

use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee_metrics::{percentile_or_inf, Table};
use perigee_netsim::{
    ConnectionLimits, GeoLatencyModel, GossipConfig, OverrideLatencyModel, PopulationBuilder,
    SimTime, ValidationDist,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};

use crate::scenario::Scenario;

/// Result of one block-size setting.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthPoint {
    /// Block size in megabytes.
    pub block_size_mb: f64,
    /// Median λ90 on the static random topology (ms).
    pub random_median90_ms: f64,
    /// Median λ90 after Perigee-Subset adapts under the same gossip
    /// dynamics (ms).
    pub perigee_median90_ms: f64,
}

impl BandwidthPoint {
    /// Perigee's relative improvement at this block size.
    pub fn improvement(&self) -> f64 {
        if self.random_median90_ms == 0.0 {
            return 0.0;
        }
        (self.random_median90_ms - self.perigee_median90_ms) / self.random_median90_ms
    }
}

/// The block-size sweep result.
#[derive(Debug, Clone)]
pub struct BandwidthResult {
    /// Points in sweep order.
    pub points: Vec<BandwidthPoint>,
}

impl BandwidthResult {
    /// Summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "block size (MB)".into(),
            "random λ90 (ms)".into(),
            "perigee λ90 (ms)".into(),
            "improvement".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                format!("{:.2}", p.block_size_mb),
                format!("{:.1}", p.random_median90_ms),
                format!("{:.1}", p.perigee_median90_ms),
                format!("{:+.1}%", p.improvement() * 100.0),
            ]);
        }
        t
    }
}

/// Runs the sweep: skewed 3–186 Mbit/s access bandwidth, INV/GETDATA
/// gossip, blocks of each given size.
pub fn run(scenario: &Scenario, seed: u64, block_sizes_mb: &[f64]) -> BandwidthResult {
    let points = block_sizes_mb
        .iter()
        .map(|&mb| run_one(scenario, seed, mb))
        .collect();
    BandwidthResult { points }
}

fn run_one(scenario: &Scenario, seed: u64, block_size_mb: f64) -> BandwidthPoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let population = PopulationBuilder::new(scenario.nodes)
        .validation(ValidationDist::Exponential(SimTime::from_ms(50.0)))
        .bandwidth_skew(true)
        .build(&mut rng)
        .expect("non-empty scenario");
    let latency = OverrideLatencyModel::new(GeoLatencyModel::new(&population, seed));
    let topology = RandomBuilder::new().build(
        &population,
        &latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    let mut config = PerigeeConfig::paper_default(ScoringMethod::Subset);
    config.blocks_per_round = scenario.blocks_per_round;
    let mut engine =
        PerigeeEngine::new(population, latency, topology, ScoringMethod::Subset, config)
            .expect("valid scenario");
    engine
        .set_propagation(GossipConfig::inv_getdata(block_size_mb))
        .expect("sweep block sizes are finite and non-negative");

    let random_median90_ms = percentile_or_inf(&engine.evaluate(scenario.coverage), 50.0);
    engine.run_rounds(scenario.rounds, &mut rng);
    let perigee_median90_ms = percentile_or_inf(&engine.evaluate(scenario.coverage), 50.0);

    BandwidthPoint {
        block_size_mb,
        random_median90_ms,
        perigee_median90_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perigee_adapts_to_bandwidth_bottlenecks() {
        let scenario = Scenario {
            nodes: 120,
            rounds: 8,
            blocks_per_round: 20,
            seeds: vec![1],
            ..Scenario::paper()
        };
        let r = run(&scenario, 3, &[0.0, 1.0]);
        assert_eq!(r.points.len(), 2);
        // Large blocks slow everything down...
        assert!(r.points[1].random_median90_ms > r.points[0].random_median90_ms);
        // ...Perigee clearly improves the propagation-dominated regime...
        assert!(
            r.points[0].improvement() > 0.05,
            "no improvement at negligible block size: {:+.1}%",
            r.points[0].improvement() * 100.0
        );
        // ...and does not meaningfully regress when transfers dominate
        // (see the module docs for why the advantage shrinks there).
        assert!(
            r.points[1].improvement() > -0.10,
            "regression at 1 MB: {:+.1}%",
            r.points[1].improvement() * 100.0
        );
        assert_eq!(r.table().len(), 2);
    }
}
