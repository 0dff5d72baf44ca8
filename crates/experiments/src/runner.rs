//! The experiment runner: world construction, algorithm execution and
//! multi-seed aggregation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use perigee_core::{
    evaluate_topology, ObservationBackend, PerigeeConfig, PerigeeEngine, ScoringMethod,
};
use perigee_metrics::DelayCurve;
use perigee_netsim::{
    ConnectionLimits, GeoLatencyModel, OverrideLatencyModel, Population, PopulationBuilder,
    SimTime, Topology,
};
use perigee_topology::{
    FullMeshBuilder, GeographicBuilder, GeometricBuilder, KademliaBuilder, RandomBuilder,
    RelayOverlay, TopologyBuilder,
};

use crate::scenario::Scenario;

/// The concrete latency model every experiment runs on: geographic
/// latencies plus optional per-pair overrides (miner cliques, relay trees).
pub type WorldLatency = OverrideLatencyModel<GeoLatencyModel>;

/// The algorithms compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Random connections (§3.1) — Bitcoin's default.
    Random,
    /// Geography-clustered connections (§3.2).
    Geographic,
    /// Kadcast-style structured overlay.
    Kademlia,
    /// Latency-threshold geometric graph (§3.3), degree-matched.
    Geometric,
    /// Fully-connected lower bound ("ideal").
    Ideal,
    /// Perigee with per-neighbor percentile scoring.
    PerigeeVanilla,
    /// Perigee with confidence-bound scoring.
    PerigeeUcb,
    /// Perigee with greedy subset scoring (the paper's best variant).
    PerigeeSubset,
}

impl Algorithm {
    /// The seven algorithms of Fig. 3.
    pub const FIG3: [Algorithm; 7] = [
        Algorithm::Random,
        Algorithm::Geographic,
        Algorithm::Kademlia,
        Algorithm::PerigeeVanilla,
        Algorithm::PerigeeUcb,
        Algorithm::PerigeeSubset,
        Algorithm::Ideal,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Random => "random",
            Algorithm::Geographic => "geographic",
            Algorithm::Kademlia => "kademlia",
            Algorithm::Geometric => "geometric",
            Algorithm::Ideal => "ideal",
            Algorithm::PerigeeVanilla => "perigee-vanilla",
            Algorithm::PerigeeUcb => "perigee-ucb",
            Algorithm::PerigeeSubset => "perigee-subset",
        }
    }

    /// The scoring method, for Perigee variants.
    pub fn scoring(self) -> Option<ScoringMethod> {
        match self {
            Algorithm::PerigeeVanilla => Some(ScoringMethod::Vanilla),
            Algorithm::PerigeeUcb => Some(ScoringMethod::Ucb),
            Algorithm::PerigeeSubset => Some(ScoringMethod::Subset),
            _ => None,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-built simulation world for one seed.
#[derive(Debug, Clone)]
pub struct World {
    /// The node population (hash power, validation delays, regions).
    pub population: Population,
    /// The latency oracle with all scenario overrides applied.
    pub latency: WorldLatency,
    /// Pinned relay edges to install into every topology (empty unless the
    /// scenario has a relay overlay).
    pub relay: Option<RelayOverlay>,
}

/// Builds the world for `scenario` under `seed`.
///
/// # Panics
///
/// Panics if the scenario describes an empty network.
pub fn build_world(scenario: &Scenario, seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut population = PopulationBuilder::new(scenario.nodes)
        .hash_power(scenario.hash_power.clone())
        // §5.1 default: per-node validation with mean 50 ms.
        .validation(if scenario.heterogeneous_validation {
            perigee_netsim::ValidationDist::Exponential(SimTime::from_ms(50.0))
        } else {
            perigee_netsim::ValidationDist::Constant(SimTime::from_ms(50.0))
        })
        .build(&mut rng)
        .expect("scenario network must be non-empty");
    population.scale_validation_delay(scenario.validation_factor);

    let mut latency = OverrideLatencyModel::new(GeoLatencyModel::new(&population, seed));

    if let Some(clique) = scenario.miner_clique {
        let k = ((scenario.nodes as f64 * clique.fraction_of_nodes).round() as usize)
            .clamp(1, scenario.nodes);
        let miners = population.top_miners(k);
        latency.set_clique(&miners, SimTime::from_ms(clique.clique_latency_ms));
    }

    let relay = scenario.relay.map(|spec| {
        RelayOverlay::sample(&population, spec.size.min(scenario.nodes), &mut rng)
            .link_latency(SimTime::from_ms(spec.link_latency_ms))
            .validation_factor(spec.validation_factor)
    });

    World {
        population,
        latency,
        relay,
    }
}

/// The outcome of running one algorithm on one seed.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// The seed.
    pub seed: u64,
    /// λ(coverage) per node, sorted ascending.
    pub curve90: DelayCurve,
    /// λ(50%) per node, sorted ascending.
    pub curve50: DelayCurve,
    /// The final topology (for Fig. 5 edge histograms).
    pub topology: Topology,
    /// The population the run used (validation delays may have been
    /// rescaled by relay installation).
    pub population: Population,
    /// The latency model the run used.
    pub latency: WorldLatency,
    /// Per-round mean λ90 (convergence tracking; empty for static
    /// baselines).
    pub per_round_lambda90: Vec<f64>,
}

/// Runs `algorithm` on the world derived from (`scenario`, `seed`) and
/// evaluates the final topology from every source node.
pub fn run_algorithm(algorithm: Algorithm, scenario: &Scenario, seed: u64) -> RunOutput {
    let World {
        mut population,
        mut latency,
        relay,
    } = build_world(scenario, seed);
    // Independent stream for topology construction / protocol randomness.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let limits = ConnectionLimits::paper_default();

    let mut per_round = Vec::new();
    let (topology, population, latency) = match algorithm.scoring() {
        None => {
            let mut topology = match algorithm {
                Algorithm::Random => {
                    RandomBuilder::new().build(&population, &latency, limits, &mut rng)
                }
                Algorithm::Geographic => {
                    GeographicBuilder::new().build(&population, &latency, limits, &mut rng)
                }
                Algorithm::Kademlia => {
                    KademliaBuilder::new().build(&population, &latency, limits, &mut rng)
                }
                Algorithm::Geometric => GeometricBuilder::with_target_degree(16.0).build(
                    &population,
                    &latency,
                    ConnectionLimits::unlimited(),
                    &mut rng,
                ),
                Algorithm::Ideal => {
                    FullMeshBuilder::new().build(&population, &latency, limits, &mut rng)
                }
                _ => unreachable!("perigee variants have a scoring method"),
            };
            if let Some(overlay) = &relay {
                overlay.install_into(&mut topology, &mut population, &mut latency);
            }
            (topology, population, latency)
        }
        Some(method) => {
            // Perigee always starts from the random topology (§4.1).
            let mut topology = RandomBuilder::new().build(&population, &latency, limits, &mut rng);
            if let Some(overlay) = &relay {
                overlay.install_into(&mut topology, &mut population, &mut latency);
            }
            let mut config = PerigeeConfig::paper_default(method);
            config.blocks_per_round = match method {
                ScoringMethod::Ucb => 1,
                _ => scenario.blocks_per_round,
            };
            if scenario.sketch_observations {
                config.observation_backend = ObservationBackend::Sketch;
            }
            let rounds = match method {
                // UCB sees one block per round: equalize the block budget.
                ScoringMethod::Ucb => scenario.rounds * scenario.blocks_per_round,
                _ => scenario.rounds,
            };
            let mut engine = PerigeeEngine::new(population, latency, topology, method, config)
                .expect("scenario configuration is valid");
            crate::trace::attach(&mut engine, algorithm.name(), seed);
            for _ in 0..rounds {
                let stats = engine.run_round(&mut rng);
                per_round.push(stats.mean_lambda90_ms);
            }
            let topology = engine.topology().clone();
            let population = engine.population().clone();
            let latency = engine.latency().clone();
            (topology, population, latency)
        }
    };

    let mut curves = evaluate_topology(&topology, &latency, &population, &[scenario.coverage, 0.5]);
    let curve50 = DelayCurve::from_values(curves.pop().expect("two fractions"));
    let curve90 = DelayCurve::from_values(curves.pop().expect("one fraction"));

    RunOutput {
        algorithm,
        seed,
        curve90,
        curve50,
        topology,
        population,
        latency,
        per_round_lambda90: per_round,
    }
}

/// Runs `algorithm` across all scenario seeds (in parallel) and returns
/// the per-seed outputs plus the pointwise-mean curve the paper plots.
pub fn run_seeds(algorithm: Algorithm, scenario: &Scenario) -> (Vec<RunOutput>, DelayCurve) {
    let outputs = run_parallel(scenario.seeds.iter().map(|&s| (algorithm, s)), scenario);
    let mean = DelayCurve::pointwise_mean(
        &outputs
            .iter()
            .map(|o| o.curve90.clone())
            .collect::<Vec<_>>(),
    );
    (outputs, mean)
}

/// Runs a set of (algorithm, seed) jobs across the rayon pool, returning
/// outputs in job order. Every cell is an independent deterministic
/// simulation (its own seeded RNG), so the parallel fan-out is observably
/// identical to a sequential loop.
pub fn run_parallel<I>(jobs: I, scenario: &Scenario) -> Vec<RunOutput>
where
    I: IntoIterator<Item = (Algorithm, u64)>,
{
    let jobs: Vec<(Algorithm, u64)> = jobs.into_iter().collect();
    jobs.par_iter()
        .map(|&(algo, seed)| run_algorithm(algo, scenario, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::LatencyModel;

    fn tiny() -> Scenario {
        Scenario {
            nodes: 80,
            rounds: 3,
            blocks_per_round: 10,
            seeds: vec![7],
            ..Scenario::paper()
        }
    }

    #[test]
    fn static_algorithms_produce_full_curves() {
        let s = tiny();
        for algo in [
            Algorithm::Random,
            Algorithm::Geographic,
            Algorithm::Kademlia,
        ] {
            let out = run_algorithm(algo, &s, 7);
            assert_eq!(out.curve90.len(), 80);
            assert!(out.per_round_lambda90.is_empty());
            assert!(out.curve90.median().is_finite(), "{algo} disconnected");
        }
    }

    #[test]
    fn ideal_lower_bounds_random() {
        let s = tiny();
        let ideal = run_algorithm(Algorithm::Ideal, &s, 7);
        let random = run_algorithm(Algorithm::Random, &s, 7);
        assert!(ideal.curve90.median() < random.curve90.median());
    }

    #[test]
    fn perigee_runs_and_tracks_rounds() {
        let s = tiny();
        let out = run_algorithm(Algorithm::PerigeeSubset, &s, 7);
        assert_eq!(out.per_round_lambda90.len(), 3);
        assert_eq!(out.curve90.len(), 80);
        out.topology.assert_invariants();
    }

    #[test]
    fn ucb_round_budget_is_equalized() {
        let s = tiny();
        let out = run_algorithm(Algorithm::PerigeeUcb, &s, 7);
        assert_eq!(out.per_round_lambda90.len(), 3 * 10);
    }

    #[test]
    fn relay_world_pins_tree_edges() {
        let mut s = tiny();
        s = s.with_relay(crate::scenario::RelaySpec {
            size: 10,
            link_latency_ms: 2.0,
            validation_factor: 0.1,
        });
        let out = run_algorithm(Algorithm::Random, &s, 7);
        // 9 tree edges pinned on top of the random edges.
        assert!(out.topology.edge_count() > 9);
        let fast_edges = out
            .topology
            .undirected_edges()
            .into_iter()
            .filter(|&(u, v)| out.latency.delay(u, v) == SimTime::from_ms(2.0))
            .count();
        assert!(fast_edges >= 9, "found {fast_edges} fast edges");
    }

    #[test]
    fn run_parallel_preserves_job_order() {
        let s = tiny();
        let outs = run_parallel(vec![(Algorithm::Random, 1), (Algorithm::Ideal, 2)], &s);
        assert_eq!(outs[0].algorithm, Algorithm::Random);
        assert_eq!(outs[0].seed, 1);
        assert_eq!(outs[1].algorithm, Algorithm::Ideal);
        assert_eq!(outs[1].seed, 2);
    }

    #[test]
    fn deterministic_across_calls() {
        let s = tiny();
        let a = run_algorithm(Algorithm::PerigeeSubset, &s, 3);
        let b = run_algorithm(Algorithm::PerigeeSubset, &s, 3);
        assert_eq!(a.curve90, b.curve90);
    }
}
