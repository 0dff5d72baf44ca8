//! Dynamic-world scenarios: steady-state churn and growing networks.
//!
//! The paper's evaluation (§5) freezes the node set; its robustness
//! discussion (§6) asks what happens when the network itself moves. This
//! module runs Perigee on worlds driven by a
//! [`ChurnProcess`]:
//!
//! * [`run_steady_churn`] — a population that turns over at a fixed
//!   per-round fraction while holding its size, the "Ethna-style"
//!   steady-state regime of real overlay measurements;
//! * [`run_growth`] — a world that grows from `scenario.nodes` to a
//!   target size mid-run while Perigee keeps adapting, tracking the
//!   per-round λ90 curve with the constant-space
//!   [`P2Quantile`] estimator instead of
//!   storing every block's value.
//!
//! Both report the engine's snapshot-rebuild counter: a dynamic run pays
//! exactly **one** view build (the first round) — arrivals, departures
//! and rewirings all ride `TopologyView::apply_world_delta`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee_metrics::{percentile_or_inf, P2Quantile, Table};
use perigee_netsim::{
    ChurnProcess, ConnectionLimits, PopulationBuilder, SessionDist, SimTime, ValidationDist,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};

use crate::runner::{build_world, WorldLatency};
use crate::scenario::Scenario;

/// The arrival-profile builder matching what [`build_world`] gave the
/// incumbents: same region mix, and the scenario's validation setting
/// *including* the `validation_factor` rescale (scaling an exponential
/// sample by `f` is sampling an exponential of mean `50·f` ms). Without
/// this, joiners would be drawn from the default profile distribution and
/// the churn/growth λ-curves would silently compare two different node
/// populations.
pub fn arrival_profile(scenario: &Scenario) -> PopulationBuilder {
    let mean_ms = 50.0 * scenario.validation_factor;
    let mut builder = PopulationBuilder::new(0);
    builder.validation(if scenario.heterogeneous_validation {
        ValidationDist::Exponential(SimTime::from_ms(mean_ms))
    } else {
        ValidationDist::Constant(SimTime::from_ms(mean_ms))
    });
    builder
}

fn dynamic_engine(
    scenario: &Scenario,
    seed: u64,
    method: ScoringMethod,
) -> (PerigeeEngine<WorldLatency>, StdRng) {
    let world = build_world(scenario, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let topo = RandomBuilder::new().build(
        &world.population,
        &world.latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    let mut config = PerigeeConfig::paper_default(method);
    config.blocks_per_round = scenario.blocks_per_round;
    let mut engine = PerigeeEngine::new(world.population, world.latency, topo, method, config)
        .expect("valid scenario");
    crate::trace::attach(&mut engine, "dynamics", seed);
    (engine, rng)
}

/// Outcome of the steady-state churn scenario.
#[derive(Debug, Clone)]
pub struct SteadyChurnResult {
    /// Per-round p90 of per-block λ90 (ms), P²-estimated.
    pub per_round_p90_ms: Vec<f64>,
    /// Median λ90 over live sources after the run.
    pub final_median90_ms: f64,
    /// Live nodes at the end.
    pub final_alive: usize,
    /// Total slots at the end (initial + every arrival; ids never reused).
    pub final_slots: usize,
    /// Arrivals over the run.
    pub joined: usize,
    /// Departures over the run.
    pub departed: usize,
    /// Snapshot rebuilds the engine paid (1 = the initial build only).
    pub view_rebuilds: usize,
}

impl SteadyChurnResult {
    /// Per-round λ90-p90 table for the harness output.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["round".into(), "p90 λ90 (ms)".into()]);
        for (i, v) in self.per_round_p90_ms.iter().enumerate() {
            t.row(vec![i.to_string(), format!("{v:.1}")]);
        }
        t
    }
}

/// Runs Perigee-Subset in a size-stable world where `churn_fraction` of
/// the population turns over every round.
pub fn run_steady_churn(scenario: &Scenario, seed: u64, churn_fraction: f64) -> SteadyChurnResult {
    let (mut engine, mut rng) = dynamic_engine(scenario, seed, ScoringMethod::Subset);
    engine.set_churn(
        ChurnProcess::steady_state(scenario.nodes, churn_fraction, seed ^ 0x51EA)
            .with_arrival_profile(arrival_profile(scenario)),
    );
    let mut per_round_p90_ms = Vec::with_capacity(scenario.rounds);
    let (mut joined, mut departed) = (0, 0);
    for _ in 0..scenario.rounds {
        let stats = engine.run_round(&mut rng);
        per_round_p90_ms.push(stats.p90_lambda90_ms);
        joined += stats.joined;
        departed += stats.departed;
    }
    engine.topology().assert_invariants();
    SteadyChurnResult {
        per_round_p90_ms,
        final_median90_ms: percentile_or_inf(&engine.evaluate_alive(0.9), 50.0),
        final_alive: engine.population().alive_count(),
        final_slots: engine.population().len(),
        joined,
        departed,
        view_rebuilds: engine.view_rebuilds(),
    }
}

/// Outcome of the mid-run growth scenario.
#[derive(Debug, Clone)]
pub struct GrowthResult {
    /// Nodes at the start.
    pub start_nodes: usize,
    /// Target the arrival schedule aims for.
    pub target_nodes: usize,
    /// Live nodes at the end.
    pub final_nodes: usize,
    /// Per-round p90 of per-block λ90 (ms), P²-estimated — the λ-curve
    /// the growth run is judged by.
    pub per_round_p90_ms: Vec<f64>,
    /// P² estimate of the whole run's round-level p90-λ90 median (a
    /// single constant-space summary of the tracked curve).
    pub run_median_p90_ms: f64,
    /// Total arrivals.
    pub joined: usize,
    /// Snapshot rebuilds the engine paid (1 = the initial build only).
    pub view_rebuilds: usize,
}

impl GrowthResult {
    /// `true` when λ90 stayed finite through the whole growth run.
    pub fn lambda_always_finite(&self) -> bool {
        self.per_round_p90_ms.iter().all(|v| v.is_finite())
    }

    /// Growth trajectory table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["round".into(), "p90 λ90 (ms)".into()]);
        for (i, v) in self.per_round_p90_ms.iter().enumerate() {
            t.row(vec![i.to_string(), format!("{v:.1}")]);
        }
        t
    }
}

/// Runs Perigee-Subset while the world grows from `scenario.nodes` to
/// `target_nodes` over the scenario's rounds: a constant Poisson arrival
/// rate of `(target − start) / rounds` per round, infinite sessions
/// (nobody leaves — pure growth), λ90 tracked per round with the P²
/// streaming estimator.
pub fn run_growth(scenario: &Scenario, seed: u64, target_nodes: usize) -> GrowthResult {
    assert!(target_nodes >= scenario.nodes, "growth scenarios only grow");
    let (mut engine, mut rng) = dynamic_engine(scenario, seed, ScoringMethod::Subset);
    let rate = (target_nodes - scenario.nodes) as f64 / scenario.rounds.max(1) as f64;
    engine.set_churn(
        ChurnProcess::poisson(rate, SessionDist::Constant(f64::INFINITY), seed ^ 0x6047)
            .with_arrival_profile(arrival_profile(scenario)),
    );
    let mut per_round_p90_ms = Vec::with_capacity(scenario.rounds);
    let mut run_summary = P2Quantile::new(50.0);
    let mut joined = 0;
    for _ in 0..scenario.rounds {
        let stats = engine.run_round(&mut rng);
        per_round_p90_ms.push(stats.p90_lambda90_ms);
        run_summary.observe(stats.p90_lambda90_ms);
        joined += stats.joined;
    }
    engine.topology().assert_invariants();
    GrowthResult {
        start_nodes: scenario.nodes,
        target_nodes,
        final_nodes: engine.population().alive_count(),
        per_round_p90_ms,
        run_median_p90_ms: run_summary.estimate_or_inf(),
        joined,
        view_rebuilds: engine.view_rebuilds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            nodes: 80,
            rounds: 8,
            blocks_per_round: 15,
            seeds: vec![1],
            ..Scenario::paper()
        }
    }

    #[test]
    fn steady_churn_holds_size_and_never_rebuilds() {
        let r = run_steady_churn(&tiny(), 3, 0.05);
        assert_eq!(r.per_round_p90_ms.len(), 8);
        assert!(r.per_round_p90_ms.iter().all(|v| v.is_finite()));
        assert!(r.final_median90_ms.is_finite());
        assert!(r.joined > 0 && r.departed > 0, "5% churn must fire");
        assert_eq!(r.view_rebuilds, 1, "churn must ride the patch path");
        assert_eq!(
            r.final_slots,
            80 + r.joined,
            "ids grow monotonically, never reused"
        );
        assert_eq!(r.final_alive, 80 + r.joined - r.departed);
        // Steady state: the live population stays in the same ballpark.
        assert!(
            (40..=160).contains(&r.final_alive),
            "drifted to {}",
            r.final_alive
        );
        assert_eq!(r.table().len(), 8);
    }

    #[test]
    fn growth_run_tracks_finite_lambda_throughout() {
        let s = tiny();
        let r = run_growth(&s, 5, 200);
        assert_eq!(r.start_nodes, 80);
        assert!(
            r.final_nodes > 120,
            "the world should roughly double, got {}",
            r.final_nodes
        );
        assert!(
            r.lambda_always_finite(),
            "λ90 diverged: {:?}",
            r.per_round_p90_ms
        );
        assert!(r.run_median_p90_ms.is_finite());
        assert_eq!(r.view_rebuilds, 1, "growth must ride the patch path");
        assert_eq!(r.joined, r.final_nodes - 80);
    }

    #[test]
    fn growth_is_deterministic_per_seed() {
        let s = tiny();
        let a = run_growth(&s, 7, 160);
        let b = run_growth(&s, 7, 160);
        assert_eq!(a.per_round_p90_ms, b.per_round_p90_ms);
        assert_eq!(a.final_nodes, b.final_nodes);
        let c = run_growth(&s, 8, 160);
        assert!(
            a.per_round_p90_ms != c.per_round_p90_ms || a.final_nodes != c.final_nodes,
            "different seeds should differ"
        );
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn shrinking_growth_target_panics() {
        let _ = run_growth(&tiny(), 1, 10);
    }
}
