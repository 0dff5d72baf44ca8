//! Combined block + transaction-stream rounds: Perigee under load.
//!
//! The paper's evaluation runs ~one block per round over an otherwise
//! silent network; real relay layers carry orders of magnitude more
//! small-message traffic alongside the blocks. This module drives
//! [`PerigeeEngine`] with a [`TrafficConfig`] workload installed — the
//! engine's combined round mode simulates every round's seeded Poisson
//! message stream in batched announcement passes and merges the
//! per-message observation rows behind the block rows — and answers two
//! questions:
//!
//! * [`run_combined`] — what does the steady-state stream cost? Per
//!   round, the per-class mean λ90/λ50 curves (`tx`, `announce`,
//!   `control` under the paper stream) next to the block λ-curve, with
//!   the sketch observation backend keeping the round's memory flat
//!   while thousands of rows land per round.
//! * [`run_ablation`] — does Perigee still *learn* under combined load?
//!   Two arms from the same seed — blocks-only vs blocks + the full
//!   paper stream — compared on the fault-free median λ90 of the
//!   learned overlay, before and after. The traffic rows feed scoring
//!   too, so the combined arm learns from strictly more evidence; the
//!   claim to check is that the extra load never *stops* the λ90 curve
//!   from improving.
//!
//! Traffic origination is a pure hash of `(seed, round, class, node)`,
//! so both experiments are bit-reproducible per seed — the workload
//! consumes no RNG and leaves the block path's random stream untouched.

use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{
    ObservationBackend, PerigeeConfig, PerigeeEngine, ScoringMethod, TrafficRoundStats,
};
use perigee_metrics::{percentile_or_inf, Table};
use perigee_netsim::{ConnectionLimits, TrafficConfig};
use perigee_topology::{RandomBuilder, TopologyBuilder};

use crate::runner::{build_world, WorldLatency};
use crate::scenario::Scenario;

/// Builds a Perigee-Subset engine on the scenario world, sketch-backed
/// (a traffic round records thousands of observation rows; the sketch
/// keeps memory O(edges)), with `traffic` installed when given.
fn traffic_engine(
    scenario: &Scenario,
    seed: u64,
    traffic: Option<TrafficConfig>,
) -> (PerigeeEngine<WorldLatency>, StdRng) {
    let world = build_world(scenario, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7AFF1C);
    let topo = RandomBuilder::new().build(
        &world.population,
        &world.latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    let method = ScoringMethod::Subset;
    let mut config = PerigeeConfig::paper_default(method);
    config.blocks_per_round = scenario.blocks_per_round;
    config.observation_backend = ObservationBackend::Sketch;
    let mut engine = PerigeeEngine::new(world.population, world.latency, topo, method, config)
        .expect("valid scenario");
    if let Some(traffic) = traffic {
        engine.set_traffic(traffic).expect("valid workload");
    }
    crate::trace::attach(&mut engine, "traffic", seed);
    (engine, rng)
}

/// The scenario's workload: the paper stream (10.5 expected messages
/// per node per round — ≥10k per round at 1000 nodes).
fn workload(seed: u64) -> TrafficConfig {
    TrafficConfig::paper_stream(seed ^ 0x7F)
}

/// One round of the combined run: the block λ-curve point next to the
/// round's traffic volume and per-class mean λ90 values.
#[derive(Debug, Clone)]
pub struct CombinedRoundPoint {
    /// Round index.
    pub round: usize,
    /// p90 of the round's per-block λ90 (ms).
    pub block_p90_lambda90_ms: f64,
    /// Messages the traffic stream originated this round.
    pub messages: usize,
    /// Mean λ90 (ms) per traffic class, in config order.
    pub class_lambda90_ms: Vec<f64>,
    /// Mean λ50 (ms) per traffic class, in config order.
    pub class_lambda50_ms: Vec<f64>,
}

/// Outcome of [`run_combined`].
#[derive(Debug, Clone)]
pub struct CombinedTrafficResult {
    /// Traffic class names, in config order (the λ-curve columns).
    pub class_names: Vec<String>,
    /// Per-round points, in round order.
    pub per_round: Vec<CombinedRoundPoint>,
    /// Messages simulated across the whole run.
    pub total_messages: usize,
    /// The largest single-round message count.
    pub peak_round_messages: usize,
    /// Fault-free median λ90 of the learned overlay after the run (ms).
    pub final_median90_ms: f64,
    /// Snapshot rebuilds the engine paid (1 = the initial build only).
    pub view_rebuilds: usize,
}

impl CombinedTrafficResult {
    /// Per-round λ-curves: blocks and every traffic class side by side.
    pub fn table(&self) -> Table {
        let mut header = vec![
            "round".to_string(),
            "block p90 λ90 (ms)".to_string(),
            "messages".to_string(),
        ];
        for name in &self.class_names {
            header.push(format!("{name} mean λ90 (ms)"));
            header.push(format!("{name} mean λ50 (ms)"));
        }
        let mut t = Table::new(header);
        for p in &self.per_round {
            let mut row = vec![
                p.round.to_string(),
                format!("{:.1}", p.block_p90_lambda90_ms),
                p.messages.to_string(),
            ];
            for (l90, l50) in p.class_lambda90_ms.iter().zip(&p.class_lambda50_ms) {
                row.push(format!("{l90:.1}"));
                row.push(format!("{l50:.1}"));
            }
            t.row(row);
        }
        t
    }
}

/// Runs the combined mode for the scenario's round budget and traces
/// the per-class λ-curves alongside the block curve.
pub fn run_combined(scenario: &Scenario, seed: u64) -> CombinedTrafficResult {
    let traffic = workload(seed);
    let class_names: Vec<String> = traffic.classes.iter().map(|c| c.name.clone()).collect();
    let (mut engine, mut rng) = traffic_engine(scenario, seed, Some(traffic));
    let mut per_round = Vec::with_capacity(scenario.rounds);
    let mut total_messages = 0;
    let mut peak_round_messages = 0;
    for round in 0..scenario.rounds {
        let stats = engine.run_round(&mut rng);
        let t: &TrafficRoundStats = engine.last_traffic_stats().expect("workload is installed");
        total_messages += t.messages;
        peak_round_messages = peak_round_messages.max(t.messages);
        per_round.push(CombinedRoundPoint {
            round,
            block_p90_lambda90_ms: stats.p90_lambda90_ms,
            messages: t.messages,
            class_lambda90_ms: t.per_class.iter().map(|c| c.mean_lambda90_ms).collect(),
            class_lambda50_ms: t.per_class.iter().map(|c| c.mean_lambda50_ms).collect(),
        });
    }
    engine.topology().assert_invariants();
    CombinedTrafficResult {
        class_names,
        per_round,
        total_messages,
        peak_round_messages,
        final_median90_ms: percentile_or_inf(&engine.evaluate(0.9), 50.0),
        view_rebuilds: engine.view_rebuilds(),
    }
}

/// One arm of the load ablation.
#[derive(Debug, Clone)]
pub struct AblationArm {
    /// Fault-free median λ90 of the starting (random) overlay (ms).
    pub start_median90_ms: f64,
    /// Fault-free median λ90 of the learned overlay (ms).
    pub final_median90_ms: f64,
    /// Per-round mean block λ90 (ms) — the convergence curve.
    pub per_round_mean90_ms: Vec<f64>,
    /// Messages the arm simulated (0 for the blocks-only arm).
    pub total_messages: usize,
}

impl AblationArm {
    /// Relative improvement of the learned overlay over the random
    /// start: positive means λ90 went down.
    pub fn improvement(&self) -> f64 {
        1.0 - self.final_median90_ms / self.start_median90_ms
    }
}

/// Outcome of [`run_ablation`].
#[derive(Debug, Clone)]
pub struct TrafficAblationResult {
    /// Blocks only — the paper's regime.
    pub blocks_only: AblationArm,
    /// Blocks plus the full paper stream.
    pub combined: AblationArm,
}

impl TrafficAblationResult {
    /// The two convergence curves side by side.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "round".into(),
            "blocks-only mean λ90 (ms)".into(),
            "combined mean λ90 (ms)".into(),
        ]);
        for (i, (a, b)) in self
            .blocks_only
            .per_round_mean90_ms
            .iter()
            .zip(&self.combined.per_round_mean90_ms)
            .enumerate()
        {
            t.row(vec![i.to_string(), format!("{a:.1}"), format!("{b:.1}")]);
        }
        t
    }
}

/// Runs one arm: `rounds` rounds, bracketed by fault-free evaluations
/// of the (alive) overlay.
fn run_arm(scenario: &Scenario, seed: u64, traffic: Option<TrafficConfig>) -> AblationArm {
    let (mut engine, mut rng) = traffic_engine(scenario, seed, traffic);
    let start_median90_ms = percentile_or_inf(&engine.evaluate(0.9), 50.0);
    let mut per_round_mean90_ms = Vec::with_capacity(scenario.rounds);
    let mut total_messages = 0;
    for _ in 0..scenario.rounds {
        let stats = engine.run_round(&mut rng);
        per_round_mean90_ms.push(stats.mean_lambda90_ms);
        if let Some(t) = engine.last_traffic_stats() {
            total_messages += t.messages;
        }
    }
    engine.topology().assert_invariants();
    AblationArm {
        start_median90_ms,
        final_median90_ms: percentile_or_inf(&engine.evaluate(0.9), 50.0),
        per_round_mean90_ms,
        total_messages,
    }
}

/// The load ablation: the same world and seed run blocks-only and
/// combined, so the curves differ only by the installed workload (which
/// consumes no RNG — the block schedule is identical in both arms).
pub fn run_ablation(scenario: &Scenario, seed: u64) -> TrafficAblationResult {
    TrafficAblationResult {
        blocks_only: run_arm(scenario, seed, None),
        combined: run_arm(scenario, seed, Some(workload(seed))),
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
    fn combined_run_traces_every_class_every_round() {
        let s = tiny();
        let r = run_combined(&s, 1);
        assert_eq!(r.per_round.len(), s.rounds);
        assert_eq!(r.class_names, ["tx", "announce", "control"]);
        for p in &r.per_round {
            assert!(p.messages > 0, "the paper stream is dense");
            assert_eq!(p.class_lambda90_ms.len(), 3);
            for (&l90, &l50) in p.class_lambda90_ms.iter().zip(&p.class_lambda50_ms) {
                assert!(l90.is_finite() && l50.is_finite());
                assert!(l50 <= l90);
            }
        }
        assert!(
            r.total_messages >= s.rounds * s.nodes * 8,
            "≈10.5/node/round"
        );
        assert!(r.peak_round_messages <= r.total_messages);
        assert!(r.final_median90_ms.is_finite());
        assert_eq!(r.view_rebuilds, 1, "combined rounds must keep patching");
        assert_eq!(r.table().len(), s.rounds);
    }

    #[test]
    fn combined_run_is_deterministic_per_seed() {
        let s = tiny();
        let a = run_combined(&s, 2);
        let b = run_combined(&s, 2);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.final_median90_ms.to_bits(), b.final_median90_ms.to_bits());
        for (x, y) in a.per_round.iter().zip(&b.per_round) {
            assert_eq!(x.messages, y.messages);
            assert_eq!(x.class_lambda90_ms, y.class_lambda90_ms);
        }
    }

    #[test]
    fn ablation_keeps_learning_under_combined_load() {
        let s = tiny();
        let r = run_ablation(&s, 1);
        assert_eq!(r.blocks_only.total_messages, 0);
        assert!(r.combined.total_messages > 0);
        assert_eq!(
            r.blocks_only.per_round_mean90_ms.len(),
            r.combined.per_round_mean90_ms.len()
        );
        assert!(
            r.combined.improvement() > 0.0,
            "λ90 must still improve under combined load: start {:.1} ms, final {:.1} ms",
            r.combined.start_median90_ms,
            r.combined.final_median90_ms
        );
        assert!(r.blocks_only.improvement() > 0.0);
        assert_eq!(r.table().len(), s.rounds);
    }
}
