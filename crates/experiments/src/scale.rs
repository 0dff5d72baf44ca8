//! Scale sweeps: how far one box takes a Perigee world.
//!
//! The paper evaluates at 1000 nodes (§5.1); this module measures what
//! the sketch observation backend buys at larger sizes. For each
//! requested node count it runs full engine rounds with sketch-backed
//! observations (blocks fanned out over the rayon pool) and reports
//!
//! * the median per-round wall-clock cost,
//! * the observation store's actual bytes (48 B per directed edge,
//!   independent of blocks-per-round) next to what the dense matrix
//!   would have held (`edges × blocks × 4` B),
//! * the round's median λ90 — a sanity check that the big world still
//!   propagates.
//!
//! [`run_backend_comparison`] is the paired ablation behind the sweep:
//! the same world scored dense and sketch, confirming the protocol
//! conclusion (Perigee improves on its random start) survives the
//! backend swap. The `repro scale` subcommand writes both tables under
//! `artifacts/scale/`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{ObservationBackend, PerigeeConfig, PerigeeEngine, RoundStore, ScoringMethod};
use perigee_metrics::Table;
use perigee_netsim::{ConnectionLimits, MinerSampler, TopologyView};
use perigee_telemetry::PhaseTimer;
use perigee_topology::{RandomBuilder, TopologyBuilder};

use crate::runner::{build_world, WorldLatency};
use crate::scenario::Scenario;

/// One node-count point of the sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// World size.
    pub nodes: usize,
    /// Directed CSR edges of the built topology.
    pub directed_edges: usize,
    /// Median wall-clock seconds of a full engine round.
    pub seconds_per_round: f64,
    /// Bytes actually held by the sketch observation store.
    pub sketch_store_bytes: usize,
    /// Bytes the dense matrix would hold at this blocks-per-round.
    pub dense_store_bytes: usize,
    /// Median per-block λ90 of the last round, in ms.
    pub median_lambda90_ms: f64,
}

impl ScalePoint {
    /// How many times smaller the sketch store is than the dense matrix.
    pub fn dense_over_sketch(&self) -> f64 {
        self.dense_store_bytes as f64 / self.sketch_store_bytes.max(1) as f64
    }
}

/// Outcome of [`run`]: one [`ScalePoint`] per requested size.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Blocks per round every point used.
    pub blocks_per_round: usize,
    /// Rounds each engine ran before the timed round.
    pub rounds: usize,
    /// The sweep, in the order requested.
    pub points: Vec<ScalePoint>,
}

impl ScaleResult {
    /// The sweep as a renderable table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "nodes".into(),
            "edges".into(),
            "s/round".into(),
            "blocks/s".into(),
            "sketch store".into(),
            "dense would be".into(),
            "ratio".into(),
            "median λ90 (ms)".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                p.nodes.to_string(),
                p.directed_edges.to_string(),
                format!("{:.3}", p.seconds_per_round),
                format!("{:.1}", self.blocks_per_round as f64 / p.seconds_per_round),
                format!("{:.1} MiB", p.sketch_store_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1} MiB", p.dense_store_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1}x", p.dense_over_sketch()),
                format!("{:.1}", p.median_lambda90_ms),
            ]);
        }
        t
    }
}

fn scale_engine(
    scenario: &Scenario,
    nodes: usize,
    seed: u64,
    backend: ObservationBackend,
) -> (PerigeeEngine<WorldLatency>, StdRng) {
    let sized = Scenario {
        nodes,
        ..scenario.clone()
    };
    let world = build_world(&sized, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1E);
    let topo = RandomBuilder::new().build(
        &world.population,
        &world.latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    let mut config = PerigeeConfig::paper_default(ScoringMethod::Subset);
    config.blocks_per_round = scenario.blocks_per_round;
    config.observation_backend = backend;
    let mut engine = PerigeeEngine::new(
        world.population,
        world.latency,
        topo,
        ScoringMethod::Subset,
        config,
    )
    .expect("valid scale scenario");
    crate::trace::attach(&mut engine, "scale", seed);
    (engine, rng)
}

/// One extra (untimed) observation pass over the engine's final
/// topology, to inspect the store the rounds were scored from.
fn observe_store(
    engine: &PerigeeEngine<WorldLatency>,
    blocks: usize,
    rng: &mut StdRng,
) -> RoundStore {
    let miners = MinerSampler::new(engine.population()).sample_round(blocks, rng);
    let view = TopologyView::new(engine.topology(), engine.latency(), engine.population());
    engine.observe_round(&view, &miners).observations().clone()
}

/// Runs the sweep: for each size, `scenario.rounds` full sketch-backed
/// rounds (the last one timed and inspected).
pub fn run(scenario: &Scenario, sizes: &[usize]) -> ScaleResult {
    let points = sizes
        .iter()
        .map(|&nodes| {
            let (mut engine, mut rng) = scale_engine(
                scenario,
                nodes,
                scenario.seeds[0],
                ObservationBackend::Sketch,
            );
            let mut last = 0.0;
            // The shared phase timer replaces ad-hoc Instant bookkeeping:
            // each lap is one round, and the entry's exact median is the
            // point statistic.
            let mut timer = PhaseTimer::enabled();
            for _ in 0..scenario.rounds.max(1) {
                let stats = engine.run_round(&mut rng);
                timer.lap("round");
                last = stats.mean_lambda90_ms;
            }
            let seconds_per_round = timer
                .profile()
                .entry("round")
                .map(|e| e.median())
                .unwrap_or(0.0);
            let store = observe_store(&engine, scenario.blocks_per_round, &mut rng);
            let directed_edges = store.directed_edge_count();
            ScalePoint {
                nodes,
                directed_edges,
                seconds_per_round,
                sketch_store_bytes: store.matrix_bytes(),
                dense_store_bytes: directed_edges * scenario.blocks_per_round * 4,
                median_lambda90_ms: last,
            }
        })
        .collect();
    ScaleResult {
        blocks_per_round: scenario.blocks_per_round,
        rounds: scenario.rounds,
        points,
    }
}

/// One leg of the dense-vs-sketch ablation.
#[derive(Debug, Clone)]
pub struct BackendLeg {
    /// Which backend scored the run.
    pub backend: ObservationBackend,
    /// λ90 after the adaptation rounds, in ms.
    pub final_lambda90_ms: f64,
    /// λ90 of the first (random-topology) round, in ms.
    pub initial_lambda90_ms: f64,
    /// Observation-store bytes of the last round.
    pub store_bytes: usize,
}

impl BackendLeg {
    /// Fractional λ90 improvement over the run's own random start.
    pub fn improvement(&self) -> f64 {
        1.0 - self.final_lambda90_ms / self.initial_lambda90_ms
    }
}

/// Outcome of [`run_backend_comparison`].
#[derive(Debug, Clone)]
pub struct BackendComparison {
    /// The dense leg.
    pub dense: BackendLeg,
    /// The sketch leg (same world, same seed).
    pub sketch: BackendLeg,
}

impl BackendComparison {
    /// Renderable two-row table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "backend".into(),
            "initial λ90 (ms)".into(),
            "final λ90 (ms)".into(),
            "improvement".into(),
            "store bytes".into(),
        ]);
        for leg in [&self.dense, &self.sketch] {
            t.row(vec![
                format!("{:?}", leg.backend),
                format!("{:.1}", leg.initial_lambda90_ms),
                format!("{:.1}", leg.final_lambda90_ms),
                format!("{:+.1}%", leg.improvement() * 100.0),
                leg.store_bytes.to_string(),
            ]);
        }
        t
    }

    /// Both backends reached a materially better topology than the
    /// random start — the protocol conclusion is backend-independent.
    pub fn conclusions_agree(&self) -> bool {
        self.dense.improvement() > 0.0 && self.sketch.improvement() > 0.0
    }
}

/// Runs the same world once per backend and compares the outcome.
pub fn run_backend_comparison(scenario: &Scenario, seed: u64) -> BackendComparison {
    let leg = |backend| {
        let (mut engine, mut rng) = scale_engine(scenario, scenario.nodes, seed, backend);
        let mut initial = f64::NAN;
        let mut last = f64::NAN;
        for round in 0..scenario.rounds {
            let stats = engine.run_round(&mut rng);
            if round == 0 {
                initial = stats.mean_lambda90_ms;
            }
            last = stats.mean_lambda90_ms;
        }
        let store = observe_store(&engine, scenario.blocks_per_round, &mut rng);
        BackendLeg {
            backend,
            final_lambda90_ms: last,
            initial_lambda90_ms: initial,
            store_bytes: store.matrix_bytes(),
        }
    };
    BackendComparison {
        dense: leg(ObservationBackend::Dense),
        sketch: leg(ObservationBackend::Sketch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            nodes: 120,
            rounds: 5,
            blocks_per_round: 15,
            seeds: vec![7],
            ..Scenario::paper()
        }
    }

    #[test]
    fn sweep_reports_sublinear_store_and_finite_delays() {
        let r = run(&tiny(), &[80, 160]);
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert!(p.median_lambda90_ms.is_finite() && p.median_lambda90_ms > 0.0);
            assert_eq!(p.sketch_store_bytes, p.directed_edges * 48);
            // 15 blocks x 4 B = 60 B/edge dense vs 48 B/edge sketch.
            assert!(p.dense_store_bytes > p.sketch_store_bytes);
        }
        assert_eq!(r.table().len(), 2);
    }

    #[test]
    fn backend_comparison_conclusions_agree_at_toy_scale() {
        let mut s = tiny();
        s.rounds = 8;
        let c = run_backend_comparison(&s, 7);
        assert!(
            c.conclusions_agree(),
            "dense {:+.3} vs sketch {:+.3}",
            c.dense.improvement(),
            c.sketch.improvement()
        );
        assert!(c.sketch.store_bytes < c.dense.store_bytes);
        assert_eq!(c.table().len(), 2);
    }
}
