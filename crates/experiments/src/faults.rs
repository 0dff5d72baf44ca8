//! Link-level fault scenarios: bursty loss, partitions, brownouts, flaps.
//!
//! The paper's evaluation (§5) runs on a perfectly reliable message
//! layer; its robustness discussion (§6) asks how the protocol behaves
//! when links themselves misbehave. This module drives
//! [`PerigeeEngine`] through a seeded
//! [`FaultPlan`] and measures the two
//! graceful-degradation levers the engine grew for exactly this regime:
//!
//! * **stability gating** — a node whose blocks-seen count deviates from
//!   the round's block budget by more than
//!   [`stability_tolerance`](perigee_core::PerigeeConfig::stability_tolerance)
//!   skips scoring (its observations are corrupted by the outage) but
//!   keeps exploring, so the overlay still mixes while bad evidence is
//!   quarantined;
//! * **peer liveness** — a link silent for
//!   [`EVICT_AFTER`](perigee_core::liveness::EVICT_AFTER) informative
//!   rounds is evicted and the freed slot refills through the address
//!   book under capped exponential backoff (see [`LivenessConfig`]).
//!
//! Four scenarios:
//!
//! * [`run_burst_loss`] — a heavy mid-run loss burst, run twice from the
//!   same seed with gating on (`0.175`) vs off (`∞`). The ablation the
//!   tentpole claim rests on: gated never ends worse, and during gated
//!   rounds the rewiring counter proves exploration kept going;
//! * [`run_partition_heal`] — a timed partition cuts a minority off,
//!   then heals; the overlay must return to within a few percent of its
//!   pre-partition λ90;
//! * [`run_regional_brownout`] — one region's links degrade by a slow
//!   factor for a window, visible as a hump in the per-round λ-curve;
//! * [`run_flap_grid`] — a grid over flapping-link regimes (fraction ×
//!   duty cycle) stressing the liveness evict/backoff path.
//!
//! Every per-round λ90 figure below is measured **through** the faults
//! (that is what nodes actually experience); the pre/post medians use the
//! fault-free [`PerigeeEngine::evaluate`] so they grade the learned
//! overlay itself, not the weather it was learned under.

use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{LivenessConfig, PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee_metrics::{percentile_or_inf, Table};
use perigee_netsim::{
    ConnectionLimits, FaultPlan, FaultWindow, LinkFaultRates, LinkFlaps, PartitionWindow, Region,
    RegionalWindow, SimTime,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};

use crate::runner::{build_world, WorldLatency};
use crate::scenario::Scenario;

/// Builds a Perigee engine on the scenario world with the given scoring
/// method, stability tolerance and liveness setting, and `plan`
/// installed.
fn faulted_engine(
    scenario: &Scenario,
    seed: u64,
    method: ScoringMethod,
    tolerance: f64,
    liveness: LivenessConfig,
    plan: FaultPlan,
) -> (PerigeeEngine<WorldLatency>, StdRng) {
    let world = build_world(scenario, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
    let topo = RandomBuilder::new().build(
        &world.population,
        &world.latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    let mut config = PerigeeConfig::paper_default(method);
    config.blocks_per_round = scenario.blocks_per_round;
    config.stability_tolerance = tolerance;
    config.liveness = liveness;
    let mut engine = PerigeeEngine::new(world.population, world.latency, topo, method, config)
        .expect("valid scenario");
    engine.set_fault_plan(plan).expect("valid fault plan");
    crate::trace::attach(&mut engine, "faults", seed);
    (engine, rng)
}

/// One arm of a faulted run: the per-round trace plus the degradation
/// counters that prove what the engine did while the faults were live.
#[derive(Debug, Clone)]
pub struct FaultRunTrace {
    /// Per-round p90 of per-block λ90 (ms), measured through the faults.
    pub per_round_p90_ms: Vec<f64>,
    /// Per-round stability-gated node counts.
    pub per_round_gated: Vec<usize>,
    /// Rounds in which at least one node was stability-gated.
    pub gated_rounds: usize,
    /// Sum of per-round gated-node counts.
    pub total_gated: usize,
    /// Sum of per-round liveness evictions.
    pub total_evicted: usize,
    /// Connections replaced during rounds that had gated nodes — the
    /// exploration-continues witness: gating skips *scoring*, not mixing.
    pub rewires_during_gated_rounds: usize,
    /// Median fault-free λ90 at the checkpoint round (for the burst
    /// ablation: right after the burst ends, before any recovery rounds
    /// dilute the comparison). Equals `final_median90_ms` when the run
    /// had no checkpoint.
    pub checkpoint_median90_ms: f64,
    /// Median fault-free λ90 over live sources after the run.
    pub final_median90_ms: f64,
    /// Snapshot rebuilds the engine paid (1 = the initial build only).
    pub view_rebuilds: usize,
}

fn run_trace(
    mut engine: PerigeeEngine<WorldLatency>,
    mut rng: StdRng,
    rounds: usize,
    checkpoint: Option<usize>,
) -> FaultRunTrace {
    let mut trace = FaultRunTrace {
        per_round_p90_ms: Vec::with_capacity(rounds),
        per_round_gated: Vec::with_capacity(rounds),
        gated_rounds: 0,
        total_gated: 0,
        total_evicted: 0,
        rewires_during_gated_rounds: 0,
        checkpoint_median90_ms: f64::INFINITY,
        final_median90_ms: f64::INFINITY,
        view_rebuilds: 0,
    };
    for round in 0..rounds {
        if checkpoint == Some(round) {
            trace.checkpoint_median90_ms = percentile_or_inf(&engine.evaluate(0.9), 50.0);
        }
        let stats = engine.run_round(&mut rng);
        trace.per_round_p90_ms.push(stats.p90_lambda90_ms);
        trace.per_round_gated.push(stats.gated);
        if stats.gated > 0 {
            trace.gated_rounds += 1;
            trace.rewires_during_gated_rounds += stats.dropped;
        }
        trace.total_gated += stats.gated;
        trace.total_evicted += stats.evicted;
    }
    engine.topology().assert_invariants();
    trace.final_median90_ms = percentile_or_inf(&engine.evaluate(0.9), 50.0);
    if checkpoint.is_none() {
        trace.checkpoint_median90_ms = trace.final_median90_ms;
    }
    trace.view_rebuilds = engine.view_rebuilds();
    trace
}

/// Outcome of the burst-loss gated-vs-ungated ablation.
#[derive(Debug, Clone)]
pub struct BurstLossResult {
    /// First round of the loss burst.
    pub burst_start: usize,
    /// One past the last round of the loss burst.
    pub burst_end: usize,
    /// The arm with stability gating at the paper default (0.175).
    pub gated: FaultRunTrace,
    /// The arm with gating disabled (`stability_tolerance = ∞`).
    pub ungated: FaultRunTrace,
}

impl BurstLossResult {
    /// Relative advantage of gating measured right after the burst ends
    /// (the checkpoint medians): positive means the gated overlay came
    /// out of the burst with a lower fault-free median λ90.
    pub fn gated_advantage(&self) -> f64 {
        1.0 - self.gated.checkpoint_median90_ms / self.ungated.checkpoint_median90_ms
    }

    /// Relative advantage of gating at the end of the run, after the
    /// post-burst recovery rounds.
    pub fn final_advantage(&self) -> f64 {
        1.0 - self.gated.final_median90_ms / self.ungated.final_median90_ms
    }

    /// Per-round λ-curves for both arms, with the gated arm's
    /// degradation counters alongside.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "round".into(),
            "ungated p90 λ90 (ms)".into(),
            "gated p90 λ90 (ms)".into(),
            "gated nodes".into(),
            "in burst".into(),
        ]);
        for (i, (u, g)) in self
            .ungated
            .per_round_p90_ms
            .iter()
            .zip(&self.gated.per_round_p90_ms)
            .enumerate()
        {
            let in_burst = i >= self.burst_start && i < self.burst_end;
            t.row(vec![
                i.to_string(),
                format!("{u:.1}"),
                format!("{g:.1}"),
                self.gated.per_round_gated[i].to_string(),
                if in_burst { "*".into() } else { String::new() },
            ]);
        }
        t
    }
}

/// The burst-window loss rates: heavy enough that whole blocks go
/// missing at many nodes, which is what trips the stability gate.
fn burst_rates() -> LinkFaultRates {
    LinkFaultRates {
        drop_prob: 0.8,
        extra_delay: SimTime::from_ms(24.0),
        jitter: SimTime::from_ms(48.0),
        duplicate_prob: 0.0,
    }
}

/// Light always-on background faults, so the "calm" rounds are weathered
/// rather than sterile.
fn background_rates() -> LinkFaultRates {
    LinkFaultRates {
        drop_prob: 0.01,
        extra_delay: SimTime::from_ms(1.0),
        jitter: SimTime::from_ms(4.0),
        duplicate_prob: 0.02,
    }
}

/// Runs the mid-run loss burst twice from the same seed — stability
/// gating at the paper default vs disabled — so the two λ-curves and
/// final overlays differ only by the gate.
///
/// The burst is a correlated outage, the shape real incidents take:
/// heavy per-link loss *plus* a transient brownout of `Region::Europe`
/// over the same rounds. The correlation is what makes the ablation
/// sharp — during the burst the network's genuinely fast Europe links
/// look terrible, so score-driven rewiring doesn't merely churn at
/// random, it systematically abandons exactly the neighbors that will
/// be the best ones again the moment the window closes.
///
/// The ablation runs Perigee-UCB: its cross-round
/// [`NodeHistory`](perigee_core::NodeHistory) is exactly the state the gate
/// exists to protect. An ungated UCB absorbs the burst's inverted
/// arrival times into per-neighbor history and walks away from its
/// best links; a gated UCB skips absorption for the affected rounds
/// (its drops stay unbiased exploration) and resumes from clean
/// pre-burst estimates. (Subset scoring is stateless, so for it a
/// blackout round is near-harmless either way — the interesting
/// comparison is the stateful scorer.)
///
/// Both arms run with [`LivenessConfig::disabled`] so they differ by
/// the gate alone — eviction churn would reset per-connection history
/// in both arms and mask the comparison. The evict/backoff path is
/// exercised by the partition, brownout and flap scenarios instead.
/// The gap is sharpest in the paper's short-round UCB regime (few
/// blocks per round; the `repro faults` driver uses 5): the fewer
/// observations a round carries, the longer a wrongly-dropped link
/// takes to re-learn, and so the more the protected history is worth.
pub fn run_burst_loss(scenario: &Scenario, seed: u64) -> BurstLossResult {
    let burst_start = scenario.rounds / 3;
    let burst_end = (burst_start + scenario.rounds / 3).max(burst_start + 1);
    let plan = FaultPlan {
        base: background_rates(),
        windows: vec![FaultWindow {
            start: burst_start,
            end: burst_end,
            rates: burst_rates(),
        }],
        regional: vec![RegionalWindow {
            region: Region::Europe,
            start: burst_start,
            end: burst_end,
            slow_factor: 20.0,
        }],
        ..FaultPlan::inert(seed ^ 0xB0057)
    };
    let (engine, rng) = faulted_engine(
        scenario,
        seed,
        ScoringMethod::Ucb,
        0.175,
        LivenessConfig::disabled(),
        plan.clone(),
    );
    let gated = run_trace(engine, rng, scenario.rounds, Some(burst_end));
    let (engine, rng) = faulted_engine(
        scenario,
        seed,
        ScoringMethod::Ucb,
        f64::INFINITY,
        LivenessConfig::disabled(),
        plan,
    );
    let ungated = run_trace(engine, rng, scenario.rounds, Some(burst_end));
    BurstLossResult {
        burst_start,
        burst_end,
        gated,
        ungated,
    }
}

/// Outcome of the partition-and-heal scenario.
#[derive(Debug, Clone)]
pub struct PartitionHealResult {
    /// Round the partition starts.
    pub start: usize,
    /// Round the partition heals.
    pub heal: usize,
    /// Fraction of nodes cut off on the minority side.
    pub fraction: f64,
    /// Per-round p90 of per-block λ90 (ms), measured through the faults.
    pub per_round_p90_ms: Vec<f64>,
    /// Fault-free median λ90 just before the partition starts.
    pub pre_partition_median90_ms: f64,
    /// Fault-free median λ90 at the end of the run, after healing.
    pub recovered_median90_ms: f64,
    /// Sum of per-round gated-node counts.
    pub total_gated: usize,
    /// Sum of per-round liveness evictions.
    pub total_evicted: usize,
    /// Snapshot rebuilds the engine paid (1 = the initial build only).
    pub view_rebuilds: usize,
}

impl PartitionHealResult {
    /// Relative gap between the recovered and pre-partition medians:
    /// 0.10 means the healed overlay is 10% slower than before the cut.
    pub fn recovery_gap(&self) -> f64 {
        self.recovered_median90_ms / self.pre_partition_median90_ms - 1.0
    }

    /// Per-round λ-curve annotated with the partition phase.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["round".into(), "p90 λ90 (ms)".into(), "phase".into()]);
        for (i, v) in self.per_round_p90_ms.iter().enumerate() {
            let phase = if i < self.start {
                "before"
            } else if i < self.heal {
                "partitioned"
            } else {
                "healed"
            };
            t.row(vec![i.to_string(), format!("{v:.1}"), phase.into()]);
        }
        t
    }
}

/// Cuts `fraction` of nodes off for the middle third of the run, then
/// heals and measures how close the overlay gets back to its
/// pre-partition quality.
pub fn run_partition_heal(scenario: &Scenario, seed: u64, fraction: f64) -> PartitionHealResult {
    let start = scenario.rounds / 3;
    let heal = (2 * scenario.rounds / 3).max(start + 1);
    let plan = FaultPlan {
        partitions: vec![PartitionWindow {
            start,
            heal,
            fraction,
        }],
        ..FaultPlan::inert(seed ^ 0x9A47)
    };
    let (mut engine, mut rng) = faulted_engine(
        scenario,
        seed,
        ScoringMethod::Subset,
        0.175,
        LivenessConfig::aggressive(),
        plan,
    );
    let mut per_round_p90_ms = Vec::with_capacity(scenario.rounds);
    let (mut total_gated, mut total_evicted) = (0, 0);
    let mut pre_partition_median90_ms = f64::INFINITY;
    for round in 0..scenario.rounds {
        if round == start {
            pre_partition_median90_ms = percentile_or_inf(&engine.evaluate(0.9), 50.0);
        }
        let stats = engine.run_round(&mut rng);
        per_round_p90_ms.push(stats.p90_lambda90_ms);
        total_gated += stats.gated;
        total_evicted += stats.evicted;
    }
    engine.topology().assert_invariants();
    let recovered_median90_ms = percentile_or_inf(&engine.evaluate(0.9), 50.0);
    PartitionHealResult {
        start,
        heal,
        fraction,
        per_round_p90_ms,
        pre_partition_median90_ms,
        recovered_median90_ms,
        total_gated,
        total_evicted,
        view_rebuilds: engine.view_rebuilds(),
    }
}

/// Outcome of the regional-brownout scenario.
#[derive(Debug, Clone)]
pub struct BrownoutResult {
    /// The degraded region.
    pub region: Region,
    /// Latency multiplier applied to the region's links in the window.
    pub slow_factor: f64,
    /// First round of the brownout window.
    pub start: usize,
    /// One past the last round of the brownout window.
    pub end: usize,
    /// Per-round p90 of per-block λ90 (ms), measured through the faults.
    pub per_round_p90_ms: Vec<f64>,
    /// Mean per-round p90 λ90 inside the window.
    pub mean_inside_ms: f64,
    /// Mean per-round p90 λ90 outside the window.
    pub mean_outside_ms: f64,
    /// Fault-free median λ90 at the end of the run.
    pub final_median90_ms: f64,
    /// Sum of per-round gated-node counts.
    pub total_gated: usize,
}

impl BrownoutResult {
    /// Per-round λ-curve with the window marked.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "round".into(),
            "p90 λ90 (ms)".into(),
            "brownout".into(),
        ]);
        for (i, v) in self.per_round_p90_ms.iter().enumerate() {
            let inside = i >= self.start && i < self.end;
            t.row(vec![
                i.to_string(),
                format!("{v:.1}"),
                if inside { "*".into() } else { String::new() },
            ]);
        }
        t
    }
}

/// Degrades every link touching `Region::Europe` by `slow_factor` for
/// the middle third of the run.
pub fn run_regional_brownout(scenario: &Scenario, seed: u64, slow_factor: f64) -> BrownoutResult {
    let start = scenario.rounds / 3;
    let end = (2 * scenario.rounds / 3).max(start + 1);
    let region = Region::Europe;
    let plan = FaultPlan {
        regional: vec![RegionalWindow {
            region,
            start,
            end,
            slow_factor,
        }],
        ..FaultPlan::inert(seed ^ 0xB70)
    };
    let (mut engine, mut rng) = faulted_engine(
        scenario,
        seed,
        ScoringMethod::Subset,
        0.175,
        LivenessConfig::aggressive(),
        plan,
    );
    let mut per_round_p90_ms = Vec::with_capacity(scenario.rounds);
    let mut total_gated = 0;
    for _ in 0..scenario.rounds {
        let stats = engine.run_round(&mut rng);
        per_round_p90_ms.push(stats.p90_lambda90_ms);
        total_gated += stats.gated;
    }
    engine.topology().assert_invariants();
    let mean = |rounds: &[f64]| rounds.iter().sum::<f64>() / rounds.len().max(1) as f64;
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    for (i, &v) in per_round_p90_ms.iter().enumerate() {
        if i >= start && i < end {
            inside.push(v);
        } else {
            outside.push(v);
        }
    }
    BrownoutResult {
        region,
        slow_factor,
        start,
        end,
        mean_inside_ms: mean(&inside),
        mean_outside_ms: mean(&outside),
        final_median90_ms: percentile_or_inf(&engine.evaluate(0.9), 50.0),
        total_gated,
        per_round_p90_ms,
    }
}

/// One cell of the flapping-links grid.
#[derive(Debug, Clone)]
pub struct FlapCell {
    /// Fraction of links that flap.
    pub fraction: f64,
    /// Flap cycle length in rounds.
    pub period: usize,
    /// Down-rounds per cycle.
    pub down: usize,
    /// Mean per-round p90 λ90 (ms) across the run, through the faults.
    pub mean_p90_ms: f64,
    /// Fault-free median λ90 at the end of the run.
    pub final_median90_ms: f64,
    /// Liveness evictions over the run.
    pub total_evicted: usize,
    /// Gated-node count summed over the run.
    pub total_gated: usize,
}

/// Outcome of the flapping-links grid.
#[derive(Debug, Clone)]
pub struct FlapGridResult {
    /// One row per (fraction, period, down) combination, in sweep order.
    pub cells: Vec<FlapCell>,
}

impl FlapGridResult {
    /// The grid as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "flap fraction".into(),
            "period".into(),
            "down".into(),
            "mean p90 λ90 (ms)".into(),
            "final median λ90 (ms)".into(),
            "evicted".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                format!("{:.0}%", c.fraction * 100.0),
                c.period.to_string(),
                c.down.to_string(),
                format!("{:.1}", c.mean_p90_ms),
                format!("{:.1}", c.final_median90_ms),
                c.total_evicted.to_string(),
            ]);
        }
        t
    }
}

/// Sweeps flapping-link regimes: for each `fraction` and each
/// `(period, down)` duty cycle, the chosen links go dark for `down`
/// consecutive rounds out of every `period`.
pub fn run_flap_grid(
    scenario: &Scenario,
    seed: u64,
    fractions: &[f64],
    cycles: &[(usize, usize)],
) -> FlapGridResult {
    let mut cells = Vec::with_capacity(fractions.len() * cycles.len());
    for &fraction in fractions {
        for &(period, down) in cycles {
            let plan = FaultPlan {
                flaps: Some(LinkFlaps {
                    fraction,
                    period,
                    down,
                }),
                ..FaultPlan::inert(seed ^ 0xF1A9)
            };
            let (engine, rng) = faulted_engine(
                scenario,
                seed,
                ScoringMethod::Subset,
                0.175,
                LivenessConfig::aggressive(),
                plan,
            );
            let trace = run_trace(engine, rng, scenario.rounds, None);
            let mean_p90_ms = trace.per_round_p90_ms.iter().sum::<f64>()
                / trace.per_round_p90_ms.len().max(1) as f64;
            cells.push(FlapCell {
                fraction,
                period,
                down,
                mean_p90_ms,
                final_median90_ms: trace.final_median90_ms,
                total_evicted: trace.total_evicted,
                total_gated: trace.total_gated,
            });
        }
    }
    FlapGridResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            nodes: 80,
            rounds: 12,
            blocks_per_round: 15,
            seeds: vec![1],
            ..Scenario::paper()
        }
    }

    #[test]
    fn burst_loss_gates_only_the_gated_arm_and_keeps_exploring() {
        let s = tiny();
        let r = run_burst_loss(&s, 1);
        assert_eq!(r.gated.per_round_p90_ms.len(), s.rounds);
        assert_eq!(r.ungated.per_round_p90_ms.len(), s.rounds);
        assert!(r.gated.total_gated > 0, "burst must trip the gate");
        assert_eq!(
            r.ungated.total_gated, 0,
            "infinite tolerance must never gate"
        );
        assert!(
            r.gated.rewires_during_gated_rounds > 0,
            "exploration must continue through gated rounds"
        );
        assert!(r.gated.final_median90_ms.is_finite());
        assert!(r.ungated.final_median90_ms.is_finite());
        assert_eq!(r.gated.view_rebuilds, 1);
        assert_eq!(r.table().len(), s.rounds);
    }

    #[test]
    fn burst_loss_is_deterministic_per_seed() {
        let s = tiny();
        let a = run_burst_loss(&s, 1);
        let b = run_burst_loss(&s, 1);
        assert_eq!(a.gated.per_round_p90_ms, b.gated.per_round_p90_ms);
        assert_eq!(a.ungated.per_round_p90_ms, b.ungated.per_round_p90_ms);
        assert_eq!(
            a.gated.final_median90_ms.to_bits(),
            b.gated.final_median90_ms.to_bits()
        );
    }

    #[test]
    fn partition_heal_recovers_a_finite_overlay() {
        let s = tiny();
        let r = run_partition_heal(&s, 1, 0.3);
        assert_eq!(r.per_round_p90_ms.len(), s.rounds);
        assert!(r.pre_partition_median90_ms.is_finite());
        assert!(r.recovered_median90_ms.is_finite());
        assert!(
            r.total_gated > 0,
            "a 30% cut must gate the minority side somewhere"
        );
        assert_eq!(r.view_rebuilds, 1);
        assert_eq!(r.table().len(), s.rounds);
    }

    #[test]
    fn brownout_is_visible_inside_the_window() {
        let s = tiny();
        let r = run_regional_brownout(&s, 1, 6.0);
        assert_eq!(r.per_round_p90_ms.len(), s.rounds);
        assert!(
            r.mean_inside_ms > r.mean_outside_ms,
            "a 6x regional slowdown must show up in the λ-curve \
             (inside {:.1} ms vs outside {:.1} ms)",
            r.mean_inside_ms,
            r.mean_outside_ms
        );
        assert!(r.final_median90_ms.is_finite());
    }

    #[test]
    fn flap_grid_covers_every_cell() {
        let s = tiny();
        let r = run_flap_grid(&s, 1, &[0.1, 0.3], &[(4, 1), (4, 2)]);
        assert_eq!(r.cells.len(), 4);
        for c in &r.cells {
            assert!(c.final_median90_ms.is_finite());
            assert!(c.mean_p90_ms.is_finite());
        }
        assert_eq!(r.table().len(), 4);
    }
}
