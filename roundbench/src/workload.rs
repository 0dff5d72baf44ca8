//! The four canonical worlds, built through the engine crates' public
//! API from a seed.
//!
//! Each workload fixes its world, its rayon pool size and its sampling
//! plan. The number of timed samples is derived from `--seconds` and a
//! nominal per-sample cost measured on a 2-vCPU host — never from the
//! clock during the run — so every run of one seed simulates exactly the
//! same rounds, and a faster program finishes sooner instead of running
//! further into a differently priced part of the trajectory.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{
    LivenessConfig, ObservationBackend, PerigeeConfig, PerigeeEngine, ScoringMethod,
};
use perigee_netsim::{
    ChurnProcess, ConnectionLimits, FaultPlan, GeoLatencyModel, LinkFaultRates, LinkFlaps,
    PopulationBuilder, SimTime, TrafficConfig,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};

/// The engine type every workload runs.
pub type Engine = PerigeeEngine<GeoLatencyModel>;

/// One canonical world and how the benchmark samples it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Initial node count.
    pub nodes: usize,
    /// Rayon pool size — part of the world, not an option.
    pub threads: usize,
    /// Scoring method every node runs.
    pub method: ScoringMethod,
    /// Blocks mined per round.
    pub blocks: usize,
    /// Observation store backend.
    pub backend: ObservationBackend,
    /// Install `TrafficConfig::paper_stream`.
    pub traffic: bool,
    /// Install the fault plan, steady-state churn, aggressive liveness,
    /// the per-round auditor and periodic compaction.
    pub hostile: bool,
    /// Untimed rounds before the window.
    pub warmup_rounds: usize,
    /// Rounds per timed sample (`hostile_1k`: one compaction epoch).
    pub rounds_per_sample: usize,
    /// Nominal wall seconds of one sample on the reference host; the run
    /// takes `ceil(seconds / nominal_sample_s)` samples.
    pub nominal_sample_s: f64,
    /// Fewest timed samples a run takes, whatever `--seconds` says.
    pub min_samples: usize,
    /// Most timed samples a traced run takes: its untraced and traced
    /// passes plus the replay must fit the run's time limit.
    pub max_traced_samples: usize,
    /// Report round times at the reference host speed (see
    /// [`crate::speed`]); construction times always are, by the
    /// construction twin. On for the cache-resident worlds, which the
    /// compute reference tracks; off for the memory-bound ones, which swing
    /// with memory contention the reference does not see, so scaling would
    /// add noise.
    pub scale_to_reference: bool,
    /// Throwaway constructions timed for `setup_s`, spread over the timed
    /// window so the median sees the same host conditions as the rounds
    /// do. The engine's own construction, the first and only cold one, is
    /// not among them.
    pub setup_reps: usize,
}

/// Churn turnover of `hostile_1k`: the fraction of nodes replaced per round.
const CHURN_PER_ROUND: f64 = 0.02;

/// `hostile_1k` compacts the free-list after every this many rounds.
pub const COMPACT_EVERY: usize = 10;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    // §5.1's world, as the fig3/4/5 sweeps run it (one engine per pool
    // worker): dense observations, scoring dominates.
    Workload {
        name: "blocks_1k",
        nodes: 1000,
        threads: 1,
        method: ScoringMethod::Subset,
        blocks: 100,
        backend: ObservationBackend::Dense,
        traffic: false,
        hostile: false,
        warmup_rounds: 3,
        rounds_per_sample: 1,
        nominal_sample_s: 0.11,
        min_samples: 20,
        max_traced_samples: 40,
        scale_to_reference: true,
        setup_reps: 21,
    },
    // The traffic item: ~10k batch-gossiped messages a round folded into
    // sketches; the store is written ~10k rows a round.
    Workload {
        name: "stream_1k",
        nodes: 1000,
        threads: 2,
        method: ScoringMethod::Subset,
        blocks: 100,
        backend: ObservationBackend::Sketch,
        traffic: true,
        hostile: false,
        warmup_rounds: 1,
        rounds_per_sample: 1,
        nominal_sample_s: 9.0,
        min_samples: 2,
        max_traced_samples: 1,
        scale_to_reference: false,
        setup_reps: 21,
    },
    // 1.6M directed edges: the working set is far past the caches, so
    // flood, record and fold are memory-bound.
    Workload {
        name: "blocks_100k",
        nodes: 100_000,
        threads: 2,
        method: ScoringMethod::Subset,
        blocks: 100,
        backend: ObservationBackend::Sketch,
        traffic: false,
        hostile: false,
        warmup_rounds: 1,
        rounds_per_sample: 1,
        nominal_sample_s: 8.0,
        min_samples: 2,
        max_traced_samples: 1,
        scale_to_reference: false,
        setup_reps: 9,
    },
    // The only world on the faulted flood, stateful UCB, churn patching,
    // liveness, audit and compaction; 5-block rounds make per-round fixed
    // costs dominate. The warm-up lets UCB histories fill.
    Workload {
        name: "hostile_1k",
        nodes: 1000,
        threads: 1,
        method: ScoringMethod::Ucb,
        blocks: 5,
        backend: ObservationBackend::Dense,
        traffic: false,
        hostile: true,
        warmup_rounds: 100,
        rounds_per_sample: COMPACT_EVERY,
        nominal_sample_s: 0.22,
        min_samples: 20,
        max_traced_samples: 20,
        scale_to_reference: true,
        setup_reps: 21,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same shape shrunk to a few hundred nodes and a handful of
    /// rounds, for the smoke test.
    pub fn tiny(self) -> Workload {
        Workload {
            nodes: 200,
            blocks: self.blocks.min(20),
            warmup_rounds: self.warmup_rounds.min(2),
            nominal_sample_s: f64::INFINITY,
            min_samples: 2,
            max_traced_samples: 2,
            setup_reps: 3,
            ..self
        }
    }

    /// Timed samples a run of `seconds` takes.
    pub fn samples(&self, seconds: f64, traced: bool) -> usize {
        let wanted = ((seconds / self.nominal_sample_s).ceil() as usize).max(self.min_samples);
        if traced {
            wanted.min(self.max_traced_samples)
        } else {
            wanted
        }
    }
}

/// Wall seconds of each construction step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `PopulationBuilder::build`.
    pub population_s: f64,
    /// `GeoLatencyModel::new`.
    pub latency_s: f64,
    /// `RandomBuilder::build`.
    pub topology_s: f64,
    /// `PerigeeEngine::new` plus the traffic/fault/churn installs.
    pub engine_s: f64,
}

impl SetupTimes {
    /// Seed to engine ready for round 0.
    pub fn total_s(&self) -> f64 {
        self.population_s + self.latency_s + self.topology_s + self.engine_s
    }
}

/// The fault plan of `hostile_1k`: weathered links everywhere (drop,
/// delay, jitter, duplication) plus a flapping population.
fn hostile_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        base: LinkFaultRates {
            drop_prob: 0.01,
            extra_delay: SimTime::from_ms(1.0),
            jitter: SimTime::from_ms(4.0),
            duplicate_prob: 0.02,
        },
        flaps: Some(LinkFlaps {
            fraction: 0.05,
            period: 8,
            down: 2,
        }),
        ..FaultPlan::inert(seed ^ 0xFA17)
    }
}

/// Builds the workload's world from `seed` and returns the engine ready
/// for round 0, its run RNG, and the time each step took.
pub fn build(w: &Workload, seed: u64) -> (Engine, StdRng, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut rng = StdRng::seed_from_u64(seed);

    let t = Instant::now();
    let population = PopulationBuilder::new(w.nodes)
        .build(&mut rng)
        .expect("a non-empty population");
    times.population_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let latency = GeoLatencyModel::new(&population, seed);
    times.latency_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let topology = RandomBuilder::new().build(
        &population,
        &latency,
        ConnectionLimits::paper_default(),
        &mut rng,
    );
    times.topology_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut config = PerigeeConfig::paper_default(w.method);
    config.blocks_per_round = w.blocks;
    config.observation_backend = w.backend;
    if w.hostile {
        config.liveness = LivenessConfig::aggressive();
    }
    let mut engine = PerigeeEngine::new(population, latency, topology, w.method, config)
        .expect("a valid workload config");
    if w.traffic {
        engine
            .set_traffic(TrafficConfig::paper_stream(seed ^ 0x7AFF))
            .expect("a valid traffic workload");
    }
    if w.hostile {
        engine
            .set_fault_plan(hostile_plan(seed))
            .expect("a valid fault plan");
        engine.set_churn(ChurnProcess::steady_state(
            w.nodes,
            CHURN_PER_ROUND,
            seed ^ 0xC4A2,
        ));
        engine.set_audit_every(1);
    }
    times.engine_s = t.elapsed().as_secs_f64();
    (engine, rng, times)
}
