//! The parallel round engine must be *bit-identical* to the sequential
//! path — a one-thread rayon pool: same RoundStats floats, same learned
//! topology, same observation rows — and its propagation phase must
//! reproduce the reference pipeline exactly: the seed's event-queue
//! gossip engine, eq. 2 over its delivery logs and λ(f) over its
//! arrivals, all three by their definitions in `perigee-oracle`.

use std::collections::BTreeMap;

use perigee_core::{
    ObservationCollector, ObservationStore, PerigeeConfig, PerigeeEngine, ScoringMethod,
};
use perigee_metrics::P2Quantile;
use perigee_netsim::{
    Behavior, BlockFaults, ConnectionLimits, FaultPlan, GeoLatencyModel, GossipConfig,
    GossipScratch, LinkFaultRates, MinerSampler, NodeId, PopulationBuilder, Region, SimTime,
    TopologyView,
};
use perigee_oracle::{collect_rows, coverage_times, gossip_block, normalize_row, normalized_rows};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine(n: usize, blocks: usize, seed: u64) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    engine_with(n, blocks, seed, ScoringMethod::Subset)
}

/// A fresh snapshot of `engine`'s current world.
fn view_of(engine: &PerigeeEngine<GeoLatencyModel>) -> TopologyView {
    TopologyView::new(engine.topology(), engine.latency(), engine.population())
}

/// The test-side reference recorder for a faulted run: every node's
/// faulted delivery row normalized by its own minimum (eq. 2), two
/// passes, as `f32` bits. The production recorder fuses that minimum
/// with the first arrival on analytic messages; this reference never
/// does.
fn two_pass_rows(view: &TopologyView, scratch: &GossipScratch, faults: &BlockFaults) -> Vec<u32> {
    collect_rows(scratch, view, Some(faults))
        .into_iter()
        .flat_map(normalize_row)
        .map(f32::to_bits)
        .collect()
}

/// Eq. 2 over the seed engine's delivery logs, in CSR order, as `f32`
/// bits: the oracle's rows of one block.
fn oracle_rows(view: &TopologyView, logs: &[BTreeMap<NodeId, SimTime>]) -> Vec<u32> {
    normalized_rows(view, logs)
        .concat()
        .into_iter()
        .map(f32::to_bits)
        .collect()
}

/// Block `block`'s rows of a dense store, in CSR order, as `f32` bits.
fn store_rows(store: &ObservationStore, block: usize) -> Vec<u32> {
    (0..store.len() as u32)
        .flat_map(|v| store.node(NodeId::new(v)).row(block).to_vec())
        .map(f32::to_bits)
        .collect()
}

/// Runs `f` inside a dedicated rayon pool of `threads` workers.
fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

fn engine_with(
    n: usize,
    blocks: usize,
    seed: u64,
    method: ScoringMethod,
) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(method);
    cfg.blocks_per_round = blocks;
    let engine = PerigeeEngine::new(pop, lat, topo, method, cfg).unwrap();
    (engine, rng)
}

/// An 8-thread pool vs a one-thread pool: every per-round statistic is
/// the same IEEE-754 value, and the learned topologies match edge for
/// edge.
#[test]
fn parallel_rounds_are_bit_identical_to_sequential() {
    let (mut par, mut rng_par) = engine(150, 30, 42);
    let (mut seq, mut rng_seq) = engine(150, 30, 42);
    for _ in 0..4 {
        let a = in_pool(8, || par.run_round(&mut rng_par));
        let b = in_pool(1, || seq.run_round(&mut rng_seq));
        assert_eq!(a, b, "RoundStats must match bit for bit");
    }
    assert_eq!(par.topology(), seq.topology());
    assert_eq!(
        par.evaluate(0.9),
        seq.evaluate(0.9),
        "static evaluation must not depend on the thread count"
    );
}

/// The same holds for the propagation phase alone, against the default
/// pool.
#[test]
fn pinned_thread_pool_matches_default_pool() {
    let (engine_a, mut rng) = engine(120, 25, 7);
    let miners = MinerSampler::new(engine_a.population()).sample_round(25, &mut rng);
    let view = view_of(&engine_a);
    let wide = engine_a.observe_round(&view, &miners);
    let narrow = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| engine_a.observe_round(&view, &miners));
    assert_eq!(wide.lambda90_ms(), narrow.lambda90_ms());
    assert_eq!(wide.lambda50_ms(), narrow.lambda50_ms());
    assert_eq!(wide.observations(), narrow.observations());
}

/// The engine's propagation phase under its default block config —
/// carried view, parallel fan-out, `record_scratch`, production
/// coverage — reproduces the reference sequential pipeline — the seed
/// engine's flood of each block, eq. 2 over its delivery logs, λ(f) on
/// its arrivals — bit for bit.
#[test]
fn observe_round_matches_legacy_pipeline() {
    let (engine_a, mut rng) = engine(130, 20, 11);
    let miners = MinerSampler::new(engine_a.population()).sample_round(20, &mut rng);

    let view = view_of(&engine_a);
    let round = engine_a.observe_round(&view, &miners);
    let store = round.observations().as_dense().unwrap();
    assert_eq!(store.block_count(), miners.len());

    let mut legacy90 = Vec::new();
    let mut legacy50 = Vec::new();
    for (block, &miner) in miners.iter().enumerate() {
        let (arrivals, logs) = gossip_block(
            engine_a.topology(),
            engine_a.latency(),
            engine_a.population(),
            miner,
            &GossipConfig::flood(),
        );
        let coverage = coverage_times(&arrivals, engine_a.population(), &[0.9, 0.5]);
        legacy90.push(coverage[0].as_ms());
        legacy50.push(coverage[1].as_ms());
        assert_eq!(
            store_rows(store, block),
            oracle_rows(&view, &logs),
            "block {block}: observation rows"
        );
    }

    assert_eq!(round.lambda90_ms(), legacy90.as_slice());
    assert_eq!(round.lambda50_ms(), legacy50.as_slice());
}

/// Gossip-mode rounds go through the same chunked fan-out; they too must
/// not depend on the thread count.
#[test]
fn gossip_mode_is_thread_count_independent() {
    let (mut par, mut rng_par) = engine(80, 12, 23);
    let (mut seq, mut rng_seq) = engine(80, 12, 23);
    par.set_propagation(GossipConfig::inv_getdata(0.0)).unwrap();
    seq.set_propagation(GossipConfig::inv_getdata(0.0)).unwrap();
    for _ in 0..3 {
        let a = in_pool(8, || par.run_round(&mut rng_par));
        let b = in_pool(1, || seq.run_round(&mut rng_seq));
        assert_eq!(a, b);
    }
    assert_eq!(par.topology(), seq.topology());
}

/// `observe_round` under every kind of block config reproduces the
/// legacy sequential gossip pipeline — the seed's event-queue engine
/// `gossip_block()`, eq. 2 over its BTreeMap delivery logs, λ(f) on its
/// arrivals — bit for bit: flooding (which the engine runs on the
/// analytic kernel), INV/GETDATA, and bandwidth-limited transfers.
#[test]
fn gossip_observe_round_matches_legacy_gossip_pipeline() {
    for cfg in [
        GossipConfig::flood(),
        GossipConfig::inv_getdata(0.0),
        GossipConfig::inv_getdata(1.0),
    ] {
        let (mut engine_a, mut rng) = engine(100, 15, 19);
        engine_a.set_propagation(cfg).unwrap();
        let miners = MinerSampler::new(engine_a.population()).sample_round(15, &mut rng);

        let view = view_of(&engine_a);
        let round = engine_a.observe_round(&view, &miners);
        let store = round.observations().as_dense().unwrap();
        assert_eq!(store.block_count(), miners.len());

        let mut legacy90 = Vec::new();
        let mut legacy50 = Vec::new();
        for (block, &miner) in miners.iter().enumerate() {
            let (arrivals, logs) = gossip_block(
                engine_a.topology(),
                engine_a.latency(),
                engine_a.population(),
                miner,
                &cfg,
            );
            let coverage = coverage_times(&arrivals, engine_a.population(), &[0.9, 0.5]);
            legacy90.push(coverage[0].as_ms());
            legacy50.push(coverage[1].as_ms());
            assert_eq!(
                store_rows(store, block),
                oracle_rows(&view, &logs),
                "{cfg:?} block {block}: observation rows"
            );
        }

        assert_eq!(round.lambda90_ms(), legacy90.as_slice());
        assert_eq!(round.lambda50_ms(), legacy50.as_slice());
    }
}

/// Flood-mode gossip is bit-identical to the analytic flood, which the
/// engine runs for its default config: the two kernels — the Dijkstra
/// (`broadcast_into_faulted`) and the message-level kernel
/// (`gossip_into_faulted`) — compute the exact same arrival and relay
/// floats and coverage times, block by block, under an active fault plan
/// and with silent and delaying relays in the overlay. The analytic
/// block's rows, which `record_scratch_faulted` normalizes fused against
/// each first arrival, equal the message-level block's faulted delivery
/// rows normalized two-pass by their own minima. So the engine's own
/// rounds carry the message-level λs RoundStats for RoundStats, and its
/// decisions read the same rows, round after round of a learning
/// trajectory.
#[test]
fn flood_gossip_rounds_are_bit_identical_to_analytic_rounds() {
    const BLOCKS: usize = 20;
    let (mut engine, mut rng) = engine(120, BLOCKS, 37);
    let pop = engine.population_mut();
    pop.profile_mut(NodeId::new(4)).behavior = Behavior::Silent;
    pop.profile_mut(NodeId::new(9)).behavior = Behavior::Delay(SimTime::from_ms(250.0));
    let plan = FaultPlan {
        base: LinkFaultRates {
            drop_prob: 0.08,
            extra_delay: SimTime::from_ms(3.0),
            jitter: SimTime::from_ms(15.0),
            duplicate_prob: 0.1,
        },
        ..FaultPlan::inert(0xF100D)
    };
    engine.set_fault_plan(plan.clone()).unwrap();
    let flood = GossipConfig::flood();
    assert_eq!(engine.propagation(), flood, "flooding is the default");
    assert!(flood.is_analytic(), "so rounds run the analytic kernel");

    let mut base_block = 0;
    for round in 0..3 {
        let view = view_of(&engine);
        let regions: Vec<Region> = engine.population().iter().map(|p| p.region).collect();
        let faults = plan.compile(round, &view, &regions);
        assert!(!faults.is_inert(), "the plan must bite in round {round}");
        // The engine's own miner draw: the same sampler on the same RNG.
        let miners = MinerSampler::new(engine.population()).sample_round(BLOCKS, &mut rng.clone());
        let (mut analytic, mut gossip) = (GossipScratch::new(), GossipScratch::new());
        let mut lambda90 = Vec::new();
        let mut lambda50 = Vec::new();
        for (i, &miner) in miners.iter().enumerate() {
            let bf = faults.block(base_block + i);
            view.broadcast_into_faulted(miner, &mut analytic, Some(&bf));
            view.gossip_into_faulted(miner, &flood, &mut gossip, Some(&bf));
            assert_eq!(
                analytic.arrivals(),
                gossip.arrivals(),
                "round {round} block {i}: arrivals"
            );
            assert_eq!(
                analytic.relay_starts(),
                gossip.relay_starts(),
                "round {round} block {i}: relay starts"
            );
            let mut via_analytic = [SimTime::ZERO; 2];
            let mut via_gossip = [SimTime::ZERO; 2];
            analytic.coverage_times_into(&view, &[0.9, 0.5], &mut via_analytic);
            gossip.coverage_times_into(&view, &[0.9, 0.5], &mut via_gossip);
            assert_eq!(
                via_analytic, via_gossip,
                "round {round} block {i}: coverage"
            );
            let mut rows = ObservationCollector::from_view(&view);
            rows.record_scratch_faulted(&view, &analytic, &bf);
            assert_eq!(
                store_rows(&rows.finish(), 0),
                two_pass_rows(&view, &gossip, &bf),
                "round {round} block {i}: observation rows"
            );
            lambda90.push(via_gossip[0].as_ms());
            lambda50.push(via_gossip[1].as_ms());
        }
        base_block += BLOCKS;

        let stats = engine.run_round(&mut rng);
        let mut p90 = P2Quantile::new(90.0);
        for &l in &lambda90 {
            p90.observe(l);
        }
        assert_eq!(
            (
                stats.mean_lambda90_ms,
                stats.mean_lambda50_ms,
                stats.p90_lambda90_ms
            ),
            (
                lambda90.iter().sum::<f64>() / BLOCKS as f64,
                lambda50.iter().sum::<f64>() / BLOCKS as f64,
                p90.estimate_or_inf()
            ),
            "round {round}: RoundStats must match bit for bit across engines"
        );
    }
    engine.topology().assert_invariants();
}

/// Gossip-mode static evaluation is thread-count independent too.
#[test]
fn gossip_evaluation_is_thread_count_independent() {
    let (mut engine_a, _) = engine(90, 5, 41);
    engine_a
        .set_propagation(GossipConfig::inv_getdata(0.5))
        .unwrap();
    let wide = engine_a.evaluate(0.9);
    let narrow = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| engine_a.evaluate(0.9));
    assert_eq!(wide, narrow);
}

/// Observation rows from the view path match the legacy collector on the
/// exact same flood, node by node and neighbor by neighbor.
#[test]
fn per_neighbor_rows_match_legacy_exactly() {
    let (engine_a, _) = engine(90, 5, 31);
    let miners: Vec<NodeId> = (0..5).map(|i| NodeId::new(i * 13)).collect();
    let round = engine_a.observe_round(&view_of(&engine_a), &miners);
    for i in 0..90u32 {
        let v = NodeId::new(i);
        let obs = round.observations().node(v);
        let neighbors: Vec<NodeId> = obs.neighbors().collect();
        assert_eq!(neighbors, engine_a.topology().neighbors(v));
        assert_eq!(obs.block_count(), 5);
    }
}

/// A *churny* 50-round run — arrivals, departures and growth driven by a
/// seeded `ChurnProcess` — is bit-identical across thread counts (1, 2
/// and 8 pinned rayon pools): same RoundStats floats (including the
/// streaming p90 estimate and the join/depart counts), same learned
/// topology, same grown population, and every run patches its snapshot
/// incrementally (exactly one view build for the whole 50 rounds — the
/// dynamics acceptance gate).
#[test]
fn churny_rounds_are_thread_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::ChurnProcess;

    let run = |threads: Option<usize>| {
        let (mut e, mut rng) = engine(80, 8, 61);
        e.set_churn(ChurnProcess::steady_state(80, 0.04, 99));
        let rounds = |e: &mut PerigeeEngine<GeoLatencyModel>,
                      rng: &mut StdRng|
         -> Vec<RoundStats> { (0..50).map(|_| e.run_round(rng)).collect() };
        let stats = match threads {
            None => rounds(&mut e, &mut rng),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(|| rounds(&mut e, &mut rng)),
        };
        assert_eq!(
            e.view_rebuilds(),
            1,
            "a churny run must never rebuild its view"
        );
        e.assert_view_consistency();
        (stats, e.topology().clone(), e.population().clone())
    };

    let (ref_stats, ref_topo, ref_pop) = run(None);
    assert!(
        ref_stats.iter().any(|s| s.joined > 0) && ref_stats.iter().any(|s| s.departed > 0),
        "the process must actually churn for this test to mean anything"
    );
    for threads in [Some(1), Some(2), Some(8)] {
        let (stats, topo, pop) = run(threads);
        assert_eq!(
            stats, ref_stats,
            "RoundStats diverged at {threads:?} threads"
        );
        assert_eq!(topo, ref_topo, "topology diverged at {threads:?} threads");
        assert_eq!(pop, ref_pop, "population diverged at {threads:?} threads");
    }
}

/// The fault layer keeps every determinism guarantee: a 50-round run
/// under an *active* `FaultPlan` — burst loss, flapping links, a timed
/// partition — with churn, stability gating and liveness eviction all
/// firing, is bit-identical across thread counts (1, 2 and 8 pinned
/// rayon pools). Fault decisions are pure hashes of `(seed, round,
/// global block, edge)` and the degradation machinery consumes RNG in a
/// fixed sequential order, so nothing about the schedule can depend on
/// the execution interleaving.
#[test]
fn fault_injected_rounds_are_thread_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::{
        ChurnProcess, FaultPlan, FaultWindow, LinkFaultRates, LinkFlaps, PartitionWindow,
    };

    let plan = FaultPlan {
        seed: 0xFA17,
        base: LinkFaultRates {
            drop_prob: 0.03,
            extra_delay: SimTime::from_ms(2.0),
            jitter: SimTime::from_ms(10.0),
            duplicate_prob: 0.05,
        },
        windows: vec![FaultWindow {
            start: 8,
            end: 16,
            rates: LinkFaultRates {
                drop_prob: 0.6,
                extra_delay: SimTime::from_ms(20.0),
                jitter: SimTime::from_ms(40.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.1,
            period: 6,
            down: 2,
        }),
        partitions: vec![PartitionWindow {
            start: 22,
            heal: 34,
            fraction: 0.3,
        }],
        regional: Vec::new(),
    };

    let run = |threads: Option<usize>| {
        // Hand-built engine: liveness on, so silence counters, eviction
        // and backoff state also prove themselves execution-order
        // independent.
        let mut rng = StdRng::seed_from_u64(67);
        let pop = PopulationBuilder::new(80).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 67);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
        cfg.blocks_per_round = 8;
        cfg.liveness = perigee_core::LivenessConfig::aggressive();
        let mut e = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
        e.set_churn(ChurnProcess::steady_state(80, 0.03, 107));
        e.set_fault_plan(plan.clone()).unwrap();
        let stats = {
            let rounds =
                |e: &mut PerigeeEngine<GeoLatencyModel>, rng: &mut StdRng| -> Vec<RoundStats> {
                    (0..50).map(|_| e.run_round(rng)).collect()
                };
            match threads {
                None => rounds(&mut e, &mut rng),
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
                    .install(|| rounds(&mut e, &mut rng)),
            }
        };
        assert_eq!(e.view_rebuilds(), 1, "faulted rounds must still patch");
        e.assert_view_consistency();
        (stats, e.topology().clone(), e.population().clone())
    };

    let (ref_stats, ref_topo, ref_pop) = run(None);
    assert!(
        ref_stats.iter().any(|s| s.gated > 0),
        "the burst window must trip stability gating for this test to bite"
    );
    assert!(
        ref_stats.iter().any(|s| s.joined > 0) && ref_stats.iter().any(|s| s.departed > 0),
        "churn must fire under faults too"
    );
    for threads in [Some(1), Some(2), Some(8)] {
        let (stats, topo, pop) = run(threads);
        assert_eq!(
            stats, ref_stats,
            "faulted RoundStats diverged at {threads:?} threads"
        );
        assert_eq!(topo, ref_topo, "topology diverged at {threads:?} threads");
        assert_eq!(pop, ref_pop, "population diverged at {threads:?} threads");
    }
}

/// Fault-injected *gossip* rounds (message-level INV/GETDATA) are
/// likewise thread-count independent.
#[test]
fn fault_injected_gossip_rounds_are_thread_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::{FaultPlan, LinkFaultRates};

    let plan = FaultPlan {
        base: LinkFaultRates {
            drop_prob: 0.15,
            extra_delay: SimTime::from_ms(5.0),
            jitter: SimTime::from_ms(25.0),
            duplicate_prob: 0.2,
        },
        ..FaultPlan::inert(0xBEEF)
    };
    let run = |threads: Option<usize>| {
        let (mut e, mut rng) = engine(70, 10, 71);
        e.set_propagation(GossipConfig::inv_getdata(0.0)).unwrap();
        e.set_fault_plan(plan.clone()).unwrap();
        let rounds: Vec<RoundStats> = match threads {
            None => (0..12).map(|_| e.run_round(&mut rng)).collect(),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(|| (0..12).map(|_| e.run_round(&mut rng)).collect()),
        };
        (rounds, e.topology().clone())
    };
    let (ref_stats, ref_topo) = run(None);
    for threads in [Some(1), Some(8)] {
        let (stats, topo) = run(threads);
        assert_eq!(stats, ref_stats, "diverged at {threads:?} threads");
        assert_eq!(topo, ref_topo);
    }
}

/// A full UCB run — the method that writes its per-node histories, each
/// worker mutating only its own chunk of them — is bit-identical on an
/// 8-thread pool and a one-thread pool: same RoundStats floats, same
/// per-connection history evolution (observable through the learned
/// topology), round after round.
/// An inert `FaultPlan` is no plan at all, for every scoring method: a
/// 12-round world under aggressive liveness, 3% steady-state churn and
/// an audit every round yields the same RoundStats floats, learned
/// topology and population with `FaultPlan::inert` installed as without
/// a plan, and the auditor stays clean in both.
#[test]
fn inert_fault_plan_is_bit_identical_to_no_plan() {
    use perigee_core::LivenessConfig;
    use perigee_netsim::ChurnProcess;

    for method in ScoringMethod::ALL {
        let run = |plan: Option<FaultPlan>| {
            let mut rng = StdRng::seed_from_u64(71);
            let pop = PopulationBuilder::new(120).build(&mut rng).unwrap();
            let lat = GeoLatencyModel::new(&pop, 71);
            let topo =
                RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
            let mut cfg = PerigeeConfig::paper_default(method);
            cfg.blocks_per_round = 5;
            cfg.liveness = LivenessConfig::aggressive();
            let mut e = PerigeeEngine::new(pop, lat, topo, method, cfg).unwrap();
            e.set_churn(ChurnProcess::steady_state(120, 0.03, 72));
            if let Some(plan) = plan {
                e.set_fault_plan(plan).unwrap();
            }
            e.set_audit_every(1);
            let stats: Vec<_> = (0..12).map(|_| e.run_round(&mut rng)).collect();
            assert_eq!(e.audits_run(), 12);
            assert!(
                e.audit_failures().is_empty(),
                "{method:?}: {:?}",
                e.audit_failures()
            );
            (stats, e.topology().clone(), e.population().clone())
        };
        let none = run(None);
        assert!(
            none.0.iter().any(|s| s.joined > 0) && none.0.iter().any(|s| s.departed > 0),
            "the world must churn for this test to mean anything"
        );
        assert!(
            run(Some(FaultPlan::inert(99))) == none,
            "an inert plan perturbed the {method:?} trajectory"
        );
    }
}

#[test]
fn ucb_parallel_rounds_are_bit_identical_to_sequential() {
    let (mut par, mut rng_par) = engine_with(150, 2, 91, ScoringMethod::Ucb);
    let (mut seq, mut rng_seq) = engine_with(150, 2, 91, ScoringMethod::Ucb);
    for _ in 0..8 {
        let a = in_pool(8, || par.run_round(&mut rng_par));
        let b = in_pool(1, || seq.run_round(&mut rng_seq));
        assert_eq!(a, b, "UCB RoundStats must match bit for bit");
    }
    assert_eq!(par.topology(), seq.topology());
    assert_eq!(par.evaluate(0.9), seq.evaluate(0.9));
}

/// Sketch-backed rounds keep the determinism guarantee: with the
/// observation store folded into per-edge P² sketches, whole learning
/// trajectories are bit-identical across thread counts (the sketch fold
/// consumes blocks in block order regardless of how chunks were
/// scheduled).
#[test]
fn sketch_backend_rounds_are_thread_independent() {
    use perigee_core::{ObservationBackend, RoundStats};

    for method in [ScoringMethod::Vanilla, ScoringMethod::Subset] {
        let run = |threads: Option<usize>| {
            let mut rng = StdRng::seed_from_u64(83);
            let pop = PopulationBuilder::new(90).build(&mut rng).unwrap();
            let lat = GeoLatencyModel::new(&pop, 83);
            let topo =
                RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
            let mut cfg = PerigeeConfig::paper_default(method);
            cfg.blocks_per_round = 12;
            cfg.observation_backend = ObservationBackend::Sketch;
            let mut e = PerigeeEngine::new(pop, lat, topo, method, cfg).unwrap();
            let rounds =
                |e: &mut PerigeeEngine<GeoLatencyModel>, rng: &mut StdRng| -> Vec<RoundStats> {
                    (0..5).map(|_| e.run_round(rng)).collect()
                };
            let stats = match threads {
                None => rounds(&mut e, &mut rng),
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
                    .install(|| rounds(&mut e, &mut rng)),
            };
            (stats, e.topology().clone())
        };
        let (ref_stats, ref_topo) = run(None);
        for threads in [Some(1), Some(2), Some(8)] {
            let (stats, topo) = run(threads);
            assert_eq!(
                stats, ref_stats,
                "sketch-backed {method:?} diverged at {threads:?} threads"
            );
            assert_eq!(topo, ref_topo);
        }
    }
}

/// The dense and the sketch store see the same floods: over one view and
/// one 100-block miner draw, both backends report identical λ-curves
/// (those come from the floods, not the store), and at 100 blocks the
/// sketches take at most a quarter of the dense matrix's bytes.
#[test]
fn dense_and_sketch_backends_agree_on_lambda() {
    use perigee_core::ObservationBackend;

    let build = |backend: ObservationBackend| {
        let mut rng = StdRng::seed_from_u64(13);
        let pop = PopulationBuilder::new(300).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 13);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
        cfg.blocks_per_round = 100;
        cfg.observation_backend = backend;
        let e = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
        (e, rng)
    };
    let (dense, mut rng) = build(ObservationBackend::Dense);
    let (sketch, _) = build(ObservationBackend::Sketch);
    let view = view_of(&dense);
    let miners = MinerSampler::new(dense.population()).sample_round(100, &mut rng);
    let dense_round = dense.observe_round(&view, &miners);
    let sketch_round = sketch.observe_round(&view, &miners);
    assert_eq!(dense_round.lambda90_ms(), sketch_round.lambda90_ms());
    assert_eq!(dense_round.lambda50_ms(), sketch_round.lambda50_ms());
    let dense_bytes = dense_round.observations().matrix_bytes();
    let sketch_bytes = sketch_round.observations().matrix_bytes();
    assert!(
        sketch_bytes * 4 <= dense_bytes,
        "sketches take {sketch_bytes} B, over a quarter of the dense {dense_bytes} B"
    );
}

/// The same UCB run is also independent of the rayon pool width.
#[test]
fn ucb_rounds_are_thread_count_independent() {
    let (mut wide, mut rng_a) = engine_with(100, 1, 97, ScoringMethod::Ucb);
    let (mut narrow, mut rng_b) = engine_with(100, 1, 97, ScoringMethod::Ucb);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for _ in 0..6 {
        let a = wide.run_round(&mut rng_a);
        let b = pool.install(|| narrow.run_round(&mut rng_b));
        assert_eq!(a, b);
    }
    assert_eq!(wide.topology(), narrow.topology());
}

/// One hostile trajectory, pinned across commits. A 120-node UCB world
/// (5 blocks a round) under aggressive liveness, 2% steady-state churn,
/// a drop/jitter/duplication fault plan with flapping links and a
/// three-round loss burst, and a free-list compaction every 10 rounds
/// runs for 30 rounds; every `RoundStats` field (floats by their bits)
/// and the final outgoing lists fold into one fnv1a64 digest. Eviction,
/// churn and gating must each fire, so the digest covers the liveness
/// timers and the session and gating paths. A change meant to keep
/// every run's behaviour must leave the digest alone.
#[test]
fn hostile_trajectory_digest_is_pinned() {
    use perigee_core::{LivenessConfig, RoundStats};
    use perigee_netsim::{ChurnProcess, FaultWindow, LinkFlaps};

    const EXPECTED: u64 = 0xd915_64c0_31f0_4425;
    const SEED: u64 = 1919;
    let mut rng = StdRng::seed_from_u64(SEED);
    let pop = PopulationBuilder::new(120).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, SEED);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Ucb);
    cfg.blocks_per_round = 5;
    cfg.liveness = LivenessConfig::aggressive();
    let mut e = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Ucb, cfg).unwrap();
    e.set_churn(ChurnProcess::steady_state(120, 0.02, SEED ^ 0xC4A2));
    e.set_fault_plan(FaultPlan {
        base: LinkFaultRates {
            drop_prob: 0.02,
            extra_delay: SimTime::from_ms(1.0),
            jitter: SimTime::from_ms(8.0),
            duplicate_prob: 0.03,
        },
        // A burst of heavy loss: some nodes miss blocks, which is what
        // trips stability gating.
        windows: vec![FaultWindow {
            start: 12,
            end: 15,
            rates: LinkFaultRates {
                drop_prob: 0.75,
                extra_delay: SimTime::from_ms(10.0),
                jitter: SimTime::from_ms(20.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.1,
            period: 10,
            down: 5,
        }),
        ..FaultPlan::inert(SEED ^ 0xFA17)
    })
    .unwrap();
    e.set_audit_every(1);

    let mut folded = Vec::new();
    let (mut evicted, mut joined, mut departed, mut gated) = (0, 0, 0, 0);
    for r in 0..30 {
        let RoundStats {
            round,
            mean_lambda90_ms,
            mean_lambda50_ms,
            p90_lambda90_ms,
            blocks,
            dropped,
            joined: j,
            departed: d,
            gated: g,
            evicted: ev,
        } = e.run_round(&mut rng);
        let words = [
            round as u64,
            blocks as u64,
            dropped as u64,
            j as u64,
            d as u64,
            g as u64,
            ev as u64,
            mean_lambda90_ms.to_bits(),
            mean_lambda50_ms.to_bits(),
            p90_lambda90_ms.to_bits(),
        ];
        for word in words {
            folded.extend_from_slice(&word.to_le_bytes());
        }
        (evicted, joined, departed, gated) = (evicted + ev, joined + j, departed + d, gated + g);
        if r % 10 == 9 {
            e.compact();
        }
    }
    for v in 0..e.population().len() as u32 {
        let outgoing = e.topology().outgoing_vec(NodeId::new(v));
        folded.extend_from_slice(&(outgoing.len() as u32).to_le_bytes());
        for u in outgoing {
            folded.extend_from_slice(&u.as_u32().to_le_bytes());
        }
    }
    let digest = serde::bin::fnv1a64(&folded);
    assert!(evicted > 0, "liveness must evict");
    assert!(joined > 0 && departed > 0, "churn must fire");
    assert!(gated > 0, "stability gating must fire");
    assert!(e.audit_failures().is_empty(), "{:?}", e.audit_failures());
    assert_eq!(digest, EXPECTED, "hostile trajectory moved: {digest:#018x}");
}

/// Folds every field of one `RoundStats` into `folded`: counts as `u64`
/// words, floats by their bits.
fn fold_stats(folded: &mut Vec<u8>, stats: &perigee_core::RoundStats) {
    let perigee_core::RoundStats {
        round,
        mean_lambda90_ms,
        mean_lambda50_ms,
        p90_lambda90_ms,
        blocks,
        dropped,
        joined,
        departed,
        gated,
        evicted,
    } = *stats;
    let words = [
        round as u64,
        blocks as u64,
        dropped as u64,
        joined as u64,
        departed as u64,
        gated as u64,
        evicted as u64,
        mean_lambda90_ms.to_bits(),
        mean_lambda50_ms.to_bits(),
        p90_lambda90_ms.to_bits(),
    ];
    for word in words {
        folded.extend_from_slice(&word.to_le_bytes());
    }
}

/// The fnv1a64 digest of a 200-node, 100-blocks-a-round dense-store
/// trajectory scored by `method`: 12 rounds of `RoundStats` (floats by
/// their bits) and the final outgoing lists, run inside a pool of
/// `threads` workers.
fn dense_trajectory_digest(method: ScoringMethod, threads: usize) -> u64 {
    in_pool(threads, || {
        let (mut e, mut rng) = engine_with(200, 100, 2020, method);
        let mut folded = Vec::new();
        for _ in 0..12 {
            fold_stats(&mut folded, &e.run_round(&mut rng));
        }
        for v in 0..e.population().len() as u32 {
            let outgoing = e.topology().outgoing_vec(NodeId::new(v));
            folded.extend_from_slice(&(outgoing.len() as u32).to_le_bytes());
            for u in outgoing {
                folded.extend_from_slice(&u.as_u32().to_le_bytes());
            }
        }
        serde::bin::fnv1a64(&folded)
    })
}

/// Subset's dense scoring, pinned across commits: every percentile the
/// greedy takes and every decision it makes feed the digest, so a
/// change to the percentile kernel or the greedy's arithmetic that is
/// meant to be exact must leave it alone, on one and two threads.
#[test]
fn subset_dense_trajectory_digest_is_pinned() {
    const EXPECTED: u64 = 0xb65b_2df4_ee81_89c8;
    for threads in [1, 2] {
        let digest = dense_trajectory_digest(ScoringMethod::Subset, threads);
        assert_eq!(
            digest, EXPECTED,
            "subset trajectory moved on {threads} threads: {digest:#018x}"
        );
    }
}

/// Vanilla's dense scoring, pinned across commits like Subset's.
#[test]
fn vanilla_dense_trajectory_digest_is_pinned() {
    const EXPECTED: u64 = 0xd668_d17a_6592_6bea;
    for threads in [1, 2] {
        let digest = dense_trajectory_digest(ScoringMethod::Vanilla, threads);
        assert_eq!(
            digest, EXPECTED,
            "vanilla trajectory moved on {threads} threads: {digest:#018x}"
        );
    }
}

/// The fnv1a64 digest of a 48-node Subset trajectory on the sketch
/// store with `paper_stream` traffic installed, run inside a pool of
/// `threads` workers: four rounds of `RoundStats` and per-class traffic
/// λs (floats by their bits), the final outgoing lists, and every
/// edge's scoring percentile after one more 40-block `observe_round`.
fn sketch_traffic_trajectory_digest(threads: usize) -> u64 {
    use perigee_core::ObservationBackend;
    use perigee_netsim::TrafficConfig;

    in_pool(threads, || {
        const SEED: u64 = 2323;
        let mut rng = StdRng::seed_from_u64(SEED);
        let pop = PopulationBuilder::new(48).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, SEED);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
        cfg.blocks_per_round = 9;
        cfg.observation_backend = ObservationBackend::Sketch;
        let mut e = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
        e.set_traffic(TrafficConfig::paper_stream(SEED ^ 0x7AFF))
            .unwrap();

        let mut folded = Vec::new();
        for _ in 0..4 {
            fold_stats(&mut folded, &e.run_round(&mut rng));
            let traffic = e.last_traffic_stats().unwrap();
            folded.extend_from_slice(&(traffic.messages as u64).to_le_bytes());
            for class in &traffic.per_class {
                let words = [
                    class.messages as u64,
                    class.mean_lambda90_ms.to_bits(),
                    class.mean_lambda50_ms.to_bits(),
                ];
                for word in words {
                    folded.extend_from_slice(&word.to_le_bytes());
                }
            }
        }
        for v in 0..e.population().len() as u32 {
            let outgoing = e.topology().outgoing_vec(NodeId::new(v));
            folded.extend_from_slice(&(outgoing.len() as u32).to_le_bytes());
            for u in outgoing {
                folded.extend_from_slice(&u.as_u32().to_le_bytes());
            }
        }

        let view = view_of(&e);
        let miners = MinerSampler::new(e.population()).sample_round(40, &mut rng);
        let round = e.observe_round(&view, &miners);
        let store = round.observations();
        let p = e.config().percentile;
        let mut buf = Vec::new();
        for v in 0..e.population().len() as u32 {
            let obs = store.node(NodeId::new(v));
            for i in 0..obs.degree() {
                let score = obs.column_percentile_or_inf(i, p, &mut buf);
                folded.extend_from_slice(&score.to_bits().to_le_bytes());
            }
        }
        serde::bin::fnv1a64(&folded)
    })
}

/// The sketch store's fold, pinned across commits: block and traffic
/// rows stream through every edge's P² sketch, Subset scores the
/// estimates, and the final percentiles are read back edge by edge, so
/// a change to the fold kernel that is meant to be exact must leave the
/// digest alone, on one and two threads.
#[test]
fn sketch_traffic_trajectory_digest_is_pinned() {
    const EXPECTED: u64 = 0x2a49_d3ce_295f_2930;
    for threads in [1, 2] {
        let digest = sketch_traffic_trajectory_digest(threads);
        assert_eq!(
            digest, EXPECTED,
            "sketch trajectory moved on {threads} threads: {digest:#018x}"
        );
    }
}
