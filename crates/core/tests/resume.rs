//! Kill-and-resume determinism: checkpoint at round *k*, serialize to
//! the on-disk envelope, decode, resume, and run to round *N* — the
//! result must be **bit-identical** to the uninterrupted *N*-round run.
//! The suite exercises the hardest configuration the engine supports:
//! UCB scoring (per-arm history buffers; the headline test also runs
//! Vanilla and Subset, whose histories stay blank), aggressive liveness
//! (silence counters + backoff timers), Poisson churn (its own RNG
//! stream), an *active* fault plan (burst loss, flaps, a timed
//! partition) and an address book — across pinned 1/2/8-thread rayon
//! pools, on the analytic flood and on bandwidth-limited INV/GETDATA
//! blocks. The invariant auditor runs every round on both legs and must
//! stay green throughout.

use perigee_core::{
    AddressBook, PerigeeConfig, PerigeeEngine, RoundStats, RunSnapshot, ScoringMethod,
    SnapshotError,
};
use perigee_netsim::{
    ChurnProcess, ConnectionLimits, FaultPlan, FaultWindow, GeoLatencyModel, GossipConfig,
    LinkFaultRates, LinkFlaps, PartitionWindow, PopulationBuilder, SessionDist,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::bin::{DecodeError, Encode};

/// An active plan: background loss, a mid-run burst window, flapping
/// links and a timed partition — every fault family at once.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        base: LinkFaultRates {
            drop_prob: 0.03,
            extra_delay: perigee_netsim::SimTime::from_ms(2.0),
            jitter: perigee_netsim::SimTime::from_ms(10.0),
            duplicate_prob: 0.05,
        },
        windows: vec![FaultWindow {
            start: 6,
            end: 12,
            rates: LinkFaultRates {
                drop_prob: 0.5,
                extra_delay: perigee_netsim::SimTime::from_ms(15.0),
                jitter: perigee_netsim::SimTime::from_ms(30.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.1,
            period: 5,
            down: 2,
        }),
        partitions: vec![PartitionWindow {
            start: 14,
            heal: 20,
            fraction: 0.25,
        }],
        regional: Vec::new(),
    }
}

/// The hardest engine we can build: UCB scores, aggressive liveness,
/// Poisson churn, the chaos plan, an address book, auditing every round.
fn chaos_engine(seed: u64) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    chaos_engine_with(seed, ScoringMethod::Ucb, GossipConfig::flood())
}

/// [`chaos_engine`] scoring with `method`, its blocks propagating under
/// `propagation`.
fn chaos_engine_with(
    seed: u64,
    method: ScoringMethod,
    propagation: GossipConfig,
) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(70).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(method);
    cfg.blocks_per_round = 6;
    cfg.liveness = perigee_core::LivenessConfig::aggressive();
    let mut engine = PerigeeEngine::new(pop, lat, topo, method, cfg).unwrap();
    engine.set_propagation(propagation).unwrap();
    engine.set_churn(ChurnProcess::steady_state(70, 0.04, seed ^ 0x5EED));
    engine.set_fault_plan(chaos_plan(seed ^ 0xFA17)).unwrap();
    let book = perigee_core::AddressBook::bootstrap(engine.population().len(), 4, 24, &mut rng);
    engine.set_address_book(book);
    engine.set_audit_every(1);
    (engine, rng)
}

/// One uninterrupted run: `total` rounds, optionally inside a pinned
/// rayon pool.
fn run_straight(
    seed: u64,
    (method, propagation): (ScoringMethod, GossipConfig),
    total: usize,
    threads: Option<usize>,
) -> (Vec<RoundStats>, PerigeeEngine<GeoLatencyModel>) {
    let (mut engine, mut rng) = chaos_engine_with(seed, method, propagation);
    let stats = match threads {
        None => (0..total).map(|_| engine.run_round(&mut rng)).collect(),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
            .install(|| (0..total).map(|_| engine.run_round(&mut rng)).collect()),
    };
    (stats, engine)
}

/// The interrupted run: `k` rounds, checkpoint through the full on-disk
/// envelope (encode → bytes → decode), drop the original engine, resume,
/// and run the remaining `total - k` rounds in a pinned pool.
fn run_killed(
    seed: u64,
    (method, propagation): (ScoringMethod, GossipConfig),
    total: usize,
    k: usize,
    threads: Option<usize>,
) -> (Vec<RoundStats>, PerigeeEngine<GeoLatencyModel>) {
    let (mut engine, mut rng) = chaos_engine_with(seed, method, propagation);
    let mut stats: Vec<RoundStats> = (0..k).map(|_| engine.run_round(&mut rng)).collect();
    assert!(engine.audit_failures().is_empty(), "pre-kill audit failed");

    let bytes = engine.checkpoint(&rng).to_bytes();
    drop(engine);

    let snapshot = RunSnapshot::from_bytes(&bytes).expect("envelope round-trip");
    assert_eq!(snapshot.round(), k as u64);
    let (mut resumed, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).expect("resume");
    resumed.set_audit_every(1);
    let tail: Vec<RoundStats> = match threads {
        None => (k..total).map(|_| resumed.run_round(&mut rng)).collect(),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
            .install(|| (k..total).map(|_| resumed.run_round(&mut rng)).collect()),
    };
    stats.extend(tail);
    (stats, resumed)
}

/// The headline guarantee: kill at round 9 of 18, resume from the
/// serialized envelope, and every per-round statistic, the learned
/// topology, the population (ids, hash power, free-list) and the final
/// evaluation are the same IEEE-754 values as the uninterrupted run —
/// for each scoring method, on flooded and on 0.5 MB INV/GETDATA blocks
/// (the block config rides the checkpoint), and regardless of which
/// thread count either leg ran under.
#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted() {
    const SEED: u64 = 2020;
    const TOTAL: usize = 18;
    const K: usize = 9;

    let flooded = ScoringMethod::ALL.map(|m| (m, GossipConfig::flood()));
    let inv = (ScoringMethod::Ucb, GossipConfig::inv_getdata(0.5));
    for case in flooded.into_iter().chain([inv]) {
        let propagation = case.1;
        let (ref_stats, ref_engine) = run_straight(SEED, case, TOTAL, None);
        assert!(
            ref_stats.iter().any(|s| s.joined > 0) && ref_stats.iter().any(|s| s.departed > 0),
            "churn must fire on {case:?} for this test to bite"
        );
        assert!(
            ref_engine.audit_failures().is_empty(),
            "reference run must audit clean on {case:?}"
        );
        assert_eq!(ref_engine.audits_run(), TOTAL);

        for threads in [Some(1), Some(2), Some(8)] {
            let (stats, engine) = run_killed(SEED, case, TOTAL, K, threads);
            assert_eq!(
                engine.propagation(),
                propagation,
                "the block config must survive the checkpoint on {case:?}"
            );
            assert_eq!(
                stats, ref_stats,
                "resumed RoundStats diverged at {threads:?} threads on {case:?}"
            );
            assert_eq!(
                engine.topology(),
                ref_engine.topology(),
                "topology diverged at {threads:?} threads on {case:?}"
            );
            assert_eq!(
                engine.population(),
                ref_engine.population(),
                "population diverged at {threads:?} threads on {case:?}"
            );
            assert_eq!(
                engine.evaluate(0.9),
                ref_engine.evaluate(0.9),
                "evaluation diverged at {threads:?} threads on {case:?}"
            );
            assert!(
                engine.audit_failures().is_empty(),
                "resumed run must audit clean at {threads:?} threads on {case:?}"
            );
            assert_eq!(engine.rounds_run(), TOTAL);
        }
    }
}

/// Checkpointing is transparent: a second checkpoint taken from the
/// *resumed* engine at the same round encodes to the same bytes as one
/// taken from an engine that was never killed.
#[test]
fn checkpoint_of_resumed_engine_matches_original() {
    let (mut a, mut rng_a) = chaos_engine(99);
    for _ in 0..8 {
        a.run_round(&mut rng_a);
    }
    let straight = a.checkpoint(&rng_a).to_bytes();

    let (mut b, mut rng_b) = chaos_engine(99);
    for _ in 0..5 {
        b.run_round(&mut rng_b);
    }
    let bytes = b.checkpoint(&rng_b).to_bytes();
    let (mut resumed, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(RunSnapshot::from_bytes(&bytes).unwrap()).unwrap();
    for _ in 5..8 {
        resumed.run_round(&mut rng);
    }
    let via_kill = resumed.checkpoint(&rng).to_bytes();
    assert_eq!(via_kill, straight, "checkpoint-of-resume must be invisible");
}

/// Corrupted envelopes are rejected with *structured* errors, never a
/// panic or a silently-wrong world: bad magic, an unknown format
/// version, truncation, bit flips, and a hash-valid body that fails the
/// semantic consistency check each map to their own `SnapshotError`.
#[test]
fn corrupted_snapshots_are_rejected_with_structured_errors() {
    let (mut engine, mut rng) = chaos_engine(7);
    for _ in 0..4 {
        engine.run_round(&mut rng);
    }
    let bytes = engine.checkpoint(&rng).to_bytes();
    RunSnapshot::from_bytes(&bytes).expect("pristine bytes must decode");

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert_eq!(
        RunSnapshot::from_bytes(&bad).unwrap_err(),
        SnapshotError::BadMagic
    );

    // Unknown format version (bytes 4..8, little-endian u32).
    let mut bad = bytes.clone();
    bad[4] = 0xFE;
    assert!(matches!(
        RunSnapshot::from_bytes(&bad).unwrap_err(),
        SnapshotError::UnsupportedVersion(_)
    ));

    // A flipped bit anywhere in the body trips the content hash.
    let mut bad = bytes.clone();
    let mid = 16 + (bad.len() - 24) / 2;
    bad[mid] ^= 0x01;
    assert_eq!(
        RunSnapshot::from_bytes(&bad).unwrap_err(),
        SnapshotError::HashMismatch
    );

    // Truncation can never pass the envelope length check.
    let bad = &bytes[..bytes.len() - 9];
    assert_eq!(
        RunSnapshot::from_bytes(bad).unwrap_err(),
        SnapshotError::HashMismatch
    );

    // An empty buffer cannot even produce the magic; a header-only
    // buffer is structurally corrupt.
    assert_eq!(
        RunSnapshot::from_bytes(&[]).unwrap_err(),
        SnapshotError::BadMagic
    );
    assert!(matches!(
        RunSnapshot::from_bytes(&bytes[..10]).unwrap_err(),
        SnapshotError::Corrupt(_)
    ));

    // Hash-valid but semantically impossible: zero out the RNG state
    // (the last 32 body bytes) and re-stamp the content hash. The
    // envelope passes; the consistency check must still refuse it.
    let mut bad = bytes.clone();
    let body_end = bad.len() - 8;
    for b in &mut bad[body_end - 32..body_end] {
        *b = 0;
    }
    let digest = serde::bin::fnv1a64(&bad[16..body_end]);
    bad[body_end..].copy_from_slice(&digest.to_le_bytes());
    assert!(matches!(
        RunSnapshot::from_bytes(&bad).unwrap_err(),
        SnapshotError::Inconsistent(_)
    ));
}

/// A checkpoint whose churn arrival rate was rewritten to NaN, −1 or
/// +∞ — with the content hash recomputed, so the envelope is sound —
/// is refused while decoding, as [`SnapshotError::Corrupt`], instead of
/// resuming into a process whose first round panics.
#[test]
fn invalid_churn_rate_in_a_hash_valid_checkpoint_is_corrupt() {
    let (mut engine, mut rng) = chaos_engine(11);
    for _ in 0..3 {
        engine.run_round(&mut rng);
    }
    let bytes = engine.checkpoint(&rng).to_bytes();
    // The churn process is `steady_state(70, 0.04, ..)`: its arrival
    // rate, then the exponential session tag and its mean — a pattern
    // that occurs once in the body.
    let rate = 70.0 * 0.04f64;
    let mut pattern = rate.to_le_bytes().to_vec();
    pattern.push(1);
    pattern.extend_from_slice(&(1.0 / 0.04f64).to_le_bytes());
    let body_end = bytes.len() - 8;
    let hits: Vec<usize> = (16..body_end - pattern.len())
        .filter(|&i| bytes[i..i + pattern.len()] == pattern[..])
        .collect();
    assert_eq!(hits.len(), 1, "the churn rate is found exactly once");
    let at = hits[0];
    for bad in [f64::NAN, -1.0, f64::INFINITY] {
        let mut tampered = bytes.clone();
        tampered[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        let digest = serde::bin::fnv1a64(&tampered[16..body_end]);
        tampered[body_end..].copy_from_slice(&digest.to_le_bytes());
        assert!(
            matches!(
                RunSnapshot::from_bytes(&tampered),
                Err(SnapshotError::Corrupt(_))
            ),
            "rate {bad} must be refused as corrupt"
        );
    }
}

/// A checkpoint whose first node profile was rewritten to validate
/// blocks in −1 ms — with the content hash recomputed — is refused while
/// decoding, as [`SnapshotError::Corrupt`], instead of resuming into a
/// round that queues a relay behind the queue's cursor.
#[test]
fn negative_validation_delay_in_a_hash_valid_checkpoint_is_corrupt() {
    let (mut engine, mut rng) = chaos_engine(13);
    for _ in 0..2 {
        engine.run_round(&mut rng);
    }
    let bytes = engine.checkpoint(&rng).to_bytes();
    // A default profile encodes its 50 ms validation delay, its empty
    // coordinate list and its 33 Mbit/s up- and downlink back to back.
    let mut pattern = 50.0f64.to_le_bytes().to_vec();
    pattern.extend_from_slice(&0u64.to_le_bytes());
    pattern.extend_from_slice(&33.0f64.to_le_bytes());
    pattern.extend_from_slice(&33.0f64.to_le_bytes());
    let body_end = bytes.len() - 8;
    let at = (16..body_end - pattern.len())
        .find(|&i| bytes[i..i + pattern.len()] == pattern[..])
        .expect("the population holds default profiles");
    let mut tampered = bytes.clone();
    tampered[at..at + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
    let digest = serde::bin::fnv1a64(&tampered[16..body_end]);
    tampered[body_end..].copy_from_slice(&digest.to_le_bytes());
    assert!(matches!(
        RunSnapshot::from_bytes(&tampered),
        Err(SnapshotError::Corrupt(_))
    ));
    // The untouched body still decodes.
    assert!(RunSnapshot::from_bytes(&bytes).is_ok());
}

/// A checkpoint whose churn schedule names a slot past the world — one
/// scheduled expiry's id rewritten from 59 to 6000, with the content
/// hash recomputed — is refused as [`SnapshotError::Inconsistent`]
/// instead of resuming into a round that indexes past the population
/// when it pops that expiry.
#[test]
fn churn_schedule_outside_the_world_in_a_hash_valid_checkpoint_is_inconsistent() {
    let mut rng = StdRng::seed_from_u64(60);
    let pop = PopulationBuilder::new(60).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 60);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = 4;
    let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    engine.set_churn(ChurnProcess::poisson(0.0, SessionDist::Constant(4.0), 9));
    engine.run_round(&mut rng);
    let bytes = engine.checkpoint(&rng).to_bytes();
    // Every node was attached before round 0 with a four-round session
    // and nobody arrives, so the schedule is the 60 expiries
    // (4, n0) … (4, n59), encoded in order behind their count.
    let mut schedule = 60u64.to_le_bytes().to_vec();
    for id in 0..60u32 {
        schedule.extend_from_slice(&4u64.to_le_bytes());
        schedule.extend_from_slice(&id.to_le_bytes());
    }
    let body_end = bytes.len() - 8;
    let at = (16..body_end - schedule.len())
        .find(|&i| bytes[i..i + schedule.len()] == schedule[..])
        .expect("the churn schedule is in the body");
    let last_id = at + schedule.len() - 4;
    let mut tampered = bytes.clone();
    tampered[last_id..last_id + 4].copy_from_slice(&6000u32.to_le_bytes());
    let digest = serde::bin::fnv1a64(&tampered[16..body_end]);
    tampered[body_end..].copy_from_slice(&digest.to_le_bytes());
    assert_eq!(
        RunSnapshot::from_bytes(&tampered).unwrap_err(),
        SnapshotError::Inconsistent("churn schedule names a node outside the population")
    );
    // The untouched body still decodes and resumes.
    let snapshot = RunSnapshot::from_bytes(&bytes).unwrap();
    assert!(PerigeeEngine::<GeoLatencyModel>::resume(snapshot).is_ok());
}

/// A hash-valid checkpoint whose address book names a node past the
/// world — one address rewritten to 6000, with the content hash
/// recomputed — is refused while decoding, as
/// [`SnapshotError::Corrupt`], instead of resuming into a round whose
/// refill samples that address and indexes past the population.
#[test]
fn address_book_entry_outside_the_world_in_a_hash_valid_checkpoint_is_corrupt() {
    let mut rng = StdRng::seed_from_u64(61);
    let pop = PopulationBuilder::new(60).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 61);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = 4;
    let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    engine.set_address_book(AddressBook::bootstrap(60, 4, 24, &mut rng));
    let bytes = engine.checkpoint(&rng).to_bytes();
    let mut book = Vec::new();
    engine.address_book().unwrap().encode(&mut book);
    let body_end = bytes.len() - 8;
    let at = (16..body_end - book.len())
        .find(|&i| bytes[i..i + book.len()] == book[..])
        .expect("the address book is in the body");
    // The book is its node count, then n0's address count and its
    // ascending addresses: rewrite n0's last (largest) address.
    let first = u64::from_le_bytes(book[8..16].try_into().unwrap()) as usize;
    assert!(first > 0, "n0 was bootstrapped with addresses");
    let last = at + 16 + 4 * (first - 1);
    let mut tampered = bytes.clone();
    tampered[last..last + 4].copy_from_slice(&6000u32.to_le_bytes());
    let digest = serde::bin::fnv1a64(&tampered[16..body_end]);
    tampered[body_end..].copy_from_slice(&digest.to_le_bytes());
    assert_eq!(
        RunSnapshot::from_bytes(&tampered).unwrap_err(),
        SnapshotError::Corrupt(DecodeError::new(
            "address book names a node outside the world"
        ))
    );
    // The untouched body still decodes, resumes and runs a round.
    let snapshot = RunSnapshot::from_bytes(&bytes).unwrap();
    let (mut resumed, mut rng) = PerigeeEngine::<GeoLatencyModel>::resume(snapshot).unwrap();
    resumed.run_round(&mut rng);
}

/// A hash-valid UCB checkpoint whose history holds a NaN sample, or
/// two samples of one buffer swapped out of order — with the content
/// hash recomputed — is refused while decoding, as
/// [`SnapshotError::Corrupt`], instead of resuming into rounds that read
/// each buffer's order statistics by index.
#[test]
fn unsorted_or_non_finite_history_in_a_hash_valid_checkpoint_is_corrupt() {
    const N: usize = 30;
    let mut rng = StdRng::seed_from_u64(5);
    let pop = PopulationBuilder::new(N).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 5);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Ucb);
    cfg.blocks_per_round = 3;
    let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Ucb, cfg).unwrap();
    for _ in 0..2 {
        engine.run_round(&mut rng);
    }
    let bytes = engine.checkpoint(&rng).to_bytes();
    // Every node adopts, so the adopter flags (their count, then one
    // byte each) run straight into the histories' count; n0's history
    // follows: its neighbor ids behind their count, then its buffers
    // behind theirs, each buffer's samples behind its length.
    let mut flags = (N as u64).to_le_bytes().to_vec();
    flags.extend(std::iter::repeat_n(1u8, N));
    flags.extend_from_slice(&(N as u64).to_le_bytes());
    let body_end = bytes.len() - 8;
    let at = (16..body_end - flags.len())
        .find(|&i| bytes[i..i + flags.len()] == flags[..])
        .expect("the adopter flags precede the histories");
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()) as usize;
    let neighbors = word(at + flags.len());
    let buffers = at + flags.len() + 8 + 4 * neighbors;
    assert_eq!(word(buffers), neighbors, "one buffer per neighbor");
    let first = buffers + 16;
    let samples: Vec<f32> = (0..word(buffers + 8))
        .map(|j| f32::from_le_bytes(bytes[first + 4 * j..first + 4 * j + 4].try_into().unwrap()))
        .collect();
    let rise = samples
        .windows(2)
        .position(|w| w[0] < w[1])
        .expect("n0's first buffer holds two different samples");

    let restamp = |mut tampered: Vec<u8>| {
        let digest = serde::bin::fnv1a64(&tampered[16..body_end]);
        tampered[body_end..].copy_from_slice(&digest.to_le_bytes());
        tampered
    };
    let mut nan = bytes.clone();
    nan[first..first + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    assert_eq!(
        RunSnapshot::from_bytes(&restamp(nan)).unwrap_err(),
        SnapshotError::Corrupt(DecodeError::new("node history holds a non-finite sample"))
    );
    let mut swapped = bytes.clone();
    let (lo, hi) = (first + 4 * rise, first + 4 * rise + 4);
    swapped[lo..hi].copy_from_slice(&samples[rise + 1].to_le_bytes());
    swapped[hi..hi + 4].copy_from_slice(&samples[rise].to_le_bytes());
    assert_eq!(
        RunSnapshot::from_bytes(&restamp(swapped)).unwrap_err(),
        SnapshotError::Corrupt(DecodeError::new("node history buffer is not sorted"))
    );
    // The untouched body still decodes, resumes and runs a round.
    let snapshot = RunSnapshot::from_bytes(&bytes).unwrap();
    let (mut resumed, mut rng) = PerigeeEngine::<GeoLatencyModel>::resume(snapshot).unwrap();
    resumed.run_round(&mut rng);
}

/// A hash-valid checkpoint whose topology holds an edge the API never
/// builds — n0's smallest outgoing id rewritten to a node past the world,
/// to n0 itself, or to a node that already connects to n0, with the
/// content hash recomputed — is refused while decoding, as
/// [`SnapshotError::Corrupt`], instead of resuming into a view build
/// that panics. The incoming sets are rebuilt, not stored, so none can
/// disagree with the outgoing ones. A checkpoint whose dead slot holds
/// hash power is refused the same way, instead of resuming a sampler
/// that mines from it.
#[test]
fn impossible_world_in_a_hash_valid_checkpoint_is_corrupt() {
    let mut rng = StdRng::seed_from_u64(62);
    let pop = PopulationBuilder::new(60).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 62);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = 4;
    let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    engine.run_round(&mut rng);
    let bytes = engine.checkpoint(&rng).to_bytes();
    let mut topology = Vec::new();
    engine.topology().encode(&mut topology);
    let body_end = bytes.len() - 8;
    let at = (16..body_end - topology.len())
        .find(|&i| bytes[i..i + topology.len()] == topology[..])
        .expect("the topology is in the body");
    // The topology is its node count, then n0's outgoing count and its
    // ascending ids: rewrite n0's first (smallest) id.
    assert!(engine.topology().out_degree(perigee_netsim::NodeId::new(0)) > 0);
    let first = at + 16;
    let caller = engine
        .topology()
        .incoming(perigee_netsim::NodeId::new(0))
        .next()
        .expect("someone connects to n0");
    for (id, why) in [
        (6000, "topology edge names a node outside the world"),
        (0, "topology edge is a self-loop"),
        (caller.as_u32(), "topology holds a pair twice"),
    ] {
        let mut tampered = bytes.clone();
        tampered[first..first + 4].copy_from_slice(&id.to_le_bytes());
        let digest = serde::bin::fnv1a64(&tampered[16..body_end]);
        tampered[body_end..].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(
            RunSnapshot::from_bytes(&tampered).unwrap_err(),
            SnapshotError::Corrupt(DecodeError::new(why)),
            "n0 -> n{id}"
        );
    }
    // The untouched body still decodes, resumes and runs a round.
    let snapshot = RunSnapshot::from_bytes(&bytes).unwrap();
    let (mut resumed, mut rng) = PerigeeEngine::<GeoLatencyModel>::resume(snapshot).unwrap();
    resumed.run_round(&mut rng);

    let dead = perigee_netsim::NodeId::new(59);
    resumed.population_mut().retire(dead);
    resumed.population_mut().profile_mut(dead).hash_power = 0.5;
    assert_eq!(
        RunSnapshot::from_bytes(&resumed.checkpoint(&rng).to_bytes()).unwrap_err(),
        SnapshotError::Corrupt(DecodeError::new(
            "hash power is NaN, infinite, negative or held by a dead slot"
        ))
    );
}

/// A hash-valid checkpoint whose live nodes hold no hash power at all —
/// every live node's power zeroed before writing it — is refused while
/// decoding, as [`SnapshotError::Corrupt`], instead of resuming a
/// sampler that mines a dead slot. The byte layout is format 9's.
#[test]
fn zero_live_power_in_a_hash_valid_checkpoint_is_corrupt() {
    let (mut engine, mut rng) = chaos_engine(17);
    for _ in 0..2 {
        engine.run_round(&mut rng);
    }
    let live: Vec<_> = engine.population().ids_alive().collect();
    assert!(
        live.len() < engine.population().len(),
        "churn left dead slots"
    );
    for v in live {
        engine.population_mut().profile_mut(v).hash_power = 0.0;
    }
    assert_eq!(
        RunSnapshot::from_bytes(&engine.checkpoint(&rng).to_bytes()).unwrap_err(),
        SnapshotError::Corrupt(DecodeError::new("live nodes hold zero total hash power"))
    );
}

/// Checked-in envelopes of older format versions — version 1 (written
/// before the snapshot carried the compaction epoch and the latency
/// placement keys), version 3 (a UCB run whose score state was still
/// the strategy's opaque bytes, next to the parallel-switch byte),
/// version 4 (a UCB run whose block propagation was still a mode tag in
/// front of an optional gossip config) and version 5 (a UCB run with
/// churn, aggressive liveness and a fault plan, whose configs still
/// carried the score-staleness factor, the liveness timers, the
/// geographic jitter fraction and the arrival region weights),
/// version 6 (a UCB run with churn, aggressive liveness, a fault plan
/// and the heap queue, whose body still carried the queue-kind byte, the
/// churn mode tag and the last round's world delta), version 7 (a UCB
/// run with churn, aggressive liveness and a fault plan, whose history
/// buffers are still in arrival order) and version 8 (the same run, its
/// buffers sorted, whose body still carried the global block counter,
/// the population's free-list of five dead slots, the topology's
/// incoming sets and both copies of each pin) — are
/// rejected with a *structured* [`SnapshotError::UnsupportedVersion`] —
/// never a panic, never a misdecoded world. Truncated prefixes of the
/// old files must not panic either. The newest fixture is the version
/// just before the current one, so a format bump must ship a fixture of
/// the format it retires.
#[test]
fn old_snapshot_versions_are_rejected_with_unsupported_version() {
    let fixtures: [(&[u8], u32); 7] = [
        (include_bytes!("fixtures/snapshot_v1.bin"), 1),
        (include_bytes!("fixtures/snapshot_v3.bin"), 3),
        (include_bytes!("fixtures/snapshot_v4.bin"), 4),
        (include_bytes!("fixtures/snapshot_v5.bin"), 5),
        (include_bytes!("fixtures/snapshot_v6.bin"), 6),
        (include_bytes!("fixtures/snapshot_v7.bin"), 7),
        (include_bytes!("fixtures/snapshot_v8.bin"), 8),
    ];
    assert_eq!(
        fixtures.iter().map(|&(_, v)| v).max(),
        Some(perigee_core::snapshot::FORMAT_VERSION - 1),
        "ship a fixture of the retired format with every format bump"
    );
    for (bytes, version) in fixtures {
        assert_eq!(&bytes[..4], b"PRGS", "fixture is a perigee envelope");
        assert_eq!(
            u32::from(bytes[4]),
            version,
            "fixture was written as format version {version}"
        );
        assert_eq!(
            RunSnapshot::from_bytes(bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(version)
        );
        for cut in [0, 3, 4, 7, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                RunSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} of v{version} must fail, not panic"
            );
        }
    }
}

/// Free-list compaction composes with kill-and-resume: an uninterrupted
/// run that compacts at round `K` is bit-identical to a run that
/// compacts, checkpoints through the on-disk envelope, resumes and
/// continues — same per-round statistics, same learned topology, same
/// renumbered population, same evaluation. The compaction epoch rides
/// the snapshot, the carried view stays patched-equals-fresh, and the
/// auditor stays green on both legs.
#[test]
fn compaction_is_checkpoint_transparent_and_deterministic() {
    const SEED: u64 = 4242;
    const TOTAL: usize = 18;
    const K: usize = 9;

    let (mut ref_engine, mut rng) = chaos_engine(SEED);
    let mut ref_stats: Vec<RoundStats> = (0..K).map(|_| ref_engine.run_round(&mut rng)).collect();
    let reclaimed = ref_engine.compact();
    assert!(
        reclaimed.is_some_and(|r| r > 0),
        "churn must have retired nodes by round {K}"
    );
    assert_eq!(ref_engine.compaction_epoch(), 1);
    ref_engine.assert_view_consistency();
    assert!(
        ref_engine.compact().is_none(),
        "back-to-back compaction has nothing to reclaim"
    );
    ref_stats.extend((K..TOTAL).map(|_| ref_engine.run_round(&mut rng)));
    assert!(
        ref_engine.audit_failures().is_empty(),
        "compacted run must audit clean"
    );

    let (mut engine, mut rng) = chaos_engine(SEED);
    let mut stats: Vec<RoundStats> = (0..K).map(|_| engine.run_round(&mut rng)).collect();
    engine.compact();
    let bytes = engine.checkpoint(&rng).to_bytes();
    drop(engine);
    let snapshot = RunSnapshot::from_bytes(&bytes).expect("envelope round-trip");
    assert_eq!(snapshot.compaction_epoch(), 1, "epoch rides the snapshot");
    let (mut resumed, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).expect("resume");
    resumed.set_audit_every(1);
    assert_eq!(resumed.compaction_epoch(), 1);
    stats.extend((K..TOTAL).map(|_| resumed.run_round(&mut rng)));

    assert_eq!(stats, ref_stats, "stats diverged across resume");
    assert_eq!(resumed.topology(), ref_engine.topology());
    assert_eq!(resumed.population(), ref_engine.population());
    assert_eq!(resumed.evaluate(0.9), ref_engine.evaluate(0.9));
    assert!(resumed.audit_failures().is_empty());
    resumed.assert_view_consistency();
}
