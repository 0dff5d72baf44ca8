//! Batched-vs-sequential bit-equality: a k-message
//! [`TopologyView::gossip_batch_into`] pass must produce delivery rows,
//! relay starts, arrivals and coverage times **bit-identical** to k
//! independent [`TopologyView::gossip_into`] calls — the correctness
//! contract that lets the traffic layer share one scratch across a
//! round's messages without changing a single float. A message equal to
//! its predecessor is served from the run the scratch holds, and must
//! still equal its own fresh run, tallies included.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_netsim::gossip::BatchMessage;
use perigee_netsim::{
    BlockFaults, ConnectionLimits, FaultPlan, GeoLatencyModel, GossipConfig, GossipScratch,
    LinkFaultRates, NodeId, Population, PopulationBuilder, SimCounters, SimTime, Topology,
    TopologyView, TrafficConfig,
};

fn random_world(n: usize, seed: u64) -> (Population, GeoLatencyModel, Topology, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let mut topo = Topology::new(n, ConnectionLimits::paper_default());
    for i in 0..n as u32 {
        let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % n as u32));
    }
    for _ in 0..3 * n {
        let u = NodeId::new(rng.gen_range(0..n as u32));
        let v = NodeId::new(rng.gen_range(0..n as u32));
        let _ = topo.connect(u, v);
    }
    (pop, lat, topo, rng)
}

/// Mixed-policy batch over `n` nodes, deterministic in `rng`.
fn mixed_batch(n: u32, k: usize, rng: &mut StdRng) -> Vec<BatchMessage> {
    let configs = [
        GossipConfig::flood(),
        GossipConfig::inv_getdata(0.0005),
        GossipConfig::push_pull(0.002, 3),
        GossipConfig::inv_getdata(0.0),
    ];
    (0..k)
        .map(|i| BatchMessage {
            source: NodeId::new(rng.gen_range(0..n)),
            config: configs[i % configs.len()],
        })
        .collect()
}

/// Every delivery row of the scratch's last message, in CSR edge order,
/// read through `faults` when the message ran under them.
fn rows(view: &TopologyView, s: &GossipScratch, faults: Option<&BlockFaults<'_>>) -> Vec<SimTime> {
    perigee_oracle::collect_rows(s, view, faults).concat()
}

/// The bit patterns of `times`.
fn bits(times: &[SimTime]) -> Vec<u64> {
    times.iter().map(|t| t.as_ms().to_bits()).collect()
}

/// Runs `batch` once batched and once as k sequential single passes,
/// asserting every per-message observable is bit-identical. Returns the
/// batch's tallies.
fn assert_batch_equals_sequential(view: &TopologyView, batch: &[BatchMessage]) -> SimCounters {
    let mut batched = GossipScratch::new();
    let mut single = GossipScratch::new();
    let mut visited = 0usize;
    view.gossip_batch_into(batch, &mut batched, |i, s| {
        visited += 1;
        let msg = &batch[i];
        view.gossip_into(msg.source, &msg.config, &mut single);
        assert_eq!(s.source(), msg.source);
        for v in 0..view.len() as u32 {
            let v = NodeId::new(v);
            assert_eq!(
                s.arrival(v).as_ms().to_bits(),
                single.arrival(v).as_ms().to_bits(),
                "message {i} arrival at {v}"
            );
        }
        assert_eq!(
            bits(s.relay_starts()),
            bits(single.relay_starts()),
            "message {i} relay starts"
        );
        assert_eq!(
            bits(&rows(view, s, None)),
            bits(&rows(view, &single, None)),
            "message {i} delivery rows"
        );
        assert_eq!(s.reached(), single.reached());
        let fractions = [0.5, 0.9, 1.0];
        let mut via_batch = [SimTime::ZERO; 3];
        s.coverage_times_into(view, &fractions, &mut via_batch);
        let mut via_single = [SimTime::ZERO; 3];
        single.coverage_times_into(view, &fractions, &mut via_single);
        assert_eq!(via_batch, via_single, "message {i} coverage");
    });
    assert_eq!(visited, batch.len());
    batched.take_counters()
}

#[test]
fn batch_is_bit_identical_to_sequential() {
    for seed in 0..3 {
        let (pop, lat, topo, mut rng) = random_world(60, seed + 40);
        let view = TopologyView::new(&topo, &lat, &pop);
        let batch = mixed_batch(60, 24, &mut rng);
        assert_batch_equals_sequential(&view, &batch);
    }
}

/// Arrivals, relay starts and delivery rows of one message.
type Run = (Vec<SimTime>, Vec<SimTime>, Vec<SimTime>);

/// Every observable of the scratch's last single-message run, under
/// `faults` when it ran under them.
fn single_run(view: &TopologyView, s: &GossipScratch, faults: Option<&BlockFaults<'_>>) -> Run {
    (
        s.arrivals().to_vec(),
        s.relay_starts().to_vec(),
        rows(view, s, faults),
    )
}

#[test]
fn repeated_batches_reuse_the_scratch_without_drift() {
    let (pop, lat, topo, mut rng) = random_world(50, 7);
    let view = TopologyView::new(&topo, &lat, &pop);
    let regions: Vec<_> = pop.iter().map(|p| p.region).collect();
    let plan = FaultPlan {
        seed: 5,
        base: LinkFaultRates {
            drop_prob: 0.2,
            extra_delay: SimTime::from_ms(2.0),
            jitter: SimTime::from_ms(3.0),
            duplicate_prob: 0.25,
        },
        ..FaultPlan::default()
    };
    // Three consecutive batches through ONE scratch, with plain and
    // faulted single-message runs on the same scratch in between,
    // must equal fresh-scratch runs.
    let mut carried = GossipScratch::new();
    for round in 0..3 {
        let batch = mixed_batch(50, 16, &mut rng);
        let mut fresh = GossipScratch::new();
        let mut expect: Vec<Vec<SimTime>> = Vec::new();
        view.gossip_batch_into(&batch, &mut fresh, |_, s| {
            expect.push(s.arrivals().to_vec());
        });
        let mut got: Vec<Vec<SimTime>> = Vec::new();
        view.gossip_batch_into(&batch, &mut carried, |_, s| {
            got.push(s.arrivals().to_vec());
        });
        assert_eq!(expect, got, "round {round}");

        let msg = &batch[round];
        let mut fresh = GossipScratch::new();
        view.gossip_into(msg.source, &msg.config, &mut fresh);
        view.gossip_into(msg.source, &msg.config, &mut carried);
        assert_eq!(
            single_run(&view, &fresh, None),
            single_run(&view, &carried, None),
            "single message after round {round}"
        );

        let rf = plan.compile(round, &view, &regions);
        let bf = rf.block(round);
        let mut fresh = GossipScratch::new();
        view.gossip_into_faulted(msg.source, &msg.config, &mut fresh, Some(&bf));
        view.gossip_into_faulted(msg.source, &msg.config, &mut carried, Some(&bf));
        assert_eq!(
            single_run(&view, &fresh, Some(&bf)),
            single_run(&view, &carried, Some(&bf)),
            "faulted message after round {round}"
        );
    }
}

#[test]
fn traffic_stream_batches_match_sequential_passes() {
    let (pop, lat, topo, _) = random_world(80, 11);
    let view = TopologyView::new(&topo, &lat, &pop);
    let traffic = TrafficConfig::paper_stream(31);
    let messages = traffic.messages_for_round(2, &pop);
    assert!(messages.len() > 400, "paper stream should be dense");
    let mut batch = Vec::new();
    traffic.batch_for(&messages, &mut batch);
    // Sample-check the first 200 messages of the stream.
    assert_batch_equals_sequential(&view, &batch[..200]);
}

/// The first 400 messages of a `paper_stream` round hold runs of equal
/// messages; so does a mixed batch with each message repeated 1 to 6
/// times. The repeats equal their fresh runs, and the batch's tallies
/// are the sum of each message's fresh tallies: every repeat is charged
/// its run's, and `batch_repeats` counts the adjacent equal pairs.
#[test]
fn repeated_messages_equal_fresh_runs_and_their_tallies() {
    let (pop, lat, topo, mut rng) = random_world(80, 11);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut batch = Vec::new();
    for msg in mixed_batch(80, 24, &mut rng) {
        let copies = rng.gen_range(1..=6);
        batch.extend(std::iter::repeat_n(msg, copies));
    }
    let traffic = TrafficConfig::paper_stream(31);
    let mut stream = Vec::new();
    traffic.batch_for(&traffic.messages_for_round(2, &pop), &mut stream);
    batch.extend_from_slice(&stream[..400]);
    let pairs = batch.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    assert!(
        pairs > 100,
        "the batch must be run-heavy, has {pairs} repeats"
    );

    let got = assert_batch_equals_sequential(&view, &batch);
    let mut fresh = SimCounters::ZERO;
    for msg in &batch {
        let mut single = GossipScratch::new();
        view.gossip_into(msg.source, &msg.config, &mut single);
        fresh.merge(single.counters());
    }
    assert_eq!(got.batch_repeats, pairs);
    assert_eq!(got.batch_messages, batch.len() as u64);
    let counts = SimCounters {
        batch_messages: 0,
        batch_peak: 0,
        batch_repeats: 0,
        ..got
    };
    assert_eq!(counts, fresh, "a repeat is charged its run's tallies");
}

/// A visit that runs another message on the batch's own scratch (a
/// message from another source, or a flood) replaces the run the scratch
/// held, so the repeat that follows is simulated afresh, not served, and
/// still equals its own fresh run; the repeat after it is served again.
#[test]
fn a_visit_that_runs_on_the_scratch_voids_the_held_run() {
    let (pop, lat, topo, _) = random_world(60, 13);
    let view = TopologyView::new(&topo, &lat, &pop);
    let msg = BatchMessage {
        source: NodeId::new(4),
        config: GossipConfig::push_pull(0.002, 3),
    };
    let batch = [msg; 3];
    let mut fresh = GossipScratch::new();
    view.gossip_into(msg.source, &msg.config, &mut fresh);
    let expect = single_run(&view, &fresh, None);
    let other = NodeId::new(37);
    for intruder in ["gossip", "flood"] {
        let mut scratch = GossipScratch::new();
        view.gossip_batch_into(&batch, &mut scratch, |i, s| {
            assert_eq!(
                single_run(&view, s, None),
                expect,
                "{intruder}: message {i}"
            );
            assert_eq!(s.source(), msg.source, "{intruder}: message {i}");
            if i == 0 {
                match intruder {
                    "gossip" => view.gossip_into(other, &msg.config, s),
                    _ => view.broadcast_into(other, s),
                }
                assert_ne!(single_run(&view, s, None), expect, "{intruder} must run");
            }
        });
        let repeats = scratch.counters().batch_repeats;
        assert_eq!(repeats, 1, "{intruder}: only the last copy is served");
    }
}
