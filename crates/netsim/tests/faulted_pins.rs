//! Pinned results of both propagation engines under an *active* fault
//! plan: link drops, extra delay with jitter, duplication, flapping links
//! and a regional slowdown, all at once.
//!
//! The inert-plan proptests prove a no-op lens changes nothing, and the
//! flood-vs-analytic suites compare two engines that share a lens. Neither
//! notices if a change applies the lens to the wrong leg (the GETDATA leg
//! instead of the INV leg, say) in *both* places. These tests hash every
//! observable of each faulted run — arrivals, relay starts, every
//! faulted delivery row of the message-level engine, and the relay,
//! delivery and fault tallies — and compare the digest with a pinned
//! constant.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_netsim::{
    ConnectionLimits, FaultPlan, GeoLatencyModel, GossipConfig, GossipScratch, LinkFaultRates,
    LinkFlaps, NodeId, Population, PopulationBuilder, Region, RegionalWindow, SimTime, Topology,
    TopologyView,
};

const NODES: usize = 90;
const ROUNDS: usize = 3;
const BLOCKS_PER_ROUND: usize = 4;

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

/// Every fault kind the lens knows, active in every pinned round.
fn hostile_plan() -> FaultPlan {
    FaultPlan {
        seed: 23,
        base: LinkFaultRates {
            drop_prob: 0.15,
            extra_delay: SimTime::from_ms(4.0),
            jitter: SimTime::from_ms(6.0),
            duplicate_prob: 0.3,
        },
        flaps: Some(LinkFlaps {
            fraction: 0.2,
            period: 3,
            down: 1,
        }),
        regional: vec![RegionalWindow {
            region: Region::Europe,
            start: 0,
            end: ROUNDS,
            slow_factor: 2.5,
        }],
        ..FaultPlan::default()
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn time(&mut self, t: SimTime) {
        self.word(t.as_ms().to_bits());
    }
}

/// The pinned world's miners, one list per round, plus the regions the
/// plan compiles against.
fn world() -> (TopologyView, Vec<Region>, Vec<Vec<NodeId>>) {
    let (pop, lat, topo, mut rng) = random_world(NODES, 61);
    let view = TopologyView::new(&topo, &lat, &pop);
    let regions = pop.iter().map(|p| p.region).collect();
    let miners = (0..ROUNDS)
        .map(|_| {
            (0..BLOCKS_PER_ROUND)
                .map(|_| NodeId::new(rng.gen_range(0..NODES as u32)))
                .collect()
        })
        .collect();
    (view, regions, miners)
}

/// Digest of every faulted message-level run of `config`:
/// per block, the arrivals and every faulted delivery row in CSR edge
/// order, then the run's relay, delivery and fault tallies.
fn gossip_digest(config: &GossipConfig) -> (u64, usize) {
    let (view, regions, miners) = world();
    let plan = hostile_plan();
    let mut scratch = GossipScratch::new();
    let mut fnv = Fnv::new();
    let mut drops = 0;
    for (round, blocks) in miners.iter().enumerate() {
        let rf = plan.compile(round, &view, &regions);
        assert!(!rf.is_inert(), "the pinned plan must be active");
        for (j, &miner) in blocks.iter().enumerate() {
            let bf = rf.block(round * BLOCKS_PER_ROUND + j);
            view.gossip_into_faulted(miner, config, &mut scratch, Some(&bf));
            for &t in scratch.arrivals() {
                fnv.time(t);
            }
            for t in perigee_oracle::collect_rows(&scratch, &view, Some(&bf)).concat() {
                drops += usize::from(t.is_infinite());
                fnv.time(t);
            }
        }
    }
    // Not the queue tallies (`gossip_pops`, `gossip_elided`): those count
    // the work of whichever path ran, not what was simulated.
    let c = scratch.counters();
    for w in [
        c.gossip_relays,
        c.gossip_deliveries,
        c.fault_drops,
        c.fault_delays,
        c.fault_dupes,
    ] {
        fnv.word(w);
    }
    (fnv.0, drops)
}

/// Digest of every faulted analytic flood: per block, the
/// arrivals and the relay starts, then the run's event and fault
/// tallies.
fn flood_digest() -> u64 {
    let (view, regions, miners) = world();
    let plan = hostile_plan();
    let mut scratch = GossipScratch::new();
    let mut fnv = Fnv::new();
    for (round, blocks) in miners.iter().enumerate() {
        let rf = plan.compile(round, &view, &regions);
        for (j, &miner) in blocks.iter().enumerate() {
            let bf = rf.block(round * BLOCKS_PER_ROUND + j);
            view.broadcast_into_faulted(miner, &mut scratch, Some(&bf));
            for (&a, &r) in scratch.arrivals().iter().zip(scratch.relay_starts()) {
                fnv.time(a);
                fnv.time(r);
            }
        }
    }
    let c = scratch.counters();
    for w in [
        c.flood_pops,
        c.flood_relaxations,
        c.flood_improvements,
        c.fault_drops,
        c.fault_delays,
        c.fault_dupes,
    ] {
        fnv.word(w);
    }
    fnv.0
}

fn assert_gossip_pinned(config: GossipConfig, pinned: u64) {
    let (digest, drops) = gossip_digest(&config);
    assert!(drops > 0, "faults must leave some edges undelivered");
    assert_eq!(
        digest, pinned,
        "faulted {:?} run diverged from its pinned digest: got {digest:#018x}",
        config.mode
    );
}

#[test]
fn faulted_flood_gossip_matches_pinned_digest() {
    assert_gossip_pinned(GossipConfig::flood(), 0x03f9_348d_4256_02b2);
}

#[test]
fn faulted_inv_getdata_matches_pinned_digest() {
    assert_gossip_pinned(GossipConfig::inv_getdata(0.0), 0xac0b_67ce_d860_2a0b);
}

#[test]
fn faulted_inv_getdata_with_transfer_matches_pinned_digest() {
    assert_gossip_pinned(GossipConfig::inv_getdata(0.5), 0x5d51_85bf_c691_23dd);
}

#[test]
fn faulted_push_pull_matches_pinned_digest() {
    assert_gossip_pinned(GossipConfig::push_pull(0.05, 3), 0xf847_843a_1d40_a43e);
}

#[test]
fn faulted_analytic_flood_matches_pinned_digest() {
    let digest = flood_digest();
    assert_eq!(
        digest, 0x0ec0_e17b_2ca3_f513,
        "faulted analytic flood diverged from its pinned digest: got {digest:#018x}"
    );
}
