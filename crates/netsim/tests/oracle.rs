//! Small checks of the scratch against the `perigee-oracle` definitions:
//! delivery rows against the seed engine's logs, λ(f) against the
//! sort-and-scan definition on both branches of the production scan, and
//! relay behaviours through the view. A unit-test build of this crate
//! cannot link the oracle (it would be a second copy of the crate), so
//! these live here rather than beside the code they check.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_netsim::{
    Behavior, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipScratch, HashPowerDist,
    NodeId, Population, PopulationBuilder, SimTime, Topology, TopologyView,
};

/// A ring plus random chords, so the graph is connected.
fn random_world_with(
    n: usize,
    seed: u64,
    hash_power: HashPowerDist,
) -> (Population, GeoLatencyModel, Topology) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n)
        .hash_power(hash_power)
        .build(&mut rng)
        .unwrap();
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
    (pop, lat, topo)
}

fn random_world(n: usize, seed: u64) -> (Population, GeoLatencyModel, Topology) {
    random_world_with(n, seed, HashPowerDist::Uniform)
}

/// Gossips one block from `src` into a fresh scratch.
fn gossip(view: &TopologyView, src: u32, cfg: &GossipConfig) -> GossipScratch {
    let mut scratch = GossipScratch::new();
    view.gossip_into(NodeId::new(src), cfg, &mut scratch);
    scratch
}

/// λ(`fraction`) of the last block.
fn coverage(view: &TopologyView, s: &mut GossipScratch, fraction: f64) -> SimTime {
    let mut out = [SimTime::ZERO];
    s.coverage_times_into(view, &[fraction], &mut out);
    out[0]
}

#[test]
fn delivery_rows_match_the_reference_logs() {
    let (pop, lat, topo) = random_world(40, 21);
    let view = TopologyView::new(&topo, &lat, &pop);
    let cfg = GossipConfig::inv_getdata(0.0);
    let scratch = gossip(&view, 3, &cfg);
    let (_, logs) = perigee_oracle::gossip_block(&topo, &lat, &pop, NodeId::new(3), &cfg);
    let rows = perigee_oracle::collect_rows(&scratch, &view, None);
    let mut total = 0;
    for i in 0..view.len() as u32 {
        let v = NodeId::new(i);
        let row = &rows[v.index()];
        total += row.len();
        for (k, u) in view.neighbors(v).enumerate() {
            assert_eq!(
                logs[v.index()].get(&u).copied(),
                row[k].is_finite().then(|| row[k])
            );
        }
    }
    assert_eq!(total, view.directed_edge_count());
}

#[test]
fn coverage_fractions_clamp_but_reject_nan() {
    let (pop, lat, topo) = random_world(30, 93);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut scratch = gossip(&view, 0, &GossipConfig::flood());
    let cov = perigee_oracle::coverage_times(scratch.arrivals(), &pop, &[1.7, 1.0, -0.3, 0.0]);
    assert_eq!(
        cov[0], cov[1],
        "over-unity fractions clamp to full coverage"
    );
    assert_eq!(
        cov[2], cov[3],
        "negative fractions clamp to the first arrival"
    );
    let mut clamped = [SimTime::ZERO; 2];
    scratch.coverage_times_into(&view, &[-1.0, 2.0], &mut clamped);
    let mut exact = [SimTime::ZERO; 2];
    scratch.coverage_times_into(&view, &[0.0, 1.0], &mut exact);
    assert_eq!(clamped, exact);
}

#[test]
fn gossip_scratch_coverage_matches_reference_coverage() {
    let (pop, lat, topo) = random_world(60, 29);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut scratch = gossip(&view, 7, &GossipConfig::inv_getdata(0.0));
    let fractions = [0.5, 0.9, 1.0];
    let mut multi = [SimTime::ZERO; 3];
    scratch.coverage_times_into(&view, &fractions, &mut multi);
    let expected = perigee_oracle::coverage_times(scratch.arrivals(), &pop, &fractions);
    assert_eq!(multi.as_slice(), expected.as_slice());
    assert_eq!(multi[1], coverage(&view, &mut scratch, 0.9));
}

/// Both branches of the production λ(f) — the selection under
/// uniform hash power and the sort-and-scan otherwise — against the
/// reference definition. The view's unit test
/// `uniform_power_takes_the_selection_branch` checks that these two
/// worlds take those two branches.
#[test]
fn view_scratch_coverage_matches_reference_coverage() {
    for dist in [HashPowerDist::Uniform, HashPowerDist::Exponential] {
        let (pop, lat, topo) = random_world_with(100, 9, dist.clone());
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut scratch = GossipScratch::new();
        for src in [4u32, 57] {
            view.broadcast_into(NodeId::new(src), &mut scratch);
            let fractions = [0.0, 0.5, 0.9, 1.0];
            let mut cov = [SimTime::ZERO; 4];
            scratch.coverage_times_into(&view, &fractions, &mut cov);
            let expected = perigee_oracle::coverage_times(scratch.arrivals(), &pop, &fractions);
            assert_eq!(cov.as_slice(), expected.as_slice(), "{dist:?} source {src}");
        }
    }
}

#[test]
fn behaviors_are_honoured_through_the_view() {
    let (mut pop, lat, topo) = random_world(40, 5);
    pop.profile_mut(NodeId::new(3)).behavior = Behavior::Silent;
    pop.profile_mut(NodeId::new(7)).behavior = Behavior::Delay(SimTime::from_ms(250.0));
    let view = TopologyView::new(&topo, &lat, &pop);
    let (expected, _) =
        perigee_oracle::gossip_block(&topo, &lat, &pop, NodeId::new(0), &GossipConfig::flood());
    let mut scratch = GossipScratch::new();
    view.broadcast_into(NodeId::new(0), &mut scratch);
    assert_eq!(scratch.arrivals(), expected.as_slice());
    assert!(scratch.relay_start(NodeId::new(3)).is_infinite());
}
