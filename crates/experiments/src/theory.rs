//! The theory experiments: Figure 1 and empirical checks of Theorems 1–2.
//!
//! Nodes are embedded uniformly in `[0,1]^d` (§3.1's metric model, latency
//! = Euclidean distance). *Stretch* of a pair is the ratio of its shortest
//! path length on the overlay to its straight-line distance.
//!
//! * Theorem 1: on a `G(n, p)` random graph with `p = c·log n / n`, the
//!   stretch of well-separated pairs grows with `n` (a log-factor
//!   suboptimality).
//! * Theorem 2: on a geometric graph with `r = Θ((log n / n)^{1/d})`, the
//!   stretch is bounded by a constant `ξ` independent of `n`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_metrics::{percentile_or_inf, Table};
use perigee_netsim::{
    BroadcastScratch, ConnectionLimits, MetricLatencyModel, NodeId, NodeProfile, Population,
    SimTime, Topology, TopologyView,
};
use perigee_topology::{GeometricBuilder, RandomBuilder, TopologyBuilder};

/// A metric world: points in the hypercube with zero validation delay, so
/// graph distance is a pure sum of edge lengths.
#[derive(Debug)]
pub struct MetricWorld {
    /// The embedded population.
    pub population: Population,
    /// The Euclidean latency oracle (scale 1.0: delay in "unit distance").
    pub latency: MetricLatencyModel,
}

/// Samples `n` points uniformly in `[0,1]^d`.
pub fn metric_world(n: usize, d: usize, seed: u64) -> MetricWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let profiles: Vec<NodeProfile> = (0..n)
        .map(|_| NodeProfile {
            coords: (0..d).map(|_| rng.gen::<f64>()).collect(),
            hash_power: 1.0,
            validation_delay: SimTime::ZERO,
            ..NodeProfile::default()
        })
        .collect();
    let population = Population::from_profiles(profiles).expect("n >= 1");
    let latency = MetricLatencyModel::new(&population, 1.0);
    MetricWorld {
        population,
        latency,
    }
}

/// Builds a `G(n, p)` Erdős–Rényi graph with `p = c·log n / n`.
pub fn gnp_graph(n: usize, c: f64, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (c * (n as f64).ln() / n as f64).min(1.0);
    let mut topo = Topology::new(n, ConnectionLimits::unlimited());
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            if rng.gen::<f64>() < p {
                let _ = topo.connect(NodeId::new(i), NodeId::new(j));
            }
        }
    }
    topo
}

/// Median stretch of well-separated pairs (`‖Xi−Xj‖ ≥ min_separation`)
/// from `sources` sampled source nodes. Unreachable pairs contribute `∞`.
pub fn median_stretch(
    world: &MetricWorld,
    topology: &Topology,
    sources: usize,
    min_separation: f64,
    seed: u64,
) -> f64 {
    let n = world.population.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stretches = Vec::new();
    let view = TopologyView::new(topology, &world.latency, &world.population);
    let mut prop = BroadcastScratch::new();
    for _ in 0..sources {
        let s = NodeId::new(rng.gen_range(0..n as u32));
        view.broadcast_into(s, &mut prop);
        for j in 0..n as u32 {
            let t = NodeId::new(j);
            let direct = world.latency.distance(s, t);
            if direct < min_separation {
                continue;
            }
            stretches.push(prop.arrival(t).as_ms() / direct);
        }
    }
    percentile_or_inf(&stretches, 50.0)
}

/// One sweep point of the Theorem 1/2 experiment.
#[derive(Debug, Clone, Copy)]
pub struct StretchPoint {
    /// Network size.
    pub n: usize,
    /// Median stretch on the `G(n, c log n / n)` random graph.
    pub random_stretch: f64,
    /// Median stretch on the geometric graph with the Theorem 2 radius.
    pub geometric_stretch: f64,
}

/// The theorem-validation sweep result.
#[derive(Debug, Clone)]
pub struct TheoremResult {
    /// Sweep points in ascending `n`.
    pub points: Vec<StretchPoint>,
    /// Embedding dimension.
    pub dim: usize,
}

impl TheoremResult {
    /// Summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "n".into(),
            "random stretch (Thm 1)".into(),
            "geometric stretch (Thm 2)".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                p.n.to_string(),
                format!("{:.2}", p.random_stretch),
                format!("{:.2}", p.geometric_stretch),
            ]);
        }
        t
    }
}

/// Runs the sweep: for each `n`, build both graphs on the same point set
/// and measure median stretch of well-separated pairs.
pub fn run_theorems(sizes: &[usize], dim: usize, seed: u64) -> TheoremResult {
    let points = sizes
        .iter()
        .map(|&n| {
            let world = metric_world(n, dim, seed);
            let random = gnp_graph(n, 2.0, seed ^ 1);
            let r = GeometricBuilder::theorem2_threshold_ms(n, dim, 1.0, 2.0);
            let mut rng = StdRng::seed_from_u64(seed ^ 2);
            let geometric = GeometricBuilder::with_threshold_ms(r).build(
                &world.population,
                &world.latency,
                ConnectionLimits::unlimited(),
                &mut rng,
            );
            StretchPoint {
                n,
                random_stretch: median_stretch(&world, &random, 5, 0.5, seed ^ 3),
                geometric_stretch: median_stretch(&world, &geometric, 5, 0.5, seed ^ 4),
            }
        })
        .collect();
    TheoremResult { points, dim }
}

/// The Figure 1 anecdote: corner-to-corner paths in the unit square.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Result {
    /// Straight-line distance between the corner nodes.
    pub euclidean: f64,
    /// Shortest-path length on the degree-3 random graph (Fig. 1(a)).
    pub random_path: f64,
    /// Shortest-path length on the geometric graph (Fig. 1(b)).
    pub geometric_path: f64,
}

impl Fig1Result {
    /// Stretch on the random topology.
    pub fn random_stretch(&self) -> f64 {
        self.random_path / self.euclidean
    }

    /// Stretch on the geometric topology.
    pub fn geometric_stretch(&self) -> f64 {
        self.geometric_path / self.euclidean
    }
}

/// Reproduces Fig. 1: 1000 points in the unit square, a node near (0,0)
/// and a node near (1,1), paths on a degree-3 random graph vs a geometric
/// graph.
pub fn run_fig1(n: usize, seed: u64) -> Fig1Result {
    let world = metric_world(n, 2, seed);
    // Corner nodes: minimize / maximize x+y.
    let (mut a, mut b) = (NodeId::new(0), NodeId::new(0));
    let (mut amin, mut bmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n as u32 {
        let c = world.latency.coords(NodeId::new(i));
        let s = c[0] + c[1];
        if s < amin {
            amin = s;
            a = NodeId::new(i);
        }
        if s > bmax {
            bmax = s;
            b = NodeId::new(i);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    // Fig. 1(a): each node connects to 3 random others.
    let random = RandomBuilder::new().build(
        &world.population,
        &world.latency,
        ConnectionLimits::new(3, None),
        &mut rng,
    );
    // Fig. 1(b): geometric graph at the connectivity radius.
    let r = GeometricBuilder::theorem2_threshold_ms(n, 2, 1.0, 2.0);
    let geometric = GeometricBuilder::with_threshold_ms(r).build(
        &world.population,
        &world.latency,
        ConnectionLimits::unlimited(),
        &mut rng,
    );
    let euclidean = world.latency.distance(a, b);
    let mut scratch = BroadcastScratch::new();
    let mut path = |topology: &Topology| {
        TopologyView::new(topology, &world.latency, &world.population)
            .broadcast_into(a, &mut scratch);
        scratch.arrival(b).as_ms()
    };
    let random_path = path(&random);
    let geometric_path = path(&geometric);
    Fig1Result {
        euclidean,
        random_path,
        geometric_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem2_stretch_is_small_and_stable() {
        let r = run_theorems(&[300, 900], 2, 11);
        for p in &r.points {
            assert!(
                p.geometric_stretch < 2.0,
                "geometric stretch should be a small constant, got {}",
                p.geometric_stretch
            );
        }
        // Geometric stretch does not blow up with n (constant factor).
        let g0 = r.points[0].geometric_stretch;
        let g1 = r.points[1].geometric_stretch;
        assert!((g1 / g0) < 1.5, "stretch ratio {g0} -> {g1}");
    }

    #[test]
    fn theorem1_random_graph_is_worse_than_geometric() {
        let r = run_theorems(&[600], 2, 13);
        let p = r.points[0];
        assert!(
            p.random_stretch > p.geometric_stretch,
            "random {} should exceed geometric {}",
            p.random_stretch,
            p.geometric_stretch
        );
        assert_eq!(r.table().len(), 1);
    }

    #[test]
    fn fig1_geometric_path_is_straighter() {
        let f = run_fig1(500, 5);
        assert!(f.euclidean > 1.0, "corners are far apart");
        assert!(
            f.geometric_stretch() < f.random_stretch(),
            "geometric {} vs random {}",
            f.geometric_stretch(),
            f.random_stretch()
        );
        assert!(f.geometric_stretch() < 1.6);
    }
}
