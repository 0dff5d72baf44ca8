//! Link latency models.
//!
//! The paper assumes a constant per-pair block-transfer latency `δ(u,v)`
//! (§2.1) assigned either from geographic measurements (the iPlane dataset,
//! §5.1) or from a metric embedding of the nodes into `[0,1]^d` (§3.1).
//! Both are provided here behind the [`LatencyModel`] trait, together with
//! an override wrapper used to model fast miner–miner links and relay
//! networks (§5.4).
//!
//! Following the paper's own metric-embedding argument (§3.1, Vivaldi
//! \[16\]: Internet hosts embed into a low-dimensional space whose distances
//! predict latency), [`GeoLatencyModel`] places every node at a point of a
//! 2-D *latency space*: its region's center plus an intra-region scatter,
//! plus a per-node "last-mile" access delay. Intra-continent link delays
//! then spread over ~5–60 ms and inter-continent ones over ~60–200 ms,
//! reproducing both the bimodal structure of Fig. 5 and the fine-grained
//! per-node heterogeneity Perigee learns to exploit.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::node::{NodeId, Region};
use crate::population::Population;
use crate::time::SimTime;

/// A symmetric point-to-point latency oracle: `δ(u,v)` in milliseconds.
///
/// Implementations must be symmetric (`delay(u,v) == delay(v,u)`; the paper
/// assumes symmetric latencies, footnote 1) and return `ZERO` for `u == v`.
pub trait LatencyModel: Send + Sync {
    /// One-way latency of sending a block between `u` and `v` over a direct
    /// connection.
    fn delay(&self, u: NodeId, v: NodeId) -> SimTime;

    /// Number of nodes covered by the model.
    fn len(&self) -> usize;

    /// Returns `true` if the model covers no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extends the model to cover every node of a grown `population` —
    /// the arrival path of the [`dynamics`](crate::dynamics) subsystem.
    /// Implementations must leave existing pairs' delays bit-identical and
    /// must be *construction-consistent*: growing an existing model node
    /// by node yields the exact model a fresh build over the grown
    /// population would (both [`GeoLatencyModel`] and
    /// [`MetricLatencyModel`] derive per-node attributes from
    /// `(seed, id)` alone, so this holds by construction).
    ///
    /// # Panics
    ///
    /// The default implementation panics: models that cannot grow reject
    /// dynamic worlds loudly rather than indexing out of bounds. (The
    /// blanket `&T` impl inherits this default — a shared reference
    /// cannot grow its target.)
    fn extend_for(&mut self, population: &Population) {
        let _ = population;
        panic!("this latency model does not support population growth");
    }

    /// Applies a free-list compaction plan (see
    /// [`Population::compaction_plan`](crate::Population::compaction_plan)):
    /// dead nodes' attributes are deleted and the survivors shift down to
    /// their new ids. The contract mirrors [`LatencyModel::extend_for`]'s
    /// bit-exactness the other way: for every surviving pair,
    /// `delay(new_u, new_v)` after compaction must equal
    /// `delay(old_u, old_v)` before it, bit for bit — the carried CSR
    /// view copies its cached delay floats through compaction and the
    /// engine asserts the compacted view equals a fresh build.
    ///
    /// # Panics
    ///
    /// The default implementation panics: models that cannot renumber
    /// reject compaction loudly rather than silently shifting delays.
    fn compact(&mut self, plan: &crate::population::IdRemap) {
        let _ = plan;
        panic!("this latency model does not support free-list compaction");
    }
}

impl<T: LatencyModel + ?Sized> LatencyModel for &T {
    fn delay(&self, u: NodeId, v: NodeId) -> SimTime {
        (**self).delay(u, v)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
}

impl<T: LatencyModel + ?Sized> LatencyModel for Box<T> {
    fn delay(&self, u: NodeId, v: NodeId) -> SimTime {
        (**self).delay(u, v)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn extend_for(&mut self, population: &Population) {
        (**self).extend_for(population);
    }
    fn compact(&mut self, plan: &crate::population::IdRemap) {
        (**self).compact(plan);
    }
}

/// Region centers in the 2-D latency space, in milliseconds, ordered as
/// [`Region::ALL`] (`[NA, SA, EU, AS, AF, CN, OC]`).
///
/// Pairwise center distances approximate measured one-way inter-region
/// latencies (e.g. NA–EU ≈ 47 ms, NA–Asia ≈ 115 ms, Europe–China ≈ 80 ms).
pub const REGION_CENTERS_MS: [(f64, f64); 7] = [
    (0.0, 0.0),     // North America
    (30.0, 65.0),   // South America
    (45.0, -15.0),  // Europe
    (115.0, -5.0),  // Asia
    (70.0, 25.0),   // Africa
    (125.0, -20.0), // China
    (130.0, 45.0),  // Oceania
];

/// Intra-region scatter radius (ms), ordered as [`Region::ALL`]. Nodes are
/// placed uniformly in a disc of this radius around their region center,
/// so same-region pairs see ~0–2·radius ms of propagation distance.
pub const REGION_RADIUS_MS: [f64; 7] = [20.0, 15.0, 12.0, 20.0, 15.0, 10.0, 12.0];

/// Per-node last-mile access delay range (ms): every link endpoint adds a
/// node-specific delay drawn uniformly from this range, modelling
/// residential vs datacenter connectivity (§1: "differences in bandwidth
/// ... across peers").
pub const ACCESS_DELAY_RANGE_MS: (f64, f64) = (1.0, 40.0);

/// Per-pair jitter of the geographic model's propagation distance: each
/// pair's distance is scaled by a fixed factor in `1 ± GEO_JITTER_FRAC`.
pub const GEO_JITTER_FRAC: f64 = 0.10;

/// Geographic latency model (§5.1): 2-D latency-space embedding.
///
/// `δ(u,v) = access(u) + access(v) + ‖pos(u) − pos(v)‖ · (1 ± jitter)`,
/// with `|jitter| ≤` [`GEO_JITTER_FRAC`], where positions, access delays
/// and the per-pair jitter are all deterministic functions of
/// `(seed, node id)` — the model is symmetric, memoryless and
/// reproducible without storing an `n×n` matrix.
///
/// # Examples
///
/// ```
/// use perigee_netsim::{GeoLatencyModel, LatencyModel, PopulationBuilder, NodeId};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pop = PopulationBuilder::new(50).build(&mut rng).unwrap();
/// let lat = GeoLatencyModel::new(&pop, 1);
/// let (a, b) = (NodeId::new(3), NodeId::new(17));
/// assert_eq!(lat.delay(a, b), lat.delay(b, a));
/// assert!(lat.delay(a, b).as_ms() > 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoLatencyModel {
    regions: Vec<Region>,
    pos: Vec<(f64, f64)>,
    access_ms: Vec<f64>,
    /// Per-node *placement key*: the hash input positions, access delays
    /// and per-pair jitter are derived from. Keys are assigned from a
    /// monotone counter at birth and survive free-list compaction
    /// unchanged, so every surviving pair's delay is bit-identical across
    /// a renumbering — current indices address the vectors, keys feed the
    /// hashes. For a never-compacted model `key[i] == i`, which makes the
    /// keyed hashes coincide with the historical index-hashed values.
    key: Vec<u64>,
    /// The next placement key [`GeoLatencyModel::extend_for`] assigns.
    /// Strictly greater than every key ever issued — compaction deletes
    /// key entries but never lowers this, so placements are never reused.
    next_key: u64,
    seed: u64,
}

impl GeoLatencyModel {
    /// Builds the model from a population's region assignment with the
    /// default geometry and ±10% per-pair jitter ([`GEO_JITTER_FRAC`]).
    pub fn new(population: &Population, seed: u64) -> Self {
        let n = population.len();
        let mut pos = Vec::with_capacity(n);
        let mut access_ms = Vec::with_capacity(n);
        let regions: Vec<Region> = population.iter().map(|p| p.region).collect();
        for (i, &region) in regions.iter().enumerate() {
            let (p, a) = place_node(seed, i as u64, region);
            pos.push(p);
            access_ms.push(a);
        }
        GeoLatencyModel {
            regions,
            pos,
            access_ms,
            key: (0..n as u64).collect(),
            next_key: n as u64,
            seed,
        }
    }

    /// The region of node `u`.
    pub fn region(&self, u: NodeId) -> Region {
        self.regions[u.index()]
    }

    /// Returns `true` if both endpoints are in the same region
    /// (used by the Fig. 5 intra/inter-continent histogram split).
    pub fn same_region(&self, u: NodeId, v: NodeId) -> bool {
        self.regions[u.index()] == self.regions[v.index()]
    }

    /// The node's position in latency space (ms coordinates).
    pub fn position(&self, u: NodeId) -> (f64, f64) {
        self.pos[u.index()]
    }

    /// The node's last-mile access delay (ms, added at each link endpoint).
    pub fn access_delay_ms(&self, u: NodeId) -> f64 {
        self.access_ms[u.index()]
    }
}

impl LatencyModel for GeoLatencyModel {
    fn delay(&self, u: NodeId, v: NodeId) -> SimTime {
        if u == v {
            return SimTime::ZERO;
        }
        let (a, b) = (u.index().min(v.index()), u.index().max(v.index()));
        let (ax, ay) = self.pos[a];
        let (bx, by) = self.pos[b];
        let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        // Jitter hashes the placement *keys*, not the current indices, so
        // a pair's delay survives free-list compaction bit for bit (keys
        // are monotone in index, so min/max by index is min/max by key).
        let x = unit_hash(self.seed, self.key[a], self.key[b]) * 2.0 - 1.0;
        let propagation = dist * (1.0 + GEO_JITTER_FRAC * x);
        SimTime::from_ms(self.access_ms[a] + self.access_ms[b] + propagation)
    }

    fn len(&self) -> usize {
        self.regions.len()
    }

    /// Places the new nodes in latency space. Positions, access delays
    /// and per-pair jitter are pure functions of `(seed, placement key)`
    /// — and keys are issued from a monotone counter, so the grown model
    /// is bit-identical to `GeoLatencyModel::new` over the grown
    /// population (while no compaction has run, keys coincide with ids)
    /// and every pre-existing pair keeps its exact delay either way.
    fn extend_for(&mut self, population: &Population) {
        assert!(
            population.len() >= self.regions.len(),
            "populations never shrink (stable ids)"
        );
        for i in self.regions.len()..population.len() {
            let region = population.profile(NodeId::new(i as u32)).region;
            let k = self.next_key;
            self.next_key += 1;
            let (p, a) = place_node(self.seed, k, region);
            self.regions.push(region);
            self.pos.push(p);
            self.access_ms.push(a);
            self.key.push(k);
        }
    }

    /// Deletes dead nodes' placements; survivors keep their keys (and
    /// therefore their positions, access delays and pairwise jitter) under
    /// their new, shifted-down indices — every surviving pair's delay is
    /// bit-identical across the renumbering.
    fn compact(&mut self, plan: &crate::population::IdRemap) {
        plan.retain_live(&mut self.regions);
        plan.retain_live(&mut self.pos);
        plan.retain_live(&mut self.access_ms);
        plan.retain_live(&mut self.key);
    }
}

/// The per-node placement shared by [`GeoLatencyModel::new`] and
/// [`GeoLatencyModel::extend_for`]: a uniform position in the disc around
/// the region center plus a last-mile access delay, both deterministic
/// functions of `(seed, placement key)` — the key is the node's id at
/// birth, stable across free-list compactions.
fn place_node(seed: u64, key: u64, region: Region) -> ((f64, f64), f64) {
    let (cx, cy) = REGION_CENTERS_MS[region.index()];
    let radius = REGION_RADIUS_MS[region.index()];
    let h1 = unit_hash(seed, key, 0x5EED_0001);
    let h2 = unit_hash(seed, key, 0x5EED_0002);
    let r = radius * h1.sqrt();
    let theta = 2.0 * std::f64::consts::PI * h2;
    let h3 = unit_hash(seed, key, 0x5EED_0003);
    let (lo, hi) = ACCESS_DELAY_RANGE_MS;
    (
        (cx + r * theta.cos(), cy + r * theta.sin()),
        lo + (hi - lo) * h3,
    )
}

/// Metric-embedding latency model (§3.1): nodes at points of `[0,1]^d`,
/// `δ(u,v) = scale · ‖Xu − Xv‖₂`.
///
/// Used by the theory experiments (Theorems 1 and 2, Fig. 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricLatencyModel {
    coords: Vec<Vec<f64>>,
    scale_ms: f64,
}

impl MetricLatencyModel {
    /// Builds the model from the population's coordinates with a scale
    /// converting unit distance to milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if any node lacks coordinates (build the population with
    /// [`PopulationBuilder::metric_dim`](crate::PopulationBuilder::metric_dim)).
    pub fn new(population: &Population, scale_ms: f64) -> Self {
        let coords: Vec<Vec<f64>> = population.iter().map(|p| p.coords.clone()).collect();
        assert!(
            coords.iter().all(|c| !c.is_empty()),
            "metric latency model requires node coordinates"
        );
        MetricLatencyModel { coords, scale_ms }
    }

    /// Euclidean distance between two nodes in the embedding (unitless).
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        let (a, b) = (&self.coords[u.index()], &self.coords[v.index()]);
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// The embedding coordinates of `u`.
    pub fn coords(&self, u: NodeId) -> &[f64] {
        &self.coords[u.index()]
    }
}

impl LatencyModel for MetricLatencyModel {
    fn delay(&self, u: NodeId, v: NodeId) -> SimTime {
        SimTime::from_ms(self.distance(u, v) * self.scale_ms)
    }

    fn len(&self) -> usize {
        self.coords.len()
    }

    /// Adopts the coordinates of every new node in the grown population.
    ///
    /// # Panics
    ///
    /// Panics if a new node lacks coordinates.
    fn extend_for(&mut self, population: &Population) {
        assert!(
            population.len() >= self.coords.len(),
            "populations never shrink (stable ids)"
        );
        for i in self.coords.len()..population.len() {
            let coords = population.profile(NodeId::new(i as u32)).coords.clone();
            assert!(
                !coords.is_empty(),
                "metric latency model requires node coordinates"
            );
            self.coords.push(coords);
        }
    }

    /// Deletes dead nodes' coordinates; delays are a pure function of the
    /// per-node coordinates, so surviving pairs are bit-identical.
    fn compact(&mut self, plan: &crate::population::IdRemap) {
        plan.retain_live(&mut self.coords);
    }
}

/// Wraps a base model and overrides specific pairs (fast miner–miner links
/// of Fig. 4(b), relay-tree links of Fig. 4(c)).
#[derive(Debug, Clone)]
pub struct OverrideLatencyModel<M> {
    base: M,
    overrides: HashMap<(NodeId, NodeId), SimTime>,
}

impl<M: LatencyModel> OverrideLatencyModel<M> {
    /// Wraps `base` with no overrides.
    pub fn new(base: M) -> Self {
        OverrideLatencyModel {
            base,
            overrides: HashMap::new(),
        }
    }

    /// Sets `δ(u,v) = δ(v,u) = delay`.
    pub fn set(&mut self, u: NodeId, v: NodeId, delay: SimTime) -> &mut Self {
        let key = ordered(u, v);
        self.overrides.insert(key, delay);
        self
    }

    /// Overrides every pair within `group` with `delay`
    /// (Fig. 4(b): low latency among high-power miners).
    pub fn set_clique(&mut self, group: &[NodeId], delay: SimTime) -> &mut Self {
        for (i, &u) in group.iter().enumerate() {
            for &v in &group[i + 1..] {
                self.set(u, v, delay);
            }
        }
        self
    }

    /// Number of overridden pairs.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// Returns the wrapped base model.
    pub fn into_inner(self) -> M {
        self.base
    }
}

impl<M: LatencyModel> LatencyModel for OverrideLatencyModel<M> {
    fn delay(&self, u: NodeId, v: NodeId) -> SimTime {
        if u == v {
            return SimTime::ZERO;
        }
        match self.overrides.get(&ordered(u, v)) {
            Some(&d) => d,
            None => self.base.delay(u, v),
        }
    }

    fn len(&self) -> usize {
        self.base.len()
    }

    fn extend_for(&mut self, population: &Population) {
        self.base.extend_for(population);
    }

    /// Compacts the base model and renumbers the override pairs; an
    /// override with a dead endpoint is dropped (the link is gone with
    /// the node).
    fn compact(&mut self, plan: &crate::population::IdRemap) {
        self.base.compact(plan);
        self.overrides = std::mem::take(&mut self.overrides)
            .into_iter()
            .filter_map(|((u, v), d)| {
                let u = plan.new_id(u)?;
                let v = plan.new_id(v)?;
                Some((ordered(u, v), d))
            })
            .collect();
    }
}

fn ordered(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Deterministic hash of `(seed, a, b)` to a uniform value in `[0, 1)`
/// (splitmix64 finalizer).
fn unit_hash(seed: u64, a: u64, b: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`). Only the two
    //! self-contained models serialize; `OverrideLatencyModel` is a test
    //! fixture and stays checkpoint-free.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::*;

    impl Encode for GeoLatencyModel {
        fn encode(&self, out: &mut Vec<u8>) {
            self.regions.encode(out);
            self.pos.encode(out);
            self.access_ms.encode(out);
            self.key.encode(out);
            self.next_key.encode(out);
            self.seed.encode(out);
        }
    }

    impl Decode for GeoLatencyModel {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let model = GeoLatencyModel {
                regions: Vec::decode(r)?,
                pos: Vec::decode(r)?,
                access_ms: Vec::decode(r)?,
                key: Vec::decode(r)?,
                next_key: u64::decode(r)?,
                seed: u64::decode(r)?,
            };
            if model.pos.len() != model.regions.len()
                || model.access_ms.len() != model.regions.len()
                || model.key.len() != model.regions.len()
            {
                return Err(DecodeError::new("geo model per-node lengths disagree"));
            }
            if model.key.windows(2).any(|w| w[0] >= w[1]) {
                return Err(DecodeError::new("geo model keys are not increasing"));
            }
            if model.key.last().is_some_and(|&k| k >= model.next_key) {
                return Err(DecodeError::new("geo model next_key is not fresh"));
            }
            Ok(model)
        }
    }

    impl Encode for MetricLatencyModel {
        fn encode(&self, out: &mut Vec<u8>) {
            self.coords.encode(out);
            self.scale_ms.encode(out);
        }
    }

    impl Decode for MetricLatencyModel {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(MetricLatencyModel {
                coords: Vec::decode(r)?,
                scale_ms: f64::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeProfile;
    use crate::population::PopulationBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pop(n: usize) -> Population {
        PopulationBuilder::new(n)
            .build(&mut StdRng::seed_from_u64(1))
            .unwrap()
    }

    #[test]
    fn region_centers_are_distinct_and_mostly_separated() {
        // Asia and China may legitimately overlap in latency space; all
        // other region pairs must be separated beyond their scatter radii.
        let mut overlapping = 0;
        for i in 0..7 {
            for j in (i + 1)..7 {
                let (ax, ay) = REGION_CENTERS_MS[i];
                let (bx, by) = REGION_CENTERS_MS[j];
                let d = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                assert!(d > 1.0, "regions {i} and {j} coincide");
                if d <= REGION_RADIUS_MS[i] + REGION_RADIUS_MS[j] {
                    overlapping += 1;
                }
            }
        }
        assert!(overlapping <= 1, "{overlapping} region pairs overlap");
    }

    #[test]
    fn intra_region_is_faster_than_inter_region_on_average() {
        let p = pop(400);
        let lat = GeoLatencyModel::new(&p, 7);
        let (mut intra, mut inter) = ((0.0, 0usize), (0.0, 0usize));
        for i in 0..400u32 {
            for j in (i + 1)..400u32 {
                let (u, v) = (NodeId::new(i), NodeId::new(j));
                let d = lat.delay(u, v).as_ms();
                if lat.same_region(u, v) {
                    intra = (intra.0 + d, intra.1 + 1);
                } else {
                    inter = (inter.0 + d, inter.1 + 1);
                }
            }
        }
        let (mi, mx) = (intra.0 / intra.1 as f64, inter.0 / inter.1 as f64);
        assert!(
            mi * 1.5 < mx,
            "intra {mi:.1} should be well below inter {mx:.1}"
        );
    }

    #[test]
    fn geo_model_is_symmetric_deterministic_and_positive() {
        let p = pop(60);
        let lat = GeoLatencyModel::new(&p, 7);
        let lat2 = GeoLatencyModel::new(&p, 7);
        for i in 0..10u32 {
            for j in 0..10u32 {
                let (u, v) = (NodeId::new(i), NodeId::new(j + 20));
                assert_eq!(lat.delay(u, v), lat.delay(v, u));
                assert_eq!(lat.delay(u, v), lat2.delay(u, v));
                assert!(lat.delay(u, v).as_ms() > 0.0);
            }
        }
    }

    #[test]
    fn geo_self_delay_is_zero() {
        let p = pop(5);
        let lat = GeoLatencyModel::new(&p, 7);
        assert_eq!(lat.delay(NodeId::new(2), NodeId::new(2)), SimTime::ZERO);
    }

    #[test]
    fn delays_include_access_floor_and_stay_bounded() {
        let p = pop(200);
        let lat = GeoLatencyModel::new(&p, 3);
        let floor = 2.0 * ACCESS_DELAY_RANGE_MS.0;
        // Max possible: two access delays + farthest centers + radii + jitter.
        let ceiling = 2.0 * ACCESS_DELAY_RANGE_MS.1 + 260.0 * (1.0 + GEO_JITTER_FRAC);
        for i in 0..200u32 {
            for j in (i + 1)..200u32 {
                let d = lat.delay(NodeId::new(i), NodeId::new(j)).as_ms();
                assert!(d >= floor, "delay {d} under access floor");
                assert!(d <= ceiling, "delay {d} above ceiling");
            }
        }
    }

    #[test]
    fn per_node_attributes_are_deterministic_and_in_range() {
        let p = pop(50);
        let lat = GeoLatencyModel::new(&p, 9);
        for i in 0..50u32 {
            let u = NodeId::new(i);
            let a = lat.access_delay_ms(u);
            assert!((ACCESS_DELAY_RANGE_MS.0..=ACCESS_DELAY_RANGE_MS.1).contains(&a));
            let (x, y) = lat.position(u);
            let (cx, cy) = REGION_CENTERS_MS[lat.region(u).index()];
            let r = ((x - cx).powi(2) + (y - cy).powi(2)).sqrt();
            assert!(r <= REGION_RADIUS_MS[lat.region(u).index()] + 1e-9);
        }
    }

    #[test]
    fn different_seeds_give_different_worlds() {
        let p = pop(30);
        let a = GeoLatencyModel::new(&p, 1);
        let b = GeoLatencyModel::new(&p, 2);
        let (u, v) = (NodeId::new(0), NodeId::new(1));
        assert_ne!(a.delay(u, v), b.delay(u, v));
    }

    #[test]
    fn metric_model_matches_euclidean_distance() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = PopulationBuilder::new(20)
            .metric_dim(2)
            .build(&mut rng)
            .unwrap();
        let lat = MetricLatencyModel::new(&p, 100.0);
        let (u, v) = (NodeId::new(0), NodeId::new(1));
        let dx = p.profile(u).coords[0] - p.profile(v).coords[0];
        let dy = p.profile(u).coords[1] - p.profile(v).coords[1];
        let expect = (dx * dx + dy * dy).sqrt() * 100.0;
        assert!((lat.delay(u, v).as_ms() - expect).abs() < 1e-9);
        assert_eq!(lat.delay(u, v), lat.delay(v, u));
    }

    #[test]
    fn override_model_overrides_symmetrically() {
        let p = pop(10);
        let mut lat = OverrideLatencyModel::new(GeoLatencyModel::new(&p, 7));
        let (u, v) = (NodeId::new(1), NodeId::new(8));
        lat.set(u, v, SimTime::from_ms(2.0));
        assert_eq!(lat.delay(u, v), SimTime::from_ms(2.0));
        assert_eq!(lat.delay(v, u), SimTime::from_ms(2.0));
        // Untouched pairs fall through to the base model.
        let (a, b) = (NodeId::new(0), NodeId::new(2));
        assert_eq!(lat.delay(a, b), GeoLatencyModel::new(&p, 7).delay(a, b));
    }

    #[test]
    fn override_clique_covers_all_pairs() {
        let p = pop(10);
        let mut lat = OverrideLatencyModel::new(GeoLatencyModel::new(&p, 7));
        let group: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        lat.set_clique(&group, SimTime::from_ms(1.0));
        assert_eq!(lat.override_count(), 6);
        for &u in &group {
            for &v in &group {
                if u != v {
                    assert_eq!(lat.delay(u, v), SimTime::from_ms(1.0));
                }
            }
        }
    }

    #[test]
    fn grown_geo_model_equals_fresh_build() {
        // Build a 60-node world, but hand the model only the first 40
        // nodes; growing it to 60 must reproduce the fresh 60-node model
        // bit for bit (per-node placement depends only on (seed, id)).
        let full = pop(60);
        let head = Population::from_profiles(full.iter().take(40).cloned().collect()).unwrap();
        let mut grown = GeoLatencyModel::new(&head, 7);
        grown.extend_for(&full);
        let fresh = GeoLatencyModel::new(&full, 7);
        assert_eq!(grown.len(), 60);
        for i in 0..60u32 {
            for j in (i + 1)..60u32 {
                let (u, v) = (NodeId::new(i), NodeId::new(j));
                assert_eq!(grown.delay(u, v), fresh.delay(u, v), "{u}-{v}");
            }
        }
    }

    #[test]
    fn grown_override_model_delegates_to_base() {
        let full = pop(20);
        let head = Population::from_profiles(full.iter().take(10).cloned().collect()).unwrap();
        let mut lat = OverrideLatencyModel::new(GeoLatencyModel::new(&head, 3));
        lat.set(NodeId::new(0), NodeId::new(5), SimTime::from_ms(2.0));
        lat.extend_for(&full);
        assert_eq!(lat.len(), 20);
        assert_eq!(
            lat.delay(NodeId::new(0), NodeId::new(5)),
            SimTime::from_ms(2.0)
        );
        let fresh = GeoLatencyModel::new(&full, 3);
        assert_eq!(
            lat.delay(NodeId::new(4), NodeId::new(17)),
            fresh.delay(NodeId::new(4), NodeId::new(17))
        );
    }

    /// Builds the compaction plan for `pop` after retiring `dead`, and
    /// asserts every surviving pair's delay is bit-identical across it.
    fn assert_compact_preserves_delays<M: LatencyModel + Clone>(
        pop: &mut Population,
        lat: &mut M,
        dead: &[u32],
    ) -> crate::population::IdRemap {
        for &d in dead {
            assert!(pop.retire(NodeId::new(d)));
        }
        let before = lat.clone();
        let plan = pop.compaction_plan().expect("dead slots to reclaim");
        lat.compact(&plan);
        pop.compact(&plan);
        assert_eq!(lat.len(), pop.len());
        for (old_u, new_u) in plan.iter_live() {
            for (old_v, new_v) in plan.iter_live() {
                if old_u == old_v {
                    continue;
                }
                assert_eq!(
                    lat.delay(new_u, new_v),
                    before.delay(old_u, old_v),
                    "{old_u}->{new_u} vs {old_v}->{new_v}"
                );
            }
        }
        plan
    }

    #[test]
    fn geo_compact_preserves_surviving_pair_delays_bit_for_bit() {
        let mut p = pop(40);
        let mut lat = GeoLatencyModel::new(&p, 7);
        assert_compact_preserves_delays(&mut p, &mut lat, &[0, 7, 13, 39]);
    }

    #[test]
    fn geo_compact_never_reuses_placement_keys() {
        // Retire the *last* node, compact, then grow again: the new node
        // must get a fresh placement, not the retired node's key.
        let mut p = pop(10);
        let mut lat = GeoLatencyModel::new(&p, 7);
        let retired_delay = lat.delay(NodeId::new(0), NodeId::new(9));
        assert!(p.retire(NodeId::new(9)));
        let plan = p.compaction_plan().unwrap();
        lat.compact(&plan);
        p.compact(&plan);
        let spawned = p.spawn(NodeProfile {
            region: Region::Europe,
            ..NodeProfile::default()
        });
        assert_eq!(spawned, NodeId::new(9), "renumbered world reuses index 9");
        lat.extend_for(&p);
        assert_ne!(
            lat.delay(NodeId::new(0), spawned),
            retired_delay,
            "index reuse must not mean placement reuse"
        );
        // And survivors still match the pre-retirement world exactly.
        let fresh = GeoLatencyModel::new(&pop(10), 7);
        for i in 0..9u32 {
            for j in (i + 1)..9u32 {
                let (u, v) = (NodeId::new(i), NodeId::new(j));
                assert_eq!(lat.delay(u, v), fresh.delay(u, v), "{u}-{v}");
            }
        }
    }

    #[test]
    fn metric_and_override_compact_preserve_delays() {
        let mut p = PopulationBuilder::new(30)
            .metric_dim(3)
            .build(&mut StdRng::seed_from_u64(1))
            .unwrap();
        let mut lat = MetricLatencyModel::new(&p, 50.0);
        assert_compact_preserves_delays(&mut p, &mut lat, &[2, 29]);

        let mut p = pop(20);
        let mut lat = OverrideLatencyModel::new(GeoLatencyModel::new(&p, 3));
        lat.set(NodeId::new(1), NodeId::new(5), SimTime::from_ms(2.0));
        lat.set(NodeId::new(0), NodeId::new(4), SimTime::from_ms(9.0));
        let plan = assert_compact_preserves_delays(&mut p, &mut lat, &[0, 10]);
        // The override naming a dead endpoint is gone; the live one moved.
        assert_eq!(
            lat.delay(plan.remap(NodeId::new(1)), plan.remap(NodeId::new(5))),
            SimTime::from_ms(2.0)
        );
    }

    #[test]
    fn unit_hash_is_uniform_enough() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            sum += unit_hash(42, i, i * 7 + 1);
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }
}
