//! Node populations and their construction.
//!
//! A [`Population`] is the set of simulated nodes with all their static
//! attributes (region, hash power, validation delay, coordinates, bandwidth,
//! behaviour). Build one with [`PopulationBuilder`].
//!
//! # Dynamic worlds: the stable-id contract
//!
//! Populations are no longer frozen at construction: the
//! [`dynamics`](crate::dynamics) subsystem grows and shrinks them through
//! [`Population::spawn`] and [`Population::retire`] under one invariant —
//! **a [`NodeId`] is never reused within a run**. `spawn` always appends a
//! fresh slot (ids grow monotonically), and `retire` marks a slot dead
//! instead of deleting it, so every flat per-node array in the workspace
//! (topology adjacency, CSR views, score histories, address books) stays
//! indexed by the same ids for the whole run and learned state can never
//! silently alias a newcomer. Dead slots are *skipped*, not reclaimed:
//! they hold zero hash power (so miners, coverage fractions and samplers
//! ignore them), keep no edges, and [`Population::ids_alive`] /
//! [`Population::alive_count`] expose the live subset. The per-slot
//! `alive` flags are the one record of who is dead: the population keeps
//! only a count of dead slots beside them (so `alive_count` is O(1)), and
//! the checkpoint decoder recomputes that count from the flags.
//!
//! # Dead-slot compaction
//!
//! Dead slots are cheap but not free: every flat per-node array (CSR
//! offsets, relay profiles, score histories) keeps paying one entry per
//! retired id, so a long churny run's arrays grow without bound even at a
//! steady live count. [`Population::compaction_plan`] and
//! [`Population::compact`] offer the explicit escape hatch: the plan is an
//! [`IdRemap`] — the order-preserving renumbering that deletes dead slots
//! and shifts survivors down — and *every* structure holding node ids must
//! be remapped through the same plan in the same step (the engine's
//! `compact()` orchestrates this). Compaction is deliberately **not**
//! automatic or implicit: it renumbers the id space, which is a semantic
//! world edit (like churn itself), never a transparent optimization — ids
//! remain stable *between* compactions, and each compaction bumps an
//! epoch counter carried in checkpoints so resumed runs agree on the
//! numbering.
//!
//! After a batch of spawns/retires, call
//! [`Population::renormalize_hash_power`] to restore the "alive hash
//! powers sum to 1" invariant that every coverage computation relies on.

use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::NetsimError;
use crate::node::{is_relay_delay, Behavior, NodeId, NodeProfile, Region};
use crate::time::SimTime;

/// An order-preserving node-id renumbering: the compaction plan produced
/// by [`Population::compaction_plan`], consumed by every structure that
/// holds node ids.
///
/// `forward[old]` is the surviving node's new id, or a tombstone for dead
/// slots. Live ids map monotonically (`old_a < old_b` ⇒ `new_a < new_b`),
/// which is what lets CSR rows, sorted neighbor lists and sorted
/// per-peer state be remapped in place without re-sorting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdRemap {
    /// New id per old slot; [`IdRemap::DEAD`] marks deleted slots.
    forward: Vec<u32>,
    /// Number of surviving (live) slots.
    new_len: usize,
}

impl IdRemap {
    /// The tombstone marking a deleted (dead) slot.
    pub const DEAD: u32 = u32::MAX;

    /// Number of slots before compaction.
    #[inline]
    pub fn old_len(&self) -> usize {
        self.forward.len()
    }

    /// Number of slots after compaction (the live count).
    #[inline]
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// How many dead slots the plan reclaims.
    #[inline]
    pub fn reclaimed(&self) -> usize {
        self.forward.len() - self.new_len
    }

    /// The new id of `old`, or `None` if the slot is dead (or out of
    /// range — a stale id from before an earlier compaction).
    #[inline]
    pub fn new_id(&self, old: NodeId) -> Option<NodeId> {
        match self.forward.get(old.index()) {
            Some(&new) if new != Self::DEAD => Some(NodeId::new(new)),
            _ => None,
        }
    }

    /// The new id of a live `old` id.
    ///
    /// # Panics
    ///
    /// Panics if `old` is dead or out of range — remapping a structure
    /// that still references a dead node means its retire path leaked.
    #[inline]
    pub fn remap(&self, old: NodeId) -> NodeId {
        self.new_id(old)
            .unwrap_or_else(|| panic!("compaction: {old} is dead or out of range"))
    }

    /// Keeps the entries of the surviving slots of a per-slot array, in
    /// order — the compaction step every id-indexed structure shares.
    ///
    /// # Panics
    ///
    /// Panics if `slots` does not hold one entry per slot before
    /// compaction.
    pub fn retain_live<T>(&self, slots: &mut Vec<T>) {
        assert_eq!(
            slots.len(),
            self.old_len(),
            "compaction plan covers a different world size"
        );
        let mut live = self.forward.iter().map(|&new| new != Self::DEAD);
        slots.retain(|_| live.next().expect("lengths checked above"));
    }

    /// Iterates `(old, new)` id pairs of surviving nodes, ascending.
    pub fn iter_live(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.forward
            .iter()
            .enumerate()
            .filter(|(_, &new)| new != Self::DEAD)
            .map(|(old, &new)| (NodeId::new(old as u32), NodeId::new(new)))
    }
}

/// How hash power is distributed across the population (§5.1–§5.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum HashPowerDist {
    /// Every node has the same hash power (the paper's default).
    #[default]
    Uniform,
    /// Hash power drawn i.i.d. from an exponential distribution of mean 1
    /// and normalized (Fig. 3(b)).
    Exponential,
    /// A `fraction_of_nodes` random subset of "mining-pool" nodes jointly
    /// holds `fraction_of_power` of the total hash power; remaining power is
    /// spread uniformly over the other nodes (Fig. 4(b) uses 10% / 90%).
    Pools {
        /// Fraction of nodes that are high-power miners, in `(0, 1]`.
        fraction_of_nodes: f64,
        /// Fraction of total hash power those miners jointly hold, in `[0, 1]`.
        fraction_of_power: f64,
    },
}

/// How validation delay is distributed across the population.
///
/// §2.1: "each node v spends a fixed amount of time Δv … Δv varies between
/// nodes depending on their processing power"; §5.1 sets the *mean* to
/// 50 ms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValidationDist {
    /// All nodes share one fixed delay.
    Constant(SimTime),
    /// Per-node delay drawn from an exponential distribution with the
    /// given mean — the evaluation default (heterogeneous processing
    /// power with a long tail of slow validators).
    Exponential(SimTime),
}

impl Default for ValidationDist {
    fn default() -> Self {
        ValidationDist::Constant(SimTime::from_ms(50.0))
    }
}

impl ValidationDist {
    /// Whether every delay this distribution draws may delay a relay:
    /// its parameter is finite and non-negative. The checkpoint decoder
    /// and [`ChurnProcess::with_arrival_profile`](crate::ChurnProcess::with_arrival_profile)
    /// refuse any other distribution.
    pub(crate) fn draws_relay_delays(&self) -> bool {
        let (ValidationDist::Constant(t) | ValidationDist::Exponential(t)) = *self;
        is_relay_delay(t)
    }
}

/// The full set of simulated nodes.
///
/// # Examples
///
/// ```
/// use perigee_netsim::{PopulationBuilder, Region};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pop = PopulationBuilder::new(100).build(&mut rng).unwrap();
/// assert_eq!(pop.len(), 100);
/// // Hash power is normalized.
/// let total: f64 = pop.iter().map(|p| p.hash_power).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Population {
    profiles: Vec<NodeProfile>,
    /// `alive[i]` — whether slot `i` currently hosts a live node. All-true
    /// until [`Population::retire`] is first used.
    alive: Vec<bool>,
    /// How many `alive` flags are false: derived, so never encoded.
    dead: usize,
}

impl Population {
    /// Creates a population directly from profiles, normalizing hash power.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::EmptyPopulation`] when `profiles` is empty,
    /// [`NetsimError::InvalidHashPower`] when hash powers are negative or sum
    /// to zero, NaN or infinity (normalizing by an infinite total would
    /// leave NaN or zero power), and [`NetsimError::InvalidDelay`] naming
    /// the first node whose validation delay or [`Behavior::Delay`] extra
    /// is negative, NaN or infinite.
    pub fn from_profiles(mut profiles: Vec<NodeProfile>) -> Result<Self, NetsimError> {
        if profiles.is_empty() {
            return Err(NetsimError::EmptyPopulation);
        }
        let total: f64 = profiles.iter().map(|p| p.hash_power).sum();
        if total <= 0.0 || !total.is_finite() || profiles.iter().any(|p| p.hash_power < 0.0) {
            return Err(NetsimError::InvalidHashPower);
        }
        if let Some(i) = profiles.iter().position(|p| !p.has_valid_delays()) {
            return Err(NetsimError::InvalidDelay(NodeId::new(i as u32)));
        }
        for p in &mut profiles {
            p.hash_power /= total;
        }
        let alive = vec![true; profiles.len()];
        Ok(Population {
            profiles,
            alive,
            dead: 0,
        })
    }

    /// Number of node *slots* — live and retired. Every per-node array in
    /// the workspace is sized by this; use [`Population::alive_count`] for
    /// the live subset.
    #[inline]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Number of live nodes (slots minus dead slots).
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.profiles.len() - self.dead
    }

    /// Whether slot `id` hosts a live node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id.index()]
    }

    /// Iterates over the ids of live nodes, ascending.
    pub fn ids_alive(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId::new(i as u32))
    }

    /// Appends a brand-new live node and returns its (fresh, never before
    /// used) id. The caller is responsible for growing every sibling
    /// structure (topology, latency model, score state) to cover the new
    /// slot and for calling [`Population::renormalize_hash_power`] once
    /// the batch of world edits is complete.
    pub fn spawn(&mut self, profile: NodeProfile) -> NodeId {
        let id = NodeId::new(self.profiles.len() as u32);
        self.profiles.push(profile);
        self.alive.push(true);
        id
    }

    /// Retires a live node: its slot is marked dead (its id is never
    /// reassigned within a run) and its hash power is zeroed so
    /// miners/coverage skip it.
    /// Returns `false` (and does nothing) if the node was already retired.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn retire(&mut self, id: NodeId) -> bool {
        if !self.alive[id.index()] {
            return false;
        }
        self.alive[id.index()] = false;
        self.profiles[id.index()].hash_power = 0.0;
        self.dead += 1;
        true
    }

    /// Plans a compaction: the order-preserving renumbering that deletes
    /// every dead slot and shifts survivors down. Returns `None` when no
    /// slot is dead (nothing to reclaim).
    ///
    /// The plan is only valid against the exact population state it was
    /// built from — apply it to *every* id-holding structure (topology,
    /// latency model, view, score state, address books, liveness, churn)
    /// in the same step, with [`Population::compact`] itself last or
    /// first but never mixed with other world edits.
    pub fn compaction_plan(&self) -> Option<IdRemap> {
        if self.dead == 0 {
            return None;
        }
        let mut forward = Vec::with_capacity(self.alive.len());
        let mut next = 0u32;
        for &a in &self.alive {
            if a {
                forward.push(next);
                next += 1;
            } else {
                forward.push(IdRemap::DEAD);
            }
        }
        Some(IdRemap {
            forward,
            new_len: next as usize,
        })
    }

    /// Applies a compaction plan: dead slots are deleted and survivors keep
    /// their relative order under their new (shifted-down) ids. Hash
    /// powers are untouched — dead slots held zero power, so the live
    /// distribution is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match this population (wrong slot
    /// count or liveness pattern), or if compaction would leave the
    /// population empty.
    pub fn compact(&mut self, plan: &IdRemap) {
        assert_eq!(
            plan.old_len(),
            self.profiles.len(),
            "compaction plan covers a different world size"
        );
        assert!(
            plan.new_len() > 0,
            "compaction would leave an empty population"
        );
        let mut kept = 0usize;
        for (i, &a) in self.alive.iter().enumerate() {
            assert_eq!(
                a,
                plan.new_id(NodeId::new(i as u32)).is_some(),
                "compaction plan disagrees with slot {i}'s liveness"
            );
            kept += a as usize;
        }
        assert_eq!(kept, plan.new_len(), "compaction plan live count is off");
        let mut alive = std::mem::take(&mut self.alive).into_iter();
        self.profiles
            .retain(|_| alive.next().expect("lengths agree"));
        self.alive = vec![true; self.profiles.len()];
        self.dead = 0;
    }

    /// The mean hash power over live nodes — the natural power to assign
    /// a joiner before renormalizing. When the live powers are already
    /// exactly uniform, that exact value is returned (not the float-summed
    /// mean, whose last ulp can wobble): equal inputs then stay bit-equal
    /// through the shared renormalization rescale, which is what keeps
    /// the snapshot's uniform-weight coverage fast path alive through
    /// pure growth.
    pub fn mean_alive_hash_power(&self) -> f64 {
        let mut live = self
            .profiles
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(p, _)| p.hash_power);
        let Some(first) = live.next() else {
            return 0.0;
        };
        let mut uniform = true;
        let mut total = first;
        let mut count = 1usize;
        for w in live {
            uniform &= w == first;
            total += w;
            count += 1;
        }
        if uniform {
            first
        } else {
            total / count as f64
        }
    }

    /// Rescales live hash powers to sum to 1 (dead slots stay at zero) —
    /// call once after a batch of [`Population::spawn`] /
    /// [`Population::retire`] edits. When live nodes exist but hold no
    /// power at all (every miner retired), each gets `1 / alive_count`,
    /// so blocks are still mined by live nodes. A no-op without live
    /// nodes, or when the live total is negative or not finite.
    pub fn renormalize_hash_power(&mut self) {
        let total: f64 = self
            .profiles
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(p, _)| p.hash_power)
            .sum();
        let alive = self.alive_count();
        if total == 0.0 && alive > 0 {
            let share = 1.0 / alive as f64;
            for (p, &a) in self.profiles.iter_mut().zip(&self.alive) {
                if a {
                    p.hash_power = share;
                }
            }
            return;
        }
        if total <= 0.0 || !total.is_finite() {
            return;
        }
        for (p, &a) in self.profiles.iter_mut().zip(&self.alive) {
            if a {
                p.hash_power /= total;
            }
        }
    }

    /// Returns `true` if the population has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile of a single node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this population.
    #[inline]
    pub fn profile(&self, id: NodeId) -> &NodeProfile {
        &self.profiles[id.index()]
    }

    /// Mutable profile access (used by churn and adversary injection).
    #[inline]
    pub fn profile_mut(&mut self, id: NodeId) -> &mut NodeProfile {
        &mut self.profiles[id.index()]
    }

    /// Iterates over all profiles in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeProfile> {
        self.profiles.iter()
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + Clone {
        (0..self.profiles.len() as u32).map(NodeId::new)
    }

    /// Hash power of a node (`fv`).
    #[inline]
    pub fn hash_power(&self, id: NodeId) -> f64 {
        self.profiles[id.index()].hash_power
    }

    /// Validation delay of a node (`Δv`).
    #[inline]
    pub fn validation_delay(&self, id: NodeId) -> SimTime {
        self.profiles[id.index()].validation_delay
    }

    /// All hash powers as a slice-backed vector (for metrics).
    pub fn hash_powers(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.hash_power).collect()
    }

    /// Ids of nodes holding the `k` largest hash powers.
    pub fn top_miners(&self, k: usize) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.ids().collect();
        ids.sort_by(|a, b| {
            self.hash_power(*b)
                .partial_cmp(&self.hash_power(*a))
                .expect("hash power is finite")
        });
        ids.truncate(k);
        ids
    }

    /// Scales every node's validation delay by `factor` (Fig. 4(a) sweep).
    pub fn scale_validation_delay(&mut self, factor: f64) {
        for p in &mut self.profiles {
            p.validation_delay = p.validation_delay * factor;
        }
    }
}

impl std::ops::Index<NodeId> for Population {
    type Output = NodeProfile;
    fn index(&self, id: NodeId) -> &NodeProfile {
        self.profile(id)
    }
}

/// Builder for [`Population`] (non-consuming, per the builder guideline).
///
/// # Examples
///
/// ```
/// use perigee_netsim::{PopulationBuilder, HashPowerDist, SimTime, ValidationDist};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pop = PopulationBuilder::new(500)
///     .hash_power(HashPowerDist::Exponential)
///     .validation(ValidationDist::Exponential(SimTime::from_ms(50.0)))
///     .build(&mut rng)
///     .unwrap();
/// assert_eq!(pop.len(), 500);
/// ```
#[derive(Debug, Clone)]
pub struct PopulationBuilder {
    n: usize,
    hash_power: HashPowerDist,
    pub(crate) validation: ValidationDist,
    metric_dim: Option<usize>,
    bandwidth_skew: bool,
}

impl PopulationBuilder {
    /// Starts building a population of `n` nodes with the paper's default
    /// setting: Bitnodes-like region mix, uniform hash power, 50 ms
    /// validation delay, no metric coordinates, homogeneous bandwidth.
    pub fn new(n: usize) -> Self {
        PopulationBuilder {
            n,
            hash_power: HashPowerDist::Uniform,
            validation: ValidationDist::default(),
            metric_dim: None,
            bandwidth_skew: false,
        }
    }

    /// Sets the hash power distribution.
    pub fn hash_power(&mut self, dist: HashPowerDist) -> &mut Self {
        self.hash_power = dist;
        self
    }

    /// Sets the validation delay distribution.
    pub fn validation(&mut self, dist: ValidationDist) -> &mut Self {
        self.validation = dist;
        self
    }

    /// Also embeds every node uniformly at random in `[0,1]^dim` (the §3.1
    /// metric model, used by the theory experiments).
    pub fn metric_dim(&mut self, dim: usize) -> &mut Self {
        self.metric_dim = Some(dim);
        self
    }

    /// Draws per-node access bandwidth from the skewed 3–186 Mbit/s range
    /// reported by Croman et al. (cited in §3.3) instead of a constant.
    pub fn bandwidth_skew(&mut self, enable: bool) -> &mut Self {
        self.bandwidth_skew = enable;
        self
    }

    /// Samples the static attributes of a *single* node from the region
    /// mix and this builder's validation / bandwidth configuration — the
    /// arrival path of the [`dynamics`](crate::dynamics) subsystem, where
    /// nodes join one at a time mid-run instead of in a batch.
    ///
    /// Hash power is left at `0.0`: a joiner's power depends on the world
    /// it joins (the engine assigns the mean live power and renormalizes),
    /// not on this builder's whole-population distribution. The RNG
    /// consumption order intentionally differs from [`PopulationBuilder::build`]
    /// (which samples attribute-by-attribute across the batch), so seeded
    /// batch worlds stay bit-identical to previous releases.
    pub fn sample_profile<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeProfile {
        let region = sample_regions(1, rng)[0];
        self.sample_attrs(region, 0.0, rng)
    }

    /// Samples one node's validation delay, coordinates and bandwidth —
    /// the per-node draws shared (in the same attribute order, so
    /// [`PopulationBuilder::build`]'s RNG stream is unchanged) by the
    /// batch build loop and the one-at-a-time arrival path.
    fn sample_attrs<R: Rng + ?Sized>(
        &self,
        region: Region,
        hash_power: f64,
        rng: &mut R,
    ) -> NodeProfile {
        let validation_delay = match self.validation {
            ValidationDist::Constant(d) => d,
            ValidationDist::Exponential(mean) => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                SimTime::from_ms(-mean.as_ms() * u.ln())
            }
        };
        let coords = match self.metric_dim {
            Some(d) => (0..d).map(|_| rng.gen::<f64>()).collect(),
            None => Vec::new(),
        };
        let (uplink_mbps, downlink_mbps) = if self.bandwidth_skew {
            // Log-uniform over [3, 186] Mbps, matching the measured skew.
            let lo: f64 = 3.0;
            let hi: f64 = 186.0;
            let up = lo * (hi / lo).powf(rng.gen::<f64>());
            let down = lo * (hi / lo).powf(rng.gen::<f64>());
            (up, down)
        } else {
            (33.0, 33.0)
        };
        NodeProfile {
            region,
            hash_power,
            validation_delay,
            coords,
            uplink_mbps,
            downlink_mbps,
            behavior: Behavior::Honest,
        }
    }

    /// Builds the population.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::EmptyPopulation`] for `n == 0`,
    /// [`NetsimError::InvalidHashPower`] if the configured hash power
    /// distribution produced an all-zero assignment, and
    /// [`NetsimError::InvalidDelay`] if the validation distribution drew a
    /// negative, NaN or infinite delay.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Population, NetsimError> {
        if self.n == 0 {
            return Err(NetsimError::EmptyPopulation);
        }
        let regions = sample_regions(self.n, rng);
        let powers = sample_hash_power(self.n, &self.hash_power, rng);
        let mut profiles = Vec::with_capacity(self.n);
        for i in 0..self.n {
            profiles.push(self.sample_attrs(regions[i], powers[i], rng));
        }
        Population::from_profiles(profiles)
    }
}

/// Draws `n` regions from the Bitnodes mix
/// ([`BITNODES_REGION_WEIGHTS`](crate::dataset::BITNODES_REGION_WEIGHTS)).
fn sample_regions<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Region> {
    let weights = &crate::dataset::BITNODES_REGION_WEIGHTS;
    let total: f64 = weights.iter().sum();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut x = rng.gen::<f64>() * total;
        let mut chosen = Region::Oceania;
        for (w, region) in weights.iter().zip(Region::ALL) {
            if x < *w {
                chosen = region;
                break;
            }
            x -= *w;
        }
        out.push(chosen);
    }
    out
}

fn sample_hash_power<R: Rng + ?Sized>(n: usize, dist: &HashPowerDist, rng: &mut R) -> Vec<f64> {
    match dist {
        HashPowerDist::Uniform => vec![1.0 / n as f64; n],
        HashPowerDist::Exponential => {
            let exp = rand::distributions::Uniform::new(f64::MIN_POSITIVE, 1.0f64);
            (0..n).map(|_| -exp.sample(rng).ln()).collect()
        }
        HashPowerDist::Pools {
            fraction_of_nodes,
            fraction_of_power,
        } => {
            let k = ((n as f64 * fraction_of_nodes).round() as usize).clamp(1, n);
            let mut ids: Vec<usize> = (0..n).collect();
            // Partial Fisher-Yates: the first k entries become the pool set.
            for i in 0..k {
                let j = rng.gen_range(i..n);
                ids.swap(i, j);
            }
            let mut powers = vec![0.0; n];
            let pool_each = fraction_of_power / k as f64;
            let rest_each = if n > k {
                (1.0 - fraction_of_power) / (n - k) as f64
            } else {
                0.0
            };
            for (rank, &node) in ids.iter().enumerate() {
                powers[node] = if rank < k { pool_each } else { rest_each };
            }
            powers
        }
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::*;

    impl Encode for Population {
        fn encode(&self, out: &mut Vec<u8>) {
            self.profiles.encode(out);
            self.alive.encode(out);
        }
    }

    impl Decode for Population {
        /// Refuses hash power that [`Population::from_profiles`],
        /// [`Population::retire`] and
        /// [`Population::renormalize_hash_power`] never leave: NaN,
        /// infinite or negative power, any power on a dead slot, or live
        /// nodes that hold no power at all, which no sampler could mine
        /// from.
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let profiles: Vec<NodeProfile> = Vec::decode(r)?;
            let alive: Vec<bool> = Vec::decode(r)?;
            if alive.len() != profiles.len() {
                return Err(DecodeError::new(
                    "population alive/profile lengths disagree",
                ));
            }
            let legal = |(p, &a): (&NodeProfile, &bool)| {
                let w = p.hash_power;
                w.is_finite() && w >= 0.0 && (a || w == 0.0)
            };
            if !profiles.iter().zip(&alive).all(legal) {
                return Err(DecodeError::new(
                    "hash power is NaN, infinite, negative or held by a dead slot",
                ));
            }
            let dead = alive.iter().filter(|&&a| !a).count();
            // Dead slots hold none, so this sums the live power.
            let total: f64 = profiles.iter().map(|p| p.hash_power).sum();
            if dead < alive.len() && total == 0.0 {
                return Err(DecodeError::new("live nodes hold zero total hash power"));
            }
            Ok(Population {
                profiles,
                alive,
                dead,
            })
        }
    }

    impl Encode for HashPowerDist {
        fn encode(&self, out: &mut Vec<u8>) {
            match *self {
                HashPowerDist::Uniform => 0u8.encode(out),
                HashPowerDist::Exponential => 1u8.encode(out),
                HashPowerDist::Pools {
                    fraction_of_nodes,
                    fraction_of_power,
                } => {
                    2u8.encode(out);
                    fraction_of_nodes.encode(out);
                    fraction_of_power.encode(out);
                }
            }
        }
    }

    impl Decode for HashPowerDist {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(HashPowerDist::Uniform),
                1 => Ok(HashPowerDist::Exponential),
                2 => Ok(HashPowerDist::Pools {
                    fraction_of_nodes: f64::decode(r)?,
                    fraction_of_power: f64::decode(r)?,
                }),
                _ => Err(DecodeError::new("invalid hash-power-dist tag")),
            }
        }
    }

    impl Encode for ValidationDist {
        fn encode(&self, out: &mut Vec<u8>) {
            match *self {
                ValidationDist::Constant(t) => {
                    0u8.encode(out);
                    t.encode(out);
                }
                ValidationDist::Exponential(mean) => {
                    2u8.encode(out);
                    mean.encode(out);
                }
            }
        }
    }

    impl Decode for ValidationDist {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let dist = match u8::decode(r)? {
                0 => ValidationDist::Constant(SimTime::decode(r)?),
                // Surviving variants keep their tags, so 1 stays unused.
                2 => ValidationDist::Exponential(SimTime::decode(r)?),
                _ => return Err(DecodeError::new("invalid validation-dist tag")),
            };
            if !dist.draws_relay_delays() {
                return Err(DecodeError::new(
                    "validation delay is negative, NaN or infinite",
                ));
            }
            Ok(dist)
        }
    }

    impl Encode for PopulationBuilder {
        fn encode(&self, out: &mut Vec<u8>) {
            self.n.encode(out);
            self.hash_power.encode(out);
            self.validation.encode(out);
            self.metric_dim.encode(out);
            self.bandwidth_skew.encode(out);
        }
    }

    impl Decode for PopulationBuilder {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(PopulationBuilder {
                n: usize::decode(r)?,
                hash_power: HashPowerDist::decode(r)?,
                validation: ValidationDist::decode(r)?,
                metric_dim: Option::decode(r)?,
                bandwidth_skew: bool::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invalid_relay_delays_are_refused_where_they_enter() {
        use serde::bin::{Decode, Encode};
        for bad in [-30.0, f64::NAN, f64::INFINITY].map(SimTime::from_ms) {
            let honest = vec![
                NodeProfile {
                    hash_power: 1.0,
                    ..NodeProfile::default()
                };
                3
            ];
            let mut slow = honest.clone();
            slow[2].validation_delay = bad;
            let mut throttled = honest.clone();
            throttled[1].behavior = Behavior::Delay(bad);
            assert_eq!(
                Population::from_profiles(slow),
                Err(NetsimError::InvalidDelay(NodeId::new(2)))
            );
            assert_eq!(
                Population::from_profiles(throttled),
                Err(NetsimError::InvalidDelay(NodeId::new(1)))
            );
            let mut rng = StdRng::seed_from_u64(0);
            for dist in [
                ValidationDist::Constant(bad),
                ValidationDist::Exponential(bad),
            ] {
                assert!(ValidationDist::from_bytes(&dist.to_bytes()).is_err());
                if bad.as_ms() < 0.0 {
                    assert_eq!(
                        PopulationBuilder::new(4).validation(dist).build(&mut rng),
                        Err(NetsimError::InvalidDelay(NodeId::new(0)))
                    );
                }
            }
        }
        assert!(Population::from_profiles(vec![NodeProfile {
            hash_power: 1.0,
            validation_delay: SimTime::ZERO,
            ..NodeProfile::default()
        }])
        .is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = PopulationBuilder::new(50).build(&mut StdRng::seed_from_u64(9));
        let b = PopulationBuilder::new(50).build(&mut StdRng::seed_from_u64(9));
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn empty_population_is_an_error() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            PopulationBuilder::new(0).build(&mut rng),
            Err(NetsimError::EmptyPopulation)
        ));
        assert!(matches!(
            Population::from_profiles(vec![]),
            Err(NetsimError::EmptyPopulation)
        ));
    }

    #[test]
    fn hash_power_is_normalized_for_all_distributions() {
        let mut rng = StdRng::seed_from_u64(3);
        for dist in [
            HashPowerDist::Uniform,
            HashPowerDist::Exponential,
            HashPowerDist::Pools {
                fraction_of_nodes: 0.1,
                fraction_of_power: 0.9,
            },
        ] {
            let pop = PopulationBuilder::new(200)
                .hash_power(dist)
                .build(&mut rng)
                .unwrap();
            let total: f64 = pop.iter().map(|p| p.hash_power).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pools_concentrate_power() {
        let mut rng = StdRng::seed_from_u64(5);
        let pop = PopulationBuilder::new(1000)
            .hash_power(HashPowerDist::Pools {
                fraction_of_nodes: 0.1,
                fraction_of_power: 0.9,
            })
            .build(&mut rng)
            .unwrap();
        let top = pop.top_miners(100);
        let pool_power: f64 = top.iter().map(|&id| pop.hash_power(id)).sum();
        assert!((pool_power - 0.9).abs() < 1e-9, "pool holds 90%");
    }

    #[test]
    fn region_mix_roughly_matches_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let pop = PopulationBuilder::new(4000).build(&mut rng).unwrap();
        let mut counts = [0usize; 7];
        for p in pop.iter() {
            counts[p.region.index()] += 1;
        }
        // Europe and North America dominate the Bitnodes mix.
        assert!(counts[Region::Europe.index()] > counts[Region::Africa.index()]);
        assert!(counts[Region::NorthAmerica.index()] > counts[Region::Oceania.index()]);
        assert!(counts.iter().all(|&c| c > 0), "every region is populated");
    }

    #[test]
    fn metric_dim_populates_coords() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = PopulationBuilder::new(10)
            .metric_dim(3)
            .build(&mut rng)
            .unwrap();
        for p in pop.iter() {
            assert_eq!(p.coords.len(), 3);
            assert!(p.coords.iter().all(|&c| (0.0..1.0).contains(&c)));
        }
    }

    #[test]
    fn scale_validation_delay_scales() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pop = PopulationBuilder::new(4).build(&mut rng).unwrap();
        pop.scale_validation_delay(0.1);
        for p in pop.iter() {
            assert!((p.validation_delay.as_ms() - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bandwidth_skew_stays_in_measured_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = PopulationBuilder::new(300)
            .bandwidth_skew(true)
            .build(&mut rng)
            .unwrap();
        for p in pop.iter() {
            assert!((3.0..=186.0).contains(&p.uplink_mbps));
            assert!((3.0..=186.0).contains(&p.downlink_mbps));
        }
    }

    #[test]
    fn spawn_appends_fresh_ids_and_retire_marks_the_slot_dead() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut pop = PopulationBuilder::new(4).build(&mut rng).unwrap();
        assert_eq!(pop.alive_count(), 4);
        let v = NodeId::new(1);
        assert!(pop.retire(v));
        assert!(!pop.retire(v), "double retire is a no-op");
        assert!(!pop.is_alive(v));
        assert_eq!(pop.hash_power(v), 0.0, "dead slots hold no power");
        assert_eq!(pop.alive_count(), 3, "a double retire counts once");
        // Spawn never reuses the retired slot: the id is brand new.
        let profile = NodeProfile {
            hash_power: pop.mean_alive_hash_power(),
            ..NodeProfile::default()
        };
        let id = pop.spawn(profile);
        assert_eq!(id, NodeId::new(4), "ids grow monotonically");
        assert_eq!(pop.len(), 5);
        assert_eq!(pop.alive_count(), 4);
        assert_eq!(
            pop.ids_alive().collect::<Vec<_>>(),
            vec![
                NodeId::new(0),
                NodeId::new(2),
                NodeId::new(3),
                NodeId::new(4)
            ]
        );
    }

    #[test]
    fn compaction_plan_renumbers_survivors_in_order() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut pop = PopulationBuilder::new(5).build(&mut rng).unwrap();
        assert!(pop.compaction_plan().is_none(), "nothing to reclaim");
        pop.retire(NodeId::new(1));
        pop.retire(NodeId::new(3));
        let plan = pop.compaction_plan().expect("two dead slots");
        assert_eq!(plan.old_len(), 5);
        assert_eq!(plan.new_len(), 3);
        assert_eq!(plan.reclaimed(), 2);
        assert_eq!(plan.new_id(NodeId::new(0)), Some(NodeId::new(0)));
        assert_eq!(plan.new_id(NodeId::new(1)), None);
        assert_eq!(plan.new_id(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(plan.new_id(NodeId::new(3)), None);
        assert_eq!(plan.new_id(NodeId::new(4)), Some(NodeId::new(2)));
        assert_eq!(plan.new_id(NodeId::new(9)), None, "out of range is dead");
        assert_eq!(
            plan.iter_live().collect::<Vec<_>>(),
            vec![
                (NodeId::new(0), NodeId::new(0)),
                (NodeId::new(2), NodeId::new(1)),
                (NodeId::new(4), NodeId::new(2)),
            ]
        );
    }

    #[test]
    fn retain_live_keeps_survivor_slots_in_order() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut pop = PopulationBuilder::new(5).build(&mut rng).unwrap();
        pop.retire(NodeId::new(1));
        pop.retire(NodeId::new(3));
        let plan = pop.compaction_plan().expect("two dead slots");
        let mut slots = vec!['a', 'b', 'c', 'd', 'e'];
        plan.retain_live(&mut slots);
        assert_eq!(slots, ['a', 'c', 'e']);
    }

    #[test]
    #[should_panic(expected = "compaction plan covers a different world size")]
    fn retain_live_rejects_a_differently_sized_array() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut pop = PopulationBuilder::new(5).build(&mut rng).unwrap();
        pop.retire(NodeId::new(1));
        let plan = pop.compaction_plan().expect("one dead slot");
        plan.retain_live(&mut vec![0u8; 4]);
    }

    #[test]
    fn compact_drops_dead_slots_and_preserves_profiles() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut pop = PopulationBuilder::new(6).build(&mut rng).unwrap();
        pop.retire(NodeId::new(0));
        pop.retire(NodeId::new(4));
        let survivors: Vec<NodeProfile> = [1u32, 2, 3, 5]
            .iter()
            .map(|&i| pop.profile(NodeId::new(i)).clone())
            .collect();
        let plan = pop.compaction_plan().unwrap();
        pop.compact(&plan);
        assert_eq!(pop.len(), 4);
        assert_eq!(pop.alive_count(), 4);
        assert!(pop.compaction_plan().is_none(), "idempotent");
        for (i, expect) in survivors.iter().enumerate() {
            let got = pop.profile(NodeId::new(i as u32));
            assert_eq!(got.hash_power.to_bits(), expect.hash_power.to_bits());
            assert_eq!(got.region, expect.region);
            assert_eq!(got.validation_delay, expect.validation_delay);
        }
        // Post-compaction spawns continue from the new, shorter id space.
        let id = pop.spawn(NodeProfile::default());
        assert_eq!(id, NodeId::new(4));
    }

    #[test]
    fn renormalize_restores_unit_power_and_keeps_uniformity() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pop = PopulationBuilder::new(5).build(&mut rng).unwrap();
        pop.retire(NodeId::new(2));
        let profile = NodeProfile {
            hash_power: pop.mean_alive_hash_power(),
            ..NodeProfile::default()
        };
        pop.spawn(profile);
        pop.renormalize_hash_power();
        let total: f64 = pop.iter().map(|p| p.hash_power).sum();
        assert!((total - 1.0).abs() < 1e-12, "alive power sums to 1");
        // Uniform stays *exactly* uniform through spawn + renormalize.
        let first = pop.hash_power(NodeId::new(0));
        for id in pop.ids_alive() {
            assert_eq!(pop.hash_power(id).to_bits(), first.to_bits());
        }
        assert_eq!(pop.hash_power(NodeId::new(2)), 0.0);
    }

    /// With every live miner retired, the live nodes left hold no power;
    /// renormalizing shares it out evenly, so blocks keep coming from live
    /// nodes instead of the sampler's last (dead) slot.
    #[test]
    fn renormalize_spreads_power_over_powerless_live_nodes() {
        let profiles = [0.0, 1.0].map(|hash_power| NodeProfile {
            hash_power,
            ..NodeProfile::default()
        });
        let mut pop = Population::from_profiles(profiles.to_vec()).unwrap();
        pop.retire(NodeId::new(1));
        pop.renormalize_hash_power();
        assert_eq!(pop.hash_power(NodeId::new(0)), 1.0);
        assert_eq!(pop.hash_power(NodeId::new(1)), 0.0);
        let sampler = crate::MinerSampler::new(&pop);
        let mut rng = StdRng::seed_from_u64(4);
        let miners = sampler.sample_round(5, &mut rng);
        assert_eq!(miners, vec![NodeId::new(0); 5], "5 of 5 blocks from n0");
        // Several powerless live nodes share evenly.
        let profiles = [0.0, 0.0, 0.0, 2.0].map(|hash_power| NodeProfile {
            hash_power,
            ..NodeProfile::default()
        });
        let mut pop = Population::from_profiles(profiles.to_vec()).unwrap();
        pop.retire(NodeId::new(3));
        pop.renormalize_hash_power();
        for v in 0..3 {
            assert_eq!(pop.hash_power(NodeId::new(v)), 1.0 / 3.0);
        }
    }

    #[test]
    fn sample_profile_follows_builder_knobs() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut builder = PopulationBuilder::new(1);
        builder
            .validation(ValidationDist::Constant(SimTime::from_ms(75.0)))
            .metric_dim(2)
            .bandwidth_skew(true);
        let p = builder.sample_profile(&mut rng);
        assert_eq!(p.validation_delay, SimTime::from_ms(75.0));
        assert_eq!(p.coords.len(), 2);
        assert!((3.0..=186.0).contains(&p.uplink_mbps));
        assert_eq!(
            p.hash_power, 0.0,
            "power assigned by the world, not the builder"
        );
        assert!(p.behavior.is_honest());
    }

    /// The codec writes no dead-slot count: a population with
    /// retirements decodes with the count recomputed from its `alive`
    /// flags, so `alive_count` and the compaction plan agree with them.
    #[test]
    fn roundtrip_recomputes_the_dead_count_from_the_flags() {
        use serde::bin::{Decode, Encode};
        let mut rng = StdRng::seed_from_u64(21);
        let mut pop = PopulationBuilder::new(7).build(&mut rng).unwrap();
        for dead in [5u32, 1, 3] {
            pop.retire(NodeId::new(dead));
        }
        pop.renormalize_hash_power();
        let back = Population::from_bytes(&pop.to_bytes()).unwrap();
        assert_eq!(back, pop);
        assert_eq!(back.alive_count(), back.ids_alive().count());
        assert_eq!(back.alive_count(), 4);
        let plan = back.compaction_plan().expect("three dead slots");
        assert_eq!(plan.reclaimed(), 3);
        assert_eq!(plan.new_len(), back.alive_count());
        for id in back.ids() {
            assert_eq!(plan.new_id(id).is_some(), back.is_alive(id));
        }
    }

    /// Hash power that `from_profiles`, `retire` and renormalization
    /// never leave — NaN, infinite or negative on any slot, nonzero on a
    /// dead one, or zero on every live one — is refused while decoding,
    /// so no sampler ever mines from it.
    #[test]
    fn illegal_hash_power_is_refused_while_decoding() {
        use serde::bin::{Decode, DecodeError, Encode};
        let mut rng = StdRng::seed_from_u64(22);
        let mut pop = PopulationBuilder::new(4).build(&mut rng).unwrap();
        pop.retire(NodeId::new(2));
        pop.renormalize_hash_power();
        let refusal = Err(DecodeError::new(
            "hash power is NaN, infinite, negative or held by a dead slot",
        ));
        for (slot, bad) in [
            (0, f64::NAN),
            (1, f64::INFINITY),
            (3, -0.25),
            (2, 0.25), // the dead slot
        ] {
            let mut tampered = pop.clone();
            tampered.profile_mut(NodeId::new(slot)).hash_power = bad;
            assert_eq!(
                Population::from_bytes(&tampered.to_bytes()),
                refusal,
                "power {bad} on n{slot}"
            );
        }
        assert!(Population::from_bytes(&pop.to_bytes()).is_ok());
        // Live nodes without any power: the live total is zero.
        let mut powerless = pop.clone();
        for v in powerless.ids_alive().collect::<Vec<_>>() {
            powerless.profile_mut(v).hash_power = 0.0;
        }
        assert_eq!(
            Population::from_bytes(&powerless.to_bytes()),
            Err(DecodeError::new("live nodes hold zero total hash power"))
        );
        // Nor does `from_profiles` leave such power: an infinite total
        // would normalize to NaN, so it is refused.
        let infinite = [f64::INFINITY, 1.0].map(|hash_power| NodeProfile {
            hash_power,
            ..NodeProfile::default()
        });
        assert_eq!(
            Population::from_profiles(infinite.to_vec()),
            Err(NetsimError::InvalidHashPower)
        );
    }

    #[test]
    fn top_miners_orders_by_power() {
        let profiles = vec![
            NodeProfile {
                hash_power: 0.1,
                ..NodeProfile::default()
            },
            NodeProfile {
                hash_power: 0.7,
                ..NodeProfile::default()
            },
            NodeProfile {
                hash_power: 0.2,
                ..NodeProfile::default()
            },
        ];
        let pop = Population::from_profiles(profiles).unwrap();
        assert_eq!(pop.top_miners(2), vec![NodeId::new(1), NodeId::new(2)]);
    }
}
