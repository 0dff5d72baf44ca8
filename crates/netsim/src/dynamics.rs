//! Node lifetime as a simulated process: arrivals, departures and growing
//! networks without rebuilding the world.
//!
//! Real blockchain overlays are never frozen — measurement studies of
//! Ethereum's p2p layer and formation-dynamics models of auto-peering
//! systems both put the arrival/departure process front and center. This
//! module makes node lifetime a first-class, seeded, bit-reproducible
//! simulation input instead of a test fixture:
//!
//! * [`ChurnProcess`] — the lifetime driver, one stochastic process:
//!   Poisson arrivals per round, each node's session length drawn from a
//!   [`SessionDist`] (constant or exponential). The process owns its own
//!   seeded RNG, so the lifetime schedule is independent of the protocol
//!   RNG and identical across thread counts.
//! * [`WorldDelta`] — the per-round outcome: which ids joined (freshly
//!   spawned) and which departed (retired for good).
//! * [`ChurnPlan`] — the raw per-round intent ([`ChurnProcess::begin_round`]):
//!   how many nodes arrive (ids are assigned by
//!   [`Population::spawn`](crate::Population::spawn), never by the
//!   process) and which existing ids leave.
//!
//! The driver loop is: call [`ChurnProcess::begin_round`] once per round,
//! spawn one node per planned arrival (reporting each new id back via
//! [`ChurnProcess::note_join`] so its session expiry gets scheduled), tear
//! down departures, and hand the edge-level
//! [`RoundDelta`](crate::RoundDelta) of everything the
//! teardown/bootstrap touched, with the post-round population, to
//! [`TopologyView::apply_delta`](crate::TopologyView::apply_delta)
//! so the CSR snapshot is patched, never rebuilt. The resulting
//! [`WorldDelta`] drives the per-node state that follows the node set.
//!
//! # Determinism
//!
//! Sessions are measured in whole rounds (`ceil` of the sampled length,
//! at least one): a node admitted for round `r` with session `s`
//! participates in rounds `r .. r + ⌈s⌉` and appears in the departure
//! plan of round `r + ⌈s⌉`. Expiries pop in `(round, id)` order, arrivals
//! are counted (not named) so id assignment stays the population's
//! monopoly, and every sample draws from the process's private
//! `StdRng` — replaying the same seed replays the same world history.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::NetsimError;
use crate::node::{NodeId, NodeProfile};
use crate::population::{Population, PopulationBuilder};

/// The net node-set change of one round: who joined, who departed.
///
/// Consumed by the engine's score-state resize hook and reported in its
/// round statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorldDelta {
    /// Nodes that joined this round (fresh ids).
    pub joined: Vec<NodeId>,
    /// Nodes that departed this round (retired ids).
    pub departed: Vec<NodeId>,
}

impl WorldDelta {
    /// `true` when the round changed no node's lifetime.
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty() && self.departed.is_empty()
    }
}

/// Session-length distributions, in rounds. Sampled lengths are rounded
/// up to whole rounds with a one-round minimum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SessionDist {
    /// Every session lasts exactly this many rounds. `INFINITY` is legal
    /// and means "never departs" — the growth-only setting.
    Constant(f64),
    /// Exponential sessions with the given mean (memoryless churn).
    Exponential {
        /// Mean session length in rounds.
        mean: f64,
    },
}

impl SessionDist {
    /// Samples one session length in rounds (not yet rounded).
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            SessionDist::Constant(r) => r,
            SessionDist::Exponential { mean } => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
        }
    }
}

/// Whether `rate` can drive Poisson arrivals: finite and non-negative.
/// The one rule behind [`ChurnProcess::poisson`] and the checkpoint
/// decoder.
fn valid_rate(rate: f64) -> bool {
    rate.is_finite() && rate >= 0.0
}

/// Poisson sample via Knuth's product method, chunked so the running
/// product never reaches the subnormal range even for large rates.
fn poisson<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> usize {
    assert!(
        valid_rate(rate),
        "Poisson rate must be finite and non-negative"
    );
    let mut total = 0usize;
    let mut remaining = rate;
    while remaining > 0.0 {
        let chunk = remaining.min(32.0);
        remaining -= chunk;
        let limit = (-chunk).exp();
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= limit {
                break;
            }
            total += 1;
        }
    }
    total
}

/// The raw intent for one round, produced by
/// [`ChurnProcess::begin_round`]: the driver spawns `arrivals` nodes
/// (reporting ids via [`ChurnProcess::note_join`]) and retires
/// `departures`, then folds both into one [`WorldDelta`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// How many new nodes arrive this round.
    pub arrivals: usize,
    /// Which nodes depart for good this round, ascending by id.
    pub departures: Vec<NodeId>,
}

impl ChurnPlan {
    /// `true` when the round has no lifetime events.
    pub fn is_empty(&self) -> bool {
        self.arrivals == 0 && self.departures.is_empty()
    }
}

/// A seeded node-lifetime process: Poisson arrivals with sampled session
/// lengths.
///
/// # Examples
///
/// ```
/// use perigee_netsim::dynamics::{ChurnProcess, SessionDist};
/// use perigee_netsim::PopulationBuilder;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut pop = PopulationBuilder::new(100).build(&mut rng).unwrap();
/// // ~2 arrivals per round, sessions averaging 50 rounds → steady state
/// // around 100 nodes.
/// let mut process = ChurnProcess::poisson(2.0, SessionDist::Exponential { mean: 50.0 }, 7);
/// process.attach(&pop);
/// let plan = process.begin_round();
/// for _ in 0..plan.arrivals {
///     let mut profile = process.sample_profile();
///     profile.hash_power = pop.mean_alive_hash_power();
///     let id = pop.spawn(profile);
///     process.note_join(id);
/// }
/// for v in plan.departures {
///     pop.retire(v);
/// }
/// pop.renormalize_hash_power();
/// ```
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    /// Mean Poisson arrivals per round.
    arrival_rate: f64,
    /// How long each node's session lasts.
    session: SessionDist,
    rng: StdRng,
    profile: PopulationBuilder,
    /// Index of the next plan ([`ChurnProcess::begin_round`] calls so far).
    round: usize,
    /// Scheduled session expiries, popped in `(round, id)` order.
    expiries: BinaryHeap<Reverse<(u64, u32)>>,
}

impl ChurnProcess {
    /// A stochastic lifetime process: `arrival_rate` Poisson arrivals per
    /// round, sessions drawn from `session`. All randomness comes from a
    /// private RNG seeded with `seed`. Arrival profiles default to the
    /// paper's §5.1 population mix
    /// ([`ChurnProcess::with_arrival_profile`] overrides).
    ///
    /// # Panics
    ///
    /// Panics if `arrival_rate` is negative, NaN or infinite.
    pub fn poisson(arrival_rate: f64, session: SessionDist, seed: u64) -> Self {
        assert!(
            valid_rate(arrival_rate),
            "arrival rate must be finite and non-negative"
        );
        ChurnProcess {
            arrival_rate,
            session,
            rng: StdRng::seed_from_u64(seed ^ 0xD11A_111C5),
            profile: PopulationBuilder::new(0),
            round: 0,
            expiries: BinaryHeap::new(),
        }
    }

    /// The steady-state preset: a world of about `target` nodes where a
    /// `churn_fraction` of the population turns over per round —
    /// `target · churn_fraction` Poisson arrivals against *exponential*
    /// sessions of mean `1 / churn_fraction` rounds. The exponential's
    /// constant hazard makes the per-round departure rate equal
    /// `churn_fraction` from round zero (no warm-up toward the
    /// equilibrium age distribution).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < churn_fraction < 1`.
    pub fn steady_state(target: usize, churn_fraction: f64, seed: u64) -> Self {
        assert!(
            churn_fraction > 0.0 && churn_fraction < 1.0,
            "churn fraction must be in (0, 1)"
        );
        Self::poisson(
            target as f64 * churn_fraction,
            SessionDist::Exponential {
                mean: 1.0 / churn_fraction,
            },
            seed,
        )
    }

    /// Overrides the builder arrival profiles are sampled from
    /// (validation distribution, metric coordinates, bandwidth skew).
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::InvalidConfig`] if the profile's validation
    /// distribution has a negative, NaN or infinite parameter, the rule
    /// the checkpoint decoder applies to the same distribution: an arrival
    /// with such a delay would relay behind the propagation queues' cursor.
    pub fn with_arrival_profile(mut self, profile: PopulationBuilder) -> Result<Self, NetsimError> {
        if !profile.validation.draws_relay_delays() {
            return Err(NetsimError::InvalidConfig(
                "arrival validation delay is negative, NaN or infinite",
            ));
        }
        self.profile = profile;
        Ok(self)
    }

    /// Assigns sessions to every currently live node of `population` —
    /// call once when installing the process, so the initial population
    /// churns too (a no-op for infinite sessions).
    ///
    /// # Panics
    ///
    /// Panics, naming the id, if an expiry already scheduled (through
    /// [`ChurnProcess::note_join`]) names a slot outside `population`:
    /// its departure round would index past the world.
    pub fn attach(&mut self, population: &Population) {
        if let Some(id) = self.outside(population.len()) {
            panic!(
                "churn schedule names node {id}, outside the {}-slot world",
                population.len()
            );
        }
        let ids: Vec<NodeId> = population.ids_alive().collect();
        for id in ids {
            let len = self.session.sample(&mut self.rng);
            self.schedule_expiry(id, len);
        }
    }

    /// Whether every scheduled session expiry names one of a world's `n`
    /// slots — the rule [`ChurnProcess::attach`] and the checkpoint
    /// consistency check apply, so a departure never indexes past the
    /// population.
    pub fn covers(&self, n: usize) -> bool {
        self.outside(n).is_none()
    }

    /// The largest scheduled id at or past slot `n`, if any.
    fn outside(&self, n: usize) -> Option<NodeId> {
        self.expiries
            .iter()
            .map(|&Reverse((_, id))| id)
            .filter(|&id| id as usize >= n)
            .max()
            .map(NodeId::new)
    }

    /// Plans one round of lifetime events. The `k`-th call plans round
    /// `k`: due session expiries become departures (ascending by id) and
    /// Poisson arrivals are counted.
    pub fn begin_round(&mut self) -> ChurnPlan {
        let r = self.round as u64;
        self.round += 1;
        let mut departures = Vec::new();
        while let Some(&Reverse((due, id))) = self.expiries.peek() {
            if due > r {
                break;
            }
            self.expiries.pop();
            departures.push(NodeId::new(id));
        }
        ChurnPlan {
            arrivals: poisson(&mut self.rng, self.arrival_rate),
            departures,
        }
    }

    /// Reports a spawned arrival's id back to the process so its session
    /// expiry gets scheduled. Call once per planned arrival, right after
    /// [`Population::spawn`](crate::Population::spawn).
    pub fn note_join(&mut self, id: NodeId) {
        let len = self.session.sample(&mut self.rng);
        // `round` already points past the joining round — which is the
        // node's first round of participation, the same base an attached
        // node gets: ⌈len⌉ full rounds either way.
        self.schedule_expiry(id, len);
    }

    /// Samples the static profile of one arriving node from the
    /// configured arrival [`PopulationBuilder`]. Hash power is `0.0`; the
    /// driver assigns the joining world's mean live power and
    /// renormalizes.
    pub fn sample_profile(&mut self) -> NodeProfile {
        self.profile.sample_profile(&mut self.rng)
    }

    /// Rounds planned so far.
    pub fn rounds_elapsed(&self) -> usize {
        self.round
    }

    /// Session expiries not yet fired.
    pub fn pending_departures(&self) -> usize {
        self.expiries.len()
    }

    /// Applies a free-list compaction plan (see
    /// [`Population::compaction_plan`](crate::Population::compaction_plan)):
    /// scheduled session expiries are renumbered to the survivors' new
    /// ids, and an expiry for a dead id (a node retired before its
    /// session ran out) is dropped.
    ///
    /// The RNG position, round counter and arrival stream are untouched —
    /// compaction renumbers ids, it does not alter the lifetime process.
    pub fn compact(&mut self, plan: &crate::population::IdRemap) {
        let expiries = std::mem::take(&mut self.expiries);
        self.expiries = expiries
            .into_iter()
            .filter_map(|Reverse((due, id))| {
                let new = plan.new_id(NodeId::new(id))?;
                Some(Reverse((due, new.as_u32())))
            })
            .collect();
    }

    /// Schedules `id` to depart `⌈len⌉` (≥ 1) rounds after the next plan;
    /// non-finite lengths never depart.
    fn schedule_expiry(&mut self, id: NodeId, len: f64) {
        if !len.is_finite() {
            return;
        }
        let rounds = len.ceil().max(1.0);
        let due = if rounds >= (u64::MAX - self.round as u64) as f64 {
            u64::MAX
        } else {
            self.round as u64 + rounds as u64
        };
        self.expiries.push(Reverse((due, id.as_u32())));
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).
    //!
    //! A [`ChurnProcess`] is the one netsim subsystem with genuinely
    //! *mutable* cross-round state: its private RNG position, the round
    //! counter and the scheduled-expiry heap. All three are captured
    //! exactly — the RNG travels as its raw xoshiro state and the heap as
    //! its element multiset (pop order over distinct `(round, id)` keys is
    //! independent of internal heap layout), so a restored process
    //! continues the lifetime stream bit for bit.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::*;

    impl Encode for SessionDist {
        fn encode(&self, out: &mut Vec<u8>) {
            match *self {
                SessionDist::Constant(rounds) => {
                    0u8.encode(out);
                    rounds.encode(out);
                }
                SessionDist::Exponential { mean } => {
                    1u8.encode(out);
                    mean.encode(out);
                }
            }
        }
    }

    impl Decode for SessionDist {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(SessionDist::Constant(f64::decode(r)?)),
                1 => Ok(SessionDist::Exponential {
                    mean: f64::decode(r)?,
                }),
                _ => Err(DecodeError::new("invalid session-dist tag")),
            }
        }
    }

    impl Encode for ChurnProcess {
        fn encode(&self, out: &mut Vec<u8>) {
            self.arrival_rate.encode(out);
            self.session.encode(out);
            self.rng.state().encode(out);
            self.profile.encode(out);
            self.round.encode(out);
            let mut expiries: Vec<(u64, u32)> = self.expiries.iter().map(|Reverse(e)| *e).collect();
            expiries.sort_unstable();
            expiries.encode(out);
        }
    }

    impl Decode for ChurnProcess {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let arrival_rate = f64::decode(r)?;
            if !valid_rate(arrival_rate) {
                return Err(DecodeError::new(
                    "churn arrival rate must be finite and non-negative",
                ));
            }
            let session = SessionDist::decode(r)?;
            let rng_state = <[u64; 4]>::decode(r)?;
            if rng_state == [0; 4] {
                return Err(DecodeError::new("all-zero churn rng state"));
            }
            let profile = PopulationBuilder::decode(r)?;
            let round = usize::decode(r)?;
            let expiries: Vec<(u64, u32)> = Vec::decode(r)?;
            Ok(ChurnProcess {
                arrival_rate,
                session,
                rng: StdRng::from_state(rng_state),
                profile,
                round,
                expiries: expiries.into_iter().map(Reverse).collect(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_sample_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(3);
        for rate in [0.0, 0.5, 5.0, 120.0] {
            let n = 2000;
            let total: usize = (0..n).map(|_| poisson(&mut rng, rate)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - rate).abs() < 0.12 * rate.max(1.0),
                "rate {rate}: sample mean {mean}"
            );
        }
    }

    #[test]
    fn session_dists_sample_positive_with_roughly_right_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 4000;
        for (dist, mean) in [
            (SessionDist::Constant(12.0), 12.0),
            (SessionDist::Exponential { mean: 20.0 }, 20.0),
        ] {
            let total: f64 = (0..n).map(|_| dist.sample(&mut rng)).sum();
            let sample_mean = total / n as f64;
            assert!(
                (sample_mean - mean).abs() < 0.1 * mean,
                "{dist:?}: mean {sample_mean} vs {mean}"
            );
            assert!((0..100).all(|_| dist.sample(&mut rng) >= 0.0));
        }
    }

    #[test]
    fn decoder_rejects_the_rates_the_constructor_refuses() {
        use serde::bin::{Decode, Encode};
        let process = ChurnProcess::poisson(2.0, SessionDist::Exponential { mean: 10.0 }, 7);
        let bytes = process.to_bytes();
        assert!(ChurnProcess::from_bytes(&bytes).is_ok());
        // The rate is the encoding's leading f64.
        assert_eq!(bytes[0..8], 2.0f64.to_le_bytes());
        for rate in [f64::NAN, -1.0, f64::INFINITY] {
            assert!(!valid_rate(rate));
            let mut tampered = bytes.clone();
            tampered[0..8].copy_from_slice(&rate.to_le_bytes());
            assert!(
                ChurnProcess::from_bytes(&tampered).is_err(),
                "rate {rate} must not decode"
            );
        }
    }

    #[test]
    fn process_is_bit_reproducible() {
        let world = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut pop = PopulationBuilder::new(50).build(&mut rng).unwrap();
            let mut p = ChurnProcess::poisson(3.0, SessionDist::Exponential { mean: 8.0 }, seed);
            p.attach(&pop);
            let mut history = Vec::new();
            for _ in 0..20 {
                let plan = p.begin_round();
                for _ in 0..plan.arrivals {
                    let profile = p.sample_profile();
                    let id = pop.spawn(profile);
                    p.note_join(id);
                }
                for &v in &plan.departures {
                    pop.retire(v);
                }
                history.push(plan);
            }
            history
        };
        assert_eq!(world(9), world(9), "same seed, same lifetime history");
        assert_ne!(world(9), world(10), "different seeds diverge");
    }

    #[test]
    fn sessions_last_at_least_one_round() {
        let mut rng = StdRng::seed_from_u64(5);
        let pop = PopulationBuilder::new(30).build(&mut rng).unwrap();
        let mut p = ChurnProcess::poisson(0.0, SessionDist::Constant(0.01), 11);
        p.attach(&pop);
        let first = p.begin_round();
        assert!(
            first.departures.is_empty(),
            "every node participates in at least one round"
        );
        let second = p.begin_round();
        assert_eq!(
            second.departures.len(),
            30,
            "then the 0.01-round sessions all expire"
        );
        assert!(
            second.departures.windows(2).all(|w| w[0] < w[1]),
            "ascending ids"
        );
    }

    #[test]
    fn infinite_sessions_never_depart() {
        let mut rng = StdRng::seed_from_u64(6);
        let pop = PopulationBuilder::new(10).build(&mut rng).unwrap();
        let mut p = ChurnProcess::poisson(1.5, SessionDist::Constant(f64::INFINITY), 12);
        p.attach(&pop);
        assert_eq!(p.pending_departures(), 0);
        let mut arrivals = 0;
        for _ in 0..30 {
            let plan = p.begin_round();
            assert!(plan.departures.is_empty());
            arrivals += plan.arrivals;
            for i in 0..plan.arrivals {
                p.note_join(NodeId::new(100 + arrivals as u32 + i as u32));
            }
        }
        assert!(
            arrivals > 20,
            "growth-only process keeps arriving: {arrivals}"
        );
    }

    #[test]
    fn steady_state_hovers_around_target() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut pop = PopulationBuilder::new(200).build(&mut rng).unwrap();
        let mut p = ChurnProcess::steady_state(200, 0.05, 13);
        p.attach(&pop);
        for _ in 0..60 {
            let plan = p.begin_round();
            for _ in 0..plan.arrivals {
                let profile = p.sample_profile();
                let id = pop.spawn(profile);
                p.note_join(id);
            }
            for &v in &plan.departures {
                pop.retire(v);
            }
        }
        let alive = pop.alive_count();
        assert!(
            (120..=320).contains(&alive),
            "steady state drifted to {alive}"
        );
        assert!(pop.len() > 200, "ids grew monotonically");
    }

    #[test]
    fn arrival_profiles_with_invalid_delays_are_refused() {
        use crate::{SimTime, ValidationDist};
        for bad in [-30.0, f64::NAN, f64::INFINITY].map(SimTime::from_ms) {
            for dist in [
                ValidationDist::Constant(bad),
                ValidationDist::Exponential(bad),
            ] {
                let mut profile = PopulationBuilder::new(0);
                profile.validation(dist.clone());
                assert_eq!(
                    ChurnProcess::steady_state(60, 0.05, 9)
                        .with_arrival_profile(profile)
                        .err(),
                    Some(NetsimError::InvalidConfig(
                        "arrival validation delay is negative, NaN or infinite"
                    )),
                    "{dist:?}"
                );
            }
        }
    }

    #[test]
    fn compact_remaps_poisson_session_expiries() {
        let mut pop = crate::population::PopulationBuilder::new(6)
            .build(&mut StdRng::seed_from_u64(2))
            .unwrap();
        let mut p = ChurnProcess::poisson(0.0, SessionDist::Constant(5.0), 3);
        p.attach(&pop);
        assert_eq!(p.pending_departures(), 6);
        pop.retire(NodeId::new(0));
        pop.retire(NodeId::new(3));
        let plan = pop.compaction_plan().unwrap();
        p.compact(&plan);
        assert_eq!(p.pending_departures(), 4, "dead expiries dropped");
        for _ in 0..5 {
            assert!(p.begin_round().departures.is_empty());
        }
        // All four survivors' sessions expire together at round 5, under
        // their new ids.
        assert_eq!(
            p.begin_round().departures,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
    }

    #[test]
    fn covers_checks_every_scheduled_expiry() {
        let pop = PopulationBuilder::new(6)
            .build(&mut StdRng::seed_from_u64(2))
            .unwrap();
        let mut p = ChurnProcess::poisson(0.0, SessionDist::Constant(4.0), 9);
        p.attach(&pop);
        assert!(p.covers(6));
        assert!(!p.covers(5), "node 5's expiry lies outside a 5-slot world");
        p.note_join(NodeId::new(6000));
        assert!(!p.covers(6000) && p.covers(6001));
    }
}
