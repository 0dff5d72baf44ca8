//! Node lifetime as a simulated process: arrivals, departures and growing
//! networks without rebuilding the world.
//!
//! Real blockchain overlays are never frozen — measurement studies of
//! Ethereum's p2p layer and formation-dynamics models of auto-peering
//! systems both put the arrival/departure process front and center. This
//! module makes node lifetime a first-class, seeded, bit-reproducible
//! simulation input instead of a test fixture:
//!
//! * [`ChurnProcess`] — the lifetime driver. Either a stochastic process
//!   (Poisson arrivals per round, session lengths drawn from a
//!   [`SessionDist`] — constant, exponential, lognormal or Weibull) or a
//!   deterministic trace replay of [`LifetimeEvent`]s. The process owns
//!   its own seeded RNG, so the lifetime schedule is independent of the
//!   protocol RNG and identical across thread counts and queue kinds.
//! * [`WorldDelta`] — the per-round outcome: which ids joined and which
//!   departed. A node listed in *both* is an in-place session reset (same
//!   id, fresh edges, forgotten scores), planned by a traced
//!   [`LifetimeEventKind::Reset`].
//! * [`ChurnPlan`] — the raw per-round intent ([`ChurnProcess::begin_round`]):
//!   how many nodes arrive (ids are assigned by
//!   [`Population::spawn`](crate::Population::spawn), never by the
//!   process) and which existing ids leave or reset.
//!
//! The driver loop is: call [`ChurnProcess::begin_round`] once per round,
//! spawn one node per planned arrival (reporting each new id back via
//! [`ChurnProcess::note_join`] so its session expiry gets scheduled), tear
//! down departures, and hand the resulting [`WorldDelta`] — together with
//! the edge-level [`RoundDelta`](crate::RoundDelta) of everything the
//! teardown/bootstrap touched — to
//! [`TopologyView::apply_world_delta`](crate::TopologyView::apply_world_delta)
//! so the CSR snapshot is patched, never rebuilt.
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

use crate::node::{NodeId, NodeProfile};
use crate::population::{Population, PopulationBuilder};

/// The net node-set change of one round: who joined, who departed.
///
/// Ids appearing in both lists reset in place (same id, fresh state) —
/// the population itself is untouched for them. Consumed by
/// [`TopologyView::apply_world_delta`](crate::TopologyView::apply_world_delta)
/// and by the engine's score-state resize hook.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorldDelta {
    /// Nodes that joined this round (fresh ids, plus any reset ids).
    pub joined: Vec<NodeId>,
    /// Nodes that departed this round (retired ids, plus any reset ids).
    pub departed: Vec<NodeId>,
}

impl WorldDelta {
    /// `true` when the round changed no node's lifetime.
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty() && self.departed.is_empty()
    }

    /// The one-node in-place reset: `v` departs and rejoins atomically,
    /// keeping its id and profile but losing every edge and every learned
    /// score about or of it.
    pub fn reset(v: NodeId) -> Self {
        WorldDelta {
            joined: vec![v],
            departed: vec![v],
        }
    }

    /// Ids that joined as brand-new nodes (joined minus resets).
    pub fn spawned(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.joined
            .iter()
            .copied()
            .filter(|v| !self.departed.contains(v))
    }

    /// Ids that left for good (departed minus resets).
    pub fn retired(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.departed
            .iter()
            .copied()
            .filter(|v| !self.joined.contains(v))
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
    /// Lognormal sessions — the skew measurement studies report for
    /// real overlay session lengths (many short, a heavy persistent tail).
    LogNormal {
        /// Mean of the underlying normal (ln-rounds).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Weibull sessions — `shape < 1` gives the "young nodes are the most
    /// likely to leave" hazard seen in p2p measurement work.
    Weibull {
        /// Weibull shape parameter `k > 0`.
        shape: f64,
        /// Weibull scale parameter `λ > 0`, in rounds.
        scale: f64,
    },
}

impl SessionDist {
    /// A lognormal with the given *mean* session length (in rounds) and
    /// ln-space spread `sigma` — `mu` is solved from
    /// `mean = exp(mu + sigma²/2)`.
    pub fn lognormal_with_mean(mean_rounds: f64, sigma: f64) -> Self {
        assert!(mean_rounds > 0.0, "mean session length must be positive");
        SessionDist::LogNormal {
            mu: mean_rounds.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    /// Samples one session length in rounds (not yet rounded).
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            SessionDist::Constant(r) => r,
            SessionDist::Exponential { mean } => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            SessionDist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            SessionDist::Weibull { shape, scale } => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                scale * (-u.ln()).powf(1.0 / shape)
            }
        }
    }
}

/// One standard-normal draw (Box–Muller over two uniforms).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Poisson sample via Knuth's product method, chunked so the running
/// product never reaches the subnormal range even for large rates.
fn poisson<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> usize {
    assert!(
        rate.is_finite() && rate >= 0.0,
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

/// One scheduled lifetime event of a deterministic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifetimeEvent {
    /// The round (0-based, counted in [`ChurnProcess::begin_round`] calls)
    /// the event fires in.
    pub round: usize,
    /// What happens.
    pub kind: LifetimeEventKind,
}

/// The kinds of lifetime event a trace can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifetimeEventKind {
    /// One new node arrives (its id is assigned by the population).
    Join,
    /// The given node departs for good.
    Leave(NodeId),
    /// The given node resets in place (departs and rejoins, same id).
    Reset(NodeId),
}

/// The raw intent for one round, produced by
/// [`ChurnProcess::begin_round`]: the driver spawns `arrivals` nodes
/// (reporting ids via [`ChurnProcess::note_join`]), retires `departures`
/// and resets `resets`, then folds everything into one [`WorldDelta`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// How many new nodes arrive this round.
    pub arrivals: usize,
    /// Which nodes depart for good this round, ascending by id.
    pub departures: Vec<NodeId>,
    /// Which nodes reset in place this round, in trace order.
    pub resets: Vec<NodeId>,
}

impl ChurnPlan {
    /// `true` when the round has no lifetime events.
    pub fn is_empty(&self) -> bool {
        self.arrivals == 0 && self.departures.is_empty() && self.resets.is_empty()
    }
}

#[derive(Debug, Clone)]
enum Mode {
    Poisson {
        arrival_rate: f64,
        session: SessionDist,
    },
    Replay {
        /// Events sorted by round (stable, so same-round order is the
        /// caller's order).
        events: Vec<LifetimeEvent>,
        cursor: usize,
    },
}

/// A seeded node-lifetime process: Poisson arrivals with sampled session
/// lengths, or a deterministic [`LifetimeEvent`] trace.
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
/// let mut process = ChurnProcess::poisson(
///     2.0,
///     SessionDist::lognormal_with_mean(50.0, 0.5),
///     7,
/// );
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
    mode: Mode,
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
    pub fn poisson(arrival_rate: f64, session: SessionDist, seed: u64) -> Self {
        assert!(
            arrival_rate.is_finite() && arrival_rate >= 0.0,
            "arrival rate must be finite and non-negative"
        );
        ChurnProcess {
            mode: Mode::Poisson {
                arrival_rate,
                session,
            },
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
    /// equilibrium age distribution); pick
    /// [`SessionDist::lognormal_with_mean`] or [`SessionDist::Weibull`]
    /// explicitly to model the skewed session lengths measurement
    /// studies report.
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

    /// A deterministic trace replay: the given events fire at their
    /// rounds, in order. `seed` still feeds arrival-profile sampling.
    pub fn replay(mut events: Vec<LifetimeEvent>, seed: u64) -> Self {
        events.sort_by_key(|e| e.round);
        ChurnProcess {
            mode: Mode::Replay { events, cursor: 0 },
            rng: StdRng::seed_from_u64(seed ^ 0xD11A_111C5),
            profile: PopulationBuilder::new(0),
            round: 0,
            expiries: BinaryHeap::new(),
        }
    }

    /// Overrides the builder arrival profiles are sampled from (region
    /// mix, validation distribution, metric coordinates, bandwidth skew).
    pub fn with_arrival_profile(mut self, profile: PopulationBuilder) -> Self {
        self.profile = profile;
        self
    }

    /// Assigns sessions to every currently live node of `population` —
    /// call once when installing the process, so the initial population
    /// churns too (a Poisson-mode no-op for infinite sessions; replay
    /// mode needs no attachment).
    pub fn attach(&mut self, population: &Population) {
        if let Mode::Poisson { session, .. } = self.mode {
            let ids: Vec<NodeId> = population.ids_alive().collect();
            for id in ids {
                let len = session.sample(&mut self.rng);
                self.schedule_expiry(id, len);
            }
        }
    }

    /// Plans one round of lifetime events. The `k`-th call plans round
    /// `k`: due session expiries become departures (ascending by id),
    /// Poisson arrivals are counted, trace events fire.
    pub fn begin_round(&mut self) -> ChurnPlan {
        let r = self.round;
        self.round += 1;
        let mut plan = ChurnPlan::default();
        while let Some(&Reverse((due, id))) = self.expiries.peek() {
            if due > r as u64 {
                break;
            }
            self.expiries.pop();
            plan.departures.push(NodeId::new(id));
        }
        match &mut self.mode {
            Mode::Poisson { arrival_rate, .. } => {
                let rate = *arrival_rate;
                plan.arrivals = poisson(&mut self.rng, rate);
            }
            Mode::Replay { events, cursor } => {
                while let Some(e) = events.get(*cursor) {
                    if e.round > r {
                        break;
                    }
                    *cursor += 1;
                    if e.round < r {
                        continue; // rounds before the attach point: skipped
                    }
                    match e.kind {
                        LifetimeEventKind::Join => plan.arrivals += 1,
                        LifetimeEventKind::Leave(v) => plan.departures.push(v),
                        LifetimeEventKind::Reset(v) => plan.resets.push(v),
                    }
                }
            }
        }
        plan
    }

    /// Reports a spawned arrival's id back to the process so its session
    /// expiry gets scheduled (Poisson mode; replay traces schedule
    /// departures explicitly). Call once per planned arrival, right after
    /// [`Population::spawn`](crate::Population::spawn).
    pub fn note_join(&mut self, id: NodeId) {
        if let Mode::Poisson { session, .. } = self.mode {
            let len = session.sample(&mut self.rng);
            // `round` already points past the joining round — which is the
            // node's first round of participation, the same base an
            // attached node gets: ⌈len⌉ full rounds either way.
            self.schedule_expiry(id, len);
        }
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

    /// Session expiries not yet fired (Poisson mode).
    pub fn pending_departures(&self) -> usize {
        self.expiries.len()
    }

    /// Applies a free-list compaction plan (see
    /// [`Population::compaction_plan`](crate::Population::compaction_plan)):
    /// scheduled session expiries are renumbered to the survivors' new
    /// ids (an expiry for a dead id — a node torn down by a trace before
    /// its session ran out — is dropped), and, in replay mode, so are the
    /// un-consumed trace events. A future `Leave`/`Reset` naming a node
    /// that is already dead is dropped with its target; consumed events
    /// are dropped too (they are never read again), with the cursor
    /// adjusted so the replay continues from the same point.
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
        if let Mode::Replay { events, cursor } = &mut self.mode {
            let mut kept = Vec::with_capacity(events.len());
            let mut new_cursor = 0usize;
            for (i, e) in events.iter().enumerate() {
                let remapped = match e.kind {
                    LifetimeEventKind::Join => Some(e.kind),
                    LifetimeEventKind::Leave(v) => {
                        if i < *cursor {
                            None // consumed: never read again
                        } else {
                            plan.new_id(v).map(LifetimeEventKind::Leave)
                        }
                    }
                    LifetimeEventKind::Reset(v) => {
                        if i < *cursor {
                            None
                        } else {
                            plan.new_id(v).map(LifetimeEventKind::Reset)
                        }
                    }
                };
                match remapped {
                    Some(kind) => {
                        kept.push(LifetimeEvent {
                            round: e.round,
                            kind,
                        });
                        if i < *cursor {
                            new_cursor += 1;
                        }
                    }
                    None if i < *cursor => {} // dropped consumed event
                    None => {}                // dropped stale future event
                }
            }
            *events = kept;
            *cursor = new_cursor;
        }
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
    //! *mutable* cross-round state: its private RNG position, the replay
    //! cursor, the round counter and the scheduled-expiry heap. All four
    //! are captured exactly — the RNG travels as its raw xoshiro state and
    //! the heap as its element multiset (pop order over distinct
    //! `(round, id)` keys is independent of internal heap layout), so a
    //! restored process continues the lifetime stream bit for bit.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::*;

    impl Encode for WorldDelta {
        fn encode(&self, out: &mut Vec<u8>) {
            self.joined.encode(out);
            self.departed.encode(out);
        }
    }

    impl Decode for WorldDelta {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(WorldDelta {
                joined: Vec::decode(r)?,
                departed: Vec::decode(r)?,
            })
        }
    }

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
                SessionDist::LogNormal { mu, sigma } => {
                    2u8.encode(out);
                    mu.encode(out);
                    sigma.encode(out);
                }
                SessionDist::Weibull { shape, scale } => {
                    3u8.encode(out);
                    shape.encode(out);
                    scale.encode(out);
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
                2 => Ok(SessionDist::LogNormal {
                    mu: f64::decode(r)?,
                    sigma: f64::decode(r)?,
                }),
                3 => Ok(SessionDist::Weibull {
                    shape: f64::decode(r)?,
                    scale: f64::decode(r)?,
                }),
                _ => Err(DecodeError::new("invalid session-dist tag")),
            }
        }
    }

    impl Encode for LifetimeEventKind {
        fn encode(&self, out: &mut Vec<u8>) {
            match *self {
                LifetimeEventKind::Join => 0u8.encode(out),
                LifetimeEventKind::Leave(v) => {
                    1u8.encode(out);
                    v.encode(out);
                }
                LifetimeEventKind::Reset(v) => {
                    2u8.encode(out);
                    v.encode(out);
                }
            }
        }
    }

    impl Decode for LifetimeEventKind {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(LifetimeEventKind::Join),
                1 => Ok(LifetimeEventKind::Leave(NodeId::decode(r)?)),
                2 => Ok(LifetimeEventKind::Reset(NodeId::decode(r)?)),
                _ => Err(DecodeError::new("invalid lifetime-event tag")),
            }
        }
    }

    impl Encode for LifetimeEvent {
        fn encode(&self, out: &mut Vec<u8>) {
            self.round.encode(out);
            self.kind.encode(out);
        }
    }

    impl Decode for LifetimeEvent {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(LifetimeEvent {
                round: usize::decode(r)?,
                kind: LifetimeEventKind::decode(r)?,
            })
        }
    }

    impl Encode for Mode {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Mode::Poisson {
                    arrival_rate,
                    session,
                } => {
                    0u8.encode(out);
                    arrival_rate.encode(out);
                    session.encode(out);
                }
                Mode::Replay { events, cursor } => {
                    1u8.encode(out);
                    events.encode(out);
                    cursor.encode(out);
                }
            }
        }
    }

    impl Decode for Mode {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(Mode::Poisson {
                    arrival_rate: f64::decode(r)?,
                    session: SessionDist::decode(r)?,
                }),
                1 => {
                    let events: Vec<LifetimeEvent> = Vec::decode(r)?;
                    let cursor = usize::decode(r)?;
                    if cursor > events.len() {
                        return Err(DecodeError::new("replay cursor past end of trace"));
                    }
                    Ok(Mode::Replay { events, cursor })
                }
                _ => Err(DecodeError::new("invalid churn-mode tag")),
            }
        }
    }

    impl Encode for ChurnProcess {
        fn encode(&self, out: &mut Vec<u8>) {
            self.mode.encode(out);
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
            let mode = Mode::decode(r)?;
            let rng_state = <[u64; 4]>::decode(r)?;
            if rng_state == [0; 4] {
                return Err(DecodeError::new("all-zero churn rng state"));
            }
            let profile = PopulationBuilder::decode(r)?;
            let round = usize::decode(r)?;
            let expiries: Vec<(u64, u32)> = Vec::decode(r)?;
            Ok(ChurnProcess {
                mode,
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
    fn world_delta_reset_shape() {
        let d = WorldDelta::reset(NodeId::new(4));
        assert!(!d.is_empty());
        assert_eq!(d.spawned().count(), 0, "a reset spawns nobody");
        assert_eq!(d.retired().count(), 0, "a reset retires nobody");
        assert!(WorldDelta::default().is_empty());
    }

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
            (SessionDist::lognormal_with_mean(25.0, 0.5), 25.0),
            // Weibull mean = scale·Γ(1 + 1/shape); shape 1 is exponential.
            (
                SessionDist::Weibull {
                    shape: 1.0,
                    scale: 30.0,
                },
                30.0,
            ),
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
    fn process_is_bit_reproducible() {
        let world = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut pop = PopulationBuilder::new(50).build(&mut rng).unwrap();
            let mut p =
                ChurnProcess::poisson(3.0, SessionDist::lognormal_with_mean(8.0, 0.6), seed);
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
    fn replay_fires_events_at_their_rounds() {
        let events = vec![
            LifetimeEvent {
                round: 1,
                kind: LifetimeEventKind::Leave(NodeId::new(3)),
            },
            LifetimeEvent {
                round: 0,
                kind: LifetimeEventKind::Join,
            },
            LifetimeEvent {
                round: 1,
                kind: LifetimeEventKind::Reset(NodeId::new(5)),
            },
            LifetimeEvent {
                round: 3,
                kind: LifetimeEventKind::Join,
            },
        ];
        let mut p = ChurnProcess::replay(events, 1);
        let r0 = p.begin_round();
        assert_eq!(
            (r0.arrivals, r0.departures.len(), r0.resets.len()),
            (1, 0, 0)
        );
        let r1 = p.begin_round();
        assert_eq!(r1.departures, vec![NodeId::new(3)]);
        assert_eq!(r1.resets, vec![NodeId::new(5)]);
        assert!(p.begin_round().is_empty(), "round 2 is quiet");
        assert_eq!(p.begin_round().arrivals, 1);
        assert_eq!(p.rounds_elapsed(), 4);
    }

    #[test]
    fn compact_remaps_replay_events_and_expiries() {
        use crate::population::IdRemap;
        // A 6-node world where 1 and 4 die before the compaction.
        let mut pop = crate::population::PopulationBuilder::new(6)
            .build(&mut StdRng::seed_from_u64(2))
            .unwrap();
        pop.retire(NodeId::new(1));
        pop.retire(NodeId::new(4));
        let plan: IdRemap = pop.compaction_plan().unwrap();

        let events = vec![
            // Already consumed by round 0 (below): dropped on compact.
            LifetimeEvent {
                round: 0,
                kind: LifetimeEventKind::Leave(NodeId::new(1)),
            },
            // Future events: 5 → 3, the dead-id Reset(4) is dropped.
            LifetimeEvent {
                round: 2,
                kind: LifetimeEventKind::Leave(NodeId::new(5)),
            },
            LifetimeEvent {
                round: 2,
                kind: LifetimeEventKind::Reset(NodeId::new(4)),
            },
            LifetimeEvent {
                round: 3,
                kind: LifetimeEventKind::Join,
            },
        ];
        let mut p = ChurnProcess::replay(events, 1);
        assert_eq!(p.begin_round().departures, vec![NodeId::new(1)]);

        p.compact(&plan);
        assert!(p.begin_round().is_empty(), "round 1 is quiet");
        let r2 = p.begin_round();
        assert_eq!(r2.departures, vec![NodeId::new(3)], "5 renumbered to 3");
        assert!(r2.resets.is_empty(), "dead-id reset dropped");
        assert_eq!(p.begin_round().arrivals, 1, "joins always survive");
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
}
