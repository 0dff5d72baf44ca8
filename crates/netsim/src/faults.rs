//! Link-level fault injection: seeded, bit-reproducible network weather.
//!
//! A [`FaultPlan`] schedules per-link faults over a whole run — drop
//! probability, extra delay and jitter, message duplication, link flaps,
//! timed network partitions with heal, and regional degradation windows —
//! without touching the propagation engines' determinism contract. Every
//! fault decision is a *pure function* of `(plan seed, round, global block
//! index, CSR edge index, copy, purpose)` through a SplitMix64-style
//! stateless hash: no protocol RNG is ever consumed mid-flood, so faulted
//! rounds stay bit-identical across thread counts, and an inert plan (all
//! rates zero, no windows) is bit-identical to running with no plan at
//! all.
//!
//! # Where faults land in the event pipeline
//!
//! Faults apply to the **announcement leg** of every directed edge — the
//! link crossing that first offers a block to a neighbor (the relaxation
//! edge of the analytic flood; the block push in flood gossip; the INV in
//! INV/GETDATA gossip). Per block and per directed edge,
//! [`BlockFaults::announce_leg`] resolves drop, duplication, extra delay
//! and jitter into *at most one* effective crossing (duplicated copies
//! collapse to the earliest survivor), which preserves the gossip
//! engine's one-announcement-per-edge invariant: a dropped announcement
//! consumes exactly one sequence number (like an inert event) and its row
//! entry reads as never delivered, so the event schedule — and therefore
//! tie-breaking — is unchanged. Request/response legs (GETDATA and the
//! block transfer it pulls) are modelled as reliable-but-slowed: they pay
//! the regional slow factor via [`BlockFaults::scaled`] but never drop,
//! so a delivered INV can always complete (no request deadlock). Link
//! flaps and partitions take a link down entirely for whole rounds: both
//! directions of the pair fail together, and nothing crosses.
//!
//! # Compilation
//!
//! Per round the engine calls [`FaultPlan::compile`], which resolves the
//! active [`FaultWindow`] rates and materializes the round's link state
//! against a frozen [`TopologyView`]: a directed-edge `down` bitset
//! (flaps + partitions) and a per-edge `slow` factor vector (regional
//! windows). Both stay empty — and every per-edge check a cheap
//! `is_empty()` — when no flap/partition/regional fault is active, so the
//! zero-fault path allocates nothing.

use serde::{Deserialize, Serialize};

use crate::counters::SimCounters;
use crate::node::Region;
use crate::time::SimTime;
use crate::view::TopologyView;

/// SplitMix64 finalizer: the stateless mixing function behind every fault
/// decision (and the traffic layer's hash-based Poisson draws — see
/// [`traffic`](crate::traffic)).
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)` using the top 53 bits.
#[inline]
pub(crate) fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Decorrelates the edge index from the purpose tag inside a draw key.
const EDGE_STRIDE: u64 = 0xD6E8_FEB8_6659_FD93;

/// Per-link fault rates applied to every announcement crossing a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LinkFaultRates {
    /// Probability an announcement copy is dropped on the link.
    pub drop_prob: f64,
    /// Deterministic extra delay added to every surviving announcement.
    pub extra_delay: SimTime,
    /// Uniform jitter in `[0, jitter)` added on top of `extra_delay`.
    pub jitter: SimTime,
    /// Probability the announcement is duplicated (the duplicate rolls
    /// its own drop and jitter; the earliest surviving copy wins).
    pub duplicate_prob: f64,
}

impl LinkFaultRates {
    /// No faults at all.
    pub const NONE: LinkFaultRates = LinkFaultRates {
        drop_prob: 0.0,
        extra_delay: SimTime::ZERO,
        jitter: SimTime::ZERO,
        duplicate_prob: 0.0,
    };

    /// Returns `true` if these rates cannot alter any announcement.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.drop_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.extra_delay.as_ms() <= 0.0
            && self.jitter.as_ms() <= 0.0
    }

    fn validate(&self) -> Result<(), &'static str> {
        if !(0.0..=1.0).contains(&self.drop_prob) {
            return Err("drop_prob must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.duplicate_prob) {
            return Err("duplicate_prob must be in [0, 1]");
        }
        if !self.extra_delay.is_finite() || self.extra_delay.as_ms() < 0.0 {
            return Err("extra_delay must be finite and non-negative");
        }
        if !self.jitter.is_finite() || self.jitter.as_ms() < 0.0 {
            return Err("jitter must be finite and non-negative");
        }
        Ok(())
    }
}

/// A window of rounds `[start, end)` during which `rates` replace the
/// plan's base rates. When windows overlap, the later-listed window wins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First round (inclusive) the window applies to.
    pub start: usize,
    /// First round (exclusive) after the window.
    pub end: usize,
    /// Rates in force while the window is active.
    pub rates: LinkFaultRates,
}

/// A population of flapping links: a fixed fraction of the (undirected)
/// links cycles down-for-`down`-rounds every `period` rounds, each link
/// on its own seeded phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFlaps {
    /// Fraction of undirected links that flap at all.
    pub fraction: f64,
    /// Cycle length in rounds.
    pub period: usize,
    /// Rounds per cycle the link spends down (must be `< period`).
    pub down: usize,
}

/// A timed network partition: from round `start` (inclusive) to round
/// `heal` (exclusive), every link crossing the seeded two-sided split is
/// down. Roughly `fraction` of the nodes land on side A.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// First round (inclusive) of the partition.
    pub start: usize,
    /// First round (exclusive) after the partition heals.
    pub heal: usize,
    /// Expected fraction of nodes on side A of the split.
    pub fraction: f64,
}

/// A regional degradation window: every link touching a node in `region`
/// is slowed by `slow_factor` while the window is active. Overlapping
/// windows multiply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionalWindow {
    /// The degraded region.
    pub region: Region,
    /// First round (inclusive) of the brownout.
    pub start: usize,
    /// First round (exclusive) after the brownout.
    pub end: usize,
    /// Multiplier on the latency of every link touching the region
    /// (`>= 1.0` slows it down).
    pub slow_factor: f64,
}

/// A seeded, bit-reproducible schedule of link-level faults for a run.
///
/// Compile one [`RoundFaults`] per round via [`FaultPlan::compile`], then
/// derive one [`BlockFaults`] per block via [`RoundFaults::block`]. All
/// decisions are stateless hashes of the seed — the plan never consumes
/// protocol RNG, so installing it cannot perturb an engine's random
/// stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Seed for every fault decision in the plan.
    pub seed: u64,
    /// Rates in force outside any [`FaultWindow`].
    pub base: LinkFaultRates,
    /// Timed rate overrides (later-listed windows win on overlap).
    pub windows: Vec<FaultWindow>,
    /// Optional flapping-link population.
    pub flaps: Option<LinkFlaps>,
    /// Timed partitions (a link crossing *any* active split is down).
    pub partitions: Vec<PartitionWindow>,
    /// Regional degradation windows (overlaps multiply).
    pub regional: Vec<RegionalWindow>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults of any kind.
    pub fn inert(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Returns `true` if this plan can never alter any round.
    pub fn is_inert(&self) -> bool {
        self.base.is_inert()
            && self.windows.iter().all(|w| w.rates.is_inert())
            && self.flaps.is_none()
            && self.partitions.is_empty()
            && self.regional.is_empty()
    }

    /// Validates the plan's parameters.
    pub fn validate(&self) -> Result<(), &'static str> {
        self.base.validate()?;
        for w in &self.windows {
            w.rates.validate()?;
        }
        if let Some(f) = self.flaps {
            if !(0.0..=1.0).contains(&f.fraction) {
                return Err("flap fraction must be in [0, 1]");
            }
            if f.period == 0 || f.down >= f.period {
                return Err("flap down must be < period and period > 0");
            }
        }
        for p in &self.partitions {
            if !(0.0..=1.0).contains(&p.fraction) {
                return Err("partition fraction must be in [0, 1]");
            }
        }
        for r in &self.regional {
            if !r.slow_factor.is_finite() || r.slow_factor < 0.0 {
                return Err("regional slow_factor must be finite and non-negative");
            }
        }
        Ok(())
    }

    /// Which side of partition window `w` node `v` lands on.
    #[inline]
    fn partition_side(&self, w: usize, v: u32, fraction: f64) -> bool {
        u01(mix(self.seed ^ 0x5A17 ^ ((w as u64) << 32) ^ u64::from(v))) < fraction
    }

    /// Resolves this plan against a frozen snapshot for one round.
    ///
    /// `regions[i]` must be node `i`'s region (dead slots may carry any
    /// value — their CSR rows are empty). The result borrows nothing and
    /// is immutable, so blocks can consult it from any thread.
    pub fn compile(&self, round: usize, view: &TopologyView, regions: &[Region]) -> RoundFaults {
        // Rates: base, overridden by the last-listed active window.
        let mut rates = self.base;
        for w in &self.windows {
            if w.start <= round && round < w.end {
                rates = w.rates;
            }
        }

        let n = view.offsets.len() - 1;
        let m = view.edges.len();

        // Partitions: assign sides per active window, then down every
        // crossing edge. Flaps: membership and phase are per undirected
        // pair and round-independent; only up/down cycles with the round.
        let active_partitions: Vec<(usize, f64)> = self
            .partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.start <= round && round < p.heal)
            .map(|(i, p)| (i, p.fraction))
            .collect();
        let mut down = Vec::new();
        if self.flaps.is_some() || !active_partitions.is_empty() {
            let mut any = false;
            let mut bits = vec![0u64; m.div_ceil(64)];
            for u in 0..n {
                for e in view.offsets[u]..view.offsets[u + 1] {
                    let v = view.edges[e];
                    let mut is_down = false;
                    if let Some(f) = self.flaps {
                        let (a, b) = if (u as u32) < v {
                            (u as u32, v)
                        } else {
                            (v, u as u32)
                        };
                        let pair = mix(self.seed ^ 0xF1A9 ^ ((u64::from(a) << 32) | u64::from(b)));
                        if u01(pair) < f.fraction {
                            let phase = mix(pair) as usize % f.period;
                            is_down |= (round + phase) % f.period < f.down;
                        }
                    }
                    if !is_down {
                        for &(w, fraction) in &active_partitions {
                            if self.partition_side(w, u as u32, fraction)
                                != self.partition_side(w, v, fraction)
                            {
                                is_down = true;
                                break;
                            }
                        }
                    }
                    if is_down {
                        bits[e >> 6] |= 1 << (e & 63);
                        any = true;
                    }
                }
            }
            if any {
                down = bits;
            }
        }

        // Regional slowdowns: per-edge multiplier, active windows multiply.
        let active_regional: Vec<&RegionalWindow> = self
            .regional
            .iter()
            .filter(|r| r.start <= round && round < r.end)
            .collect();
        let mut slow = Vec::new();
        if !active_regional.is_empty() {
            slow = vec![1.0f64; m];
            for u in 0..n {
                let (lo, hi) = (view.offsets[u], view.offsets[u + 1]);
                for (s, &dst) in slow[lo..hi].iter_mut().zip(&view.edges[lo..hi]) {
                    let v = dst as usize;
                    for r in &active_regional {
                        if regions[u] == r.region || regions[v] == r.region {
                            *s *= r.slow_factor;
                        }
                    }
                }
            }
        }

        RoundFaults {
            rates,
            key: mix(self.seed ^ mix(round as u64)),
            down,
            slow,
        }
    }
}

/// One round's resolved fault state: rates plus materialized link state.
///
/// Immutable once compiled — safe to share across the block fan-out.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFaults {
    rates: LinkFaultRates,
    key: u64,
    /// Directed-edge down bitset; empty when no link is down.
    down: Vec<u64>,
    /// Per-directed-edge latency multiplier; empty when all are 1.0.
    slow: Vec<f64>,
}

impl RoundFaults {
    /// The rates in force this round.
    #[inline]
    pub fn rates(&self) -> &LinkFaultRates {
        &self.rates
    }

    /// Does this round carry no faults at all — inert rates, no link
    /// down, no regional slowdown? Callers can skip the faulted
    /// propagation path entirely for such rounds (a windowed plan is
    /// inert outside its windows), which is how an installed-but-idle
    /// plan costs nothing.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.rates.is_inert() && self.down.is_empty() && self.slow.is_empty()
    }

    /// Is directed edge `e` down this round (flap or partition)?
    #[inline]
    pub fn edge_down(&self, e: usize) -> bool {
        !self.down.is_empty() && (self.down[e >> 6] >> (e & 63)) & 1 == 1
    }

    /// Number of directed edges down this round.
    pub fn down_count(&self) -> usize {
        self.down.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Derives the fault lens for one block. `global_block` must be the
    /// run-global block index so different blocks draw independent fates.
    #[inline]
    pub fn block(&self, global_block: usize) -> BlockFaults<'_> {
        BlockFaults {
            rf: self,
            block_key: mix(self.key ^ (global_block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

/// What the fault lens did to one announcement leg (see
/// [`BlockFaults::announce_leg_classified`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegOutcome {
    /// Effective arrival latency; `None` if the announcement never
    /// arrives (link down or every copy dropped).
    pub time: Option<SimTime>,
    /// The surviving copy paid a regional slow factor, extra delay or
    /// jitter.
    pub delayed: bool,
    /// The duplication roll fired (a second copy was created, whether or
    /// not it survived).
    pub duplicated: bool,
}

/// The fault decisions for one block: a pure lens over [`RoundFaults`].
#[derive(Debug, Clone, Copy)]
pub struct BlockFaults<'a> {
    rf: &'a RoundFaults,
    block_key: u64,
}

impl BlockFaults<'_> {
    #[inline]
    fn draw(&self, e: usize, purpose: u64) -> f64 {
        u01(mix(self.block_key
            ^ (e as u64).wrapping_mul(EDGE_STRIDE)
            ^ purpose))
    }

    /// The fate of this block's announcement on directed edge `e` whose
    /// fault-free latency is `base`: `None` if it never arrives (link
    /// down, or every copy dropped), otherwise the effective latency —
    /// the regional slow factor times `base`, plus the smallest
    /// `extra_delay + jitter` over the surviving copies. With inert rates
    /// and no link state this returns `Some(base)` *bitwise* (no
    /// arithmetic is applied), which is what makes an inert plan
    /// bit-identical to no plan.
    #[inline]
    pub fn announce_leg(&self, e: usize, base: SimTime) -> Option<SimTime> {
        self.announce_leg_classified(e, base).time
    }

    /// [`Self::announce_leg`] plus a classification of what the lens did
    /// (delay applied? duplicate rolled?), computed from the same draws,
    /// so telemetry call sites can count fault events without a second
    /// pass over the hash stream.
    #[inline]
    pub fn announce_leg_classified(&self, e: usize, base: SimTime) -> LegOutcome {
        let rf = self.rf;
        if rf.edge_down(e) {
            return LegOutcome {
                time: None,
                delayed: false,
                duplicated: false,
            };
        }
        let (scaled, slowed) = if rf.slow.is_empty() {
            (base, false)
        } else {
            (base * rf.slow[e], rf.slow[e] != 1.0)
        };
        let r = &rf.rates;
        if r.is_inert() {
            return LegOutcome {
                time: Some(scaled),
                delayed: slowed,
                duplicated: false,
            };
        }
        let mut best: Option<SimTime> = None;
        if self.draw(e, 1) >= r.drop_prob {
            let jitter = if r.jitter.as_ms() > 0.0 {
                r.jitter * self.draw(e, 2)
            } else {
                SimTime::ZERO
            };
            best = Some(r.extra_delay + jitter);
        }
        let mut duplicated = false;
        if r.duplicate_prob > 0.0 && self.draw(e, 3) < r.duplicate_prob {
            duplicated = true;
            if self.draw(e, 4) >= r.drop_prob {
                let jitter = if r.jitter.as_ms() > 0.0 {
                    r.jitter * self.draw(e, 5)
                } else {
                    SimTime::ZERO
                };
                let extra = r.extra_delay + jitter;
                best = Some(match best {
                    Some(b) => b.min(extra),
                    None => extra,
                });
            }
        }
        let mut delayed = false;
        let time = best.map(|extra| {
            delayed = slowed || extra.as_ms() > 0.0;
            if extra.as_ms() == 0.0 {
                scaled
            } else {
                scaled + extra
            }
        });
        LegOutcome {
            time,
            delayed,
            duplicated,
        }
    }

    /// The effective latency of a reliable request/response leg (GETDATA,
    /// block transfer) on directed edge `e`: pays the regional slow
    /// factor but never drops — a delivered announcement can always
    /// complete. With no regional window this returns `base` bitwise.
    #[inline]
    pub fn scaled(&self, e: usize, base: SimTime) -> SimTime {
        let rf = self.rf;
        if rf.slow.is_empty() {
            base
        } else {
            base * rf.slow[e]
        }
    }
}

/// How a propagation kernel sees its links: the flood, the gossip kernel,
/// the gossip event loop and the delivery-row rule are each written
/// once, generic over this lens. The
/// zero-size [`NoFaults`] lens returns every base latency untouched and
/// is monomorphized into the plain fault-free loop; `&BlockFaults` is
/// the faulted one.
pub(crate) trait FaultLens: Copy {
    /// The announcement leg across directed edge `e` whose fault-free
    /// latency is `base` ([`BlockFaults::announce_leg`]): `None` when it
    /// never arrives. Tallies what the lens did into `counters`.
    fn announce(self, e: usize, base: SimTime, counters: &mut SimCounters) -> Option<SimTime>;

    /// A reliable request/response leg ([`BlockFaults::scaled`]).
    fn reliable(self, e: usize, base: SimTime) -> SimTime;

    /// The announcement a delivery row replays, untallied: the leg the
    /// announcer crossed over its entry `rev`, opposite the row's own
    /// entry, whose cached latency `own` the latency contract makes
    /// equal to `delays[rev]`.
    fn replay(self, delays: &[SimTime], rev: usize, own: SimTime) -> Option<SimTime>;
}

/// The fault-free lens.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoFaults;

impl FaultLens for NoFaults {
    #[inline(always)]
    fn announce(self, _: usize, base: SimTime, _: &mut SimCounters) -> Option<SimTime> {
        Some(base)
    }

    #[inline(always)]
    fn reliable(self, _: usize, base: SimTime) -> SimTime {
        base
    }

    #[inline(always)]
    fn replay(self, _: &[SimTime], _: usize, own: SimTime) -> Option<SimTime> {
        Some(own)
    }
}

impl FaultLens for &BlockFaults<'_> {
    #[inline]
    fn announce(self, e: usize, base: SimTime, counters: &mut SimCounters) -> Option<SimTime> {
        let fate = self.announce_leg_classified(e, base);
        counters.fault_delays += fate.delayed as u64;
        counters.fault_dupes += fate.duplicated as u64;
        counters.fault_drops += fate.time.is_none() as u64;
        fate.time
    }

    #[inline]
    fn reliable(self, e: usize, base: SimTime) -> SimTime {
        self.scaled(e, base)
    }

    #[inline]
    fn replay(self, delays: &[SimTime], rev: usize, _: SimTime) -> Option<SimTime> {
        self.announce_leg(rev, delays[rev])
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`). A [`FaultPlan`] is pure
    //! configuration — every per-round decision is a stateless hash of the
    //! seed — so serializing the plan struct captures the fault schedule
    //! completely; no cursor or RNG position exists to save.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::*;

    impl Encode for LinkFaultRates {
        fn encode(&self, out: &mut Vec<u8>) {
            self.drop_prob.encode(out);
            self.extra_delay.encode(out);
            self.jitter.encode(out);
            self.duplicate_prob.encode(out);
        }
    }

    impl Decode for LinkFaultRates {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(LinkFaultRates {
                drop_prob: f64::decode(r)?,
                extra_delay: SimTime::decode(r)?,
                jitter: SimTime::decode(r)?,
                duplicate_prob: f64::decode(r)?,
            })
        }
    }

    impl Encode for FaultWindow {
        fn encode(&self, out: &mut Vec<u8>) {
            self.start.encode(out);
            self.end.encode(out);
            self.rates.encode(out);
        }
    }

    impl Decode for FaultWindow {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(FaultWindow {
                start: usize::decode(r)?,
                end: usize::decode(r)?,
                rates: LinkFaultRates::decode(r)?,
            })
        }
    }

    impl Encode for LinkFlaps {
        fn encode(&self, out: &mut Vec<u8>) {
            self.fraction.encode(out);
            self.period.encode(out);
            self.down.encode(out);
        }
    }

    impl Decode for LinkFlaps {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(LinkFlaps {
                fraction: f64::decode(r)?,
                period: usize::decode(r)?,
                down: usize::decode(r)?,
            })
        }
    }

    impl Encode for PartitionWindow {
        fn encode(&self, out: &mut Vec<u8>) {
            self.start.encode(out);
            self.heal.encode(out);
            self.fraction.encode(out);
        }
    }

    impl Decode for PartitionWindow {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(PartitionWindow {
                start: usize::decode(r)?,
                heal: usize::decode(r)?,
                fraction: f64::decode(r)?,
            })
        }
    }

    impl Encode for RegionalWindow {
        fn encode(&self, out: &mut Vec<u8>) {
            self.region.encode(out);
            self.start.encode(out);
            self.end.encode(out);
            self.slow_factor.encode(out);
        }
    }

    impl Decode for RegionalWindow {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(RegionalWindow {
                region: Region::decode(r)?,
                start: usize::decode(r)?,
                end: usize::decode(r)?,
                slow_factor: f64::decode(r)?,
            })
        }
    }

    impl Encode for FaultPlan {
        fn encode(&self, out: &mut Vec<u8>) {
            self.seed.encode(out);
            self.base.encode(out);
            self.windows.encode(out);
            self.flaps.encode(out);
            self.partitions.encode(out);
            self.regional.encode(out);
        }
    }

    impl Decode for FaultPlan {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let plan = FaultPlan {
                seed: u64::decode(r)?,
                base: LinkFaultRates::decode(r)?,
                windows: Vec::decode(r)?,
                flaps: Option::decode(r)?,
                partitions: Vec::decode(r)?,
                regional: Vec::decode(r)?,
            };
            plan.validate()
                .map_err(|_| DecodeError::new("fault plan fails validation"))?;
            Ok(plan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConnectionLimits, Topology};
    use crate::latency::GeoLatencyModel;
    use crate::node::NodeId;
    use crate::population::PopulationBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn world(n: usize, seed: u64) -> (TopologyView, Vec<Region>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(n, ConnectionLimits::paper_default());
        for i in 0..n as u32 {
            let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % n as u32));
        }
        for _ in 0..2 * n {
            let u = NodeId::new(rng.gen_range(0..n as u32));
            let v = NodeId::new(rng.gen_range(0..n as u32));
            let _ = topo.connect(u, v);
        }
        let regions = pop.iter().map(|p| p.region).collect();
        (TopologyView::new(&topo, &lat, &pop), regions)
    }

    #[test]
    fn inert_plan_compiles_to_empty_state_and_identity_legs() {
        let (view, regions) = world(40, 1);
        let plan = FaultPlan::inert(7);
        assert!(plan.is_inert());
        let rf = plan.compile(3, &view, &regions);
        assert_eq!(rf.down_count(), 0);
        let bf = rf.block(12);
        for e in 0..view.edges.len() {
            let base = view.delay[e];
            assert_eq!(bf.announce_leg(e, base), Some(base));
            assert_eq!(bf.scaled(e, base), base);
        }
    }

    #[test]
    fn decisions_are_reproducible_and_block_dependent() {
        let (view, regions) = world(40, 2);
        let plan = FaultPlan {
            seed: 99,
            base: LinkFaultRates {
                drop_prob: 0.3,
                extra_delay: SimTime::from_ms(5.0),
                jitter: SimTime::from_ms(10.0),
                duplicate_prob: 0.2,
            },
            ..FaultPlan::default()
        };
        let rf1 = plan.compile(4, &view, &regions);
        let rf2 = plan.compile(4, &view, &regions);
        assert_eq!(rf1, rf2, "compilation must be deterministic");
        let (a, b) = (rf1.block(0), rf1.block(1));
        let mut diverged = false;
        let mut dropped = 0usize;
        for e in 0..view.edges.len() {
            let base = view.delay[e];
            let (fa, fb) = (a.announce_leg(e, base), b.announce_leg(e, base));
            assert_eq!(fa, rf2.block(0).announce_leg(e, base));
            if let Some(t) = fa {
                assert!(t >= base, "faults can only add delay");
            } else {
                dropped += 1;
            }
            diverged |= fa != fb;
        }
        assert!(diverged, "different blocks must draw different fates");
        assert!(dropped > 0, "a 30% drop rate must drop something");
    }

    #[test]
    fn windows_override_base_rates_with_later_wins() {
        let (view, regions) = world(20, 3);
        let burst = LinkFaultRates {
            drop_prob: 1.0,
            ..LinkFaultRates::NONE
        };
        let calm = LinkFaultRates::NONE;
        let plan = FaultPlan {
            seed: 5,
            base: calm,
            windows: vec![
                FaultWindow {
                    start: 2,
                    end: 8,
                    rates: burst,
                },
                FaultWindow {
                    start: 5,
                    end: 6,
                    rates: calm,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.compile(0, &view, &regions).rates(), &calm);
        assert_eq!(plan.compile(2, &view, &regions).rates(), &burst);
        // Overlap: the later-listed window wins.
        assert_eq!(plan.compile(5, &view, &regions).rates(), &calm);
        assert_eq!(plan.compile(7, &view, &regions).rates(), &burst);
        assert_eq!(plan.compile(8, &view, &regions).rates(), &calm);
        // A total drop window kills every announcement.
        let rf = plan.compile(3, &view, &regions);
        let bf = rf.block(0);
        for e in 0..view.edges.len() {
            assert_eq!(bf.announce_leg(e, view.delay[e]), None);
        }
    }

    #[test]
    fn partitions_down_crossing_edges_symmetrically_and_heal() {
        let (view, regions) = world(60, 4);
        let plan = FaultPlan {
            seed: 11,
            partitions: vec![PartitionWindow {
                start: 1,
                heal: 4,
                fraction: 0.5,
            }],
            ..FaultPlan::default()
        };
        let rf = plan.compile(2, &view, &regions);
        assert!(rf.down_count() > 0, "a 50/50 split must cut something");
        // Downness is symmetric: e down iff reverse[e] down.
        for e in 0..view.edges.len() {
            assert_eq!(
                rf.edge_down(e),
                rf.edge_down(view.reverse[e] as usize),
                "asymmetric link state at edge {e}"
            );
        }
        let healed = plan.compile(4, &view, &regions);
        assert_eq!(healed.down_count(), 0, "healed round must be clean");
    }

    #[test]
    fn flaps_cycle_and_stay_symmetric() {
        let (view, regions) = world(60, 5);
        let plan = FaultPlan {
            seed: 13,
            flaps: Some(LinkFlaps {
                fraction: 0.4,
                period: 5,
                down: 2,
            }),
            ..FaultPlan::default()
        };
        let mut downs = Vec::new();
        for round in 0..5 {
            let rf = plan.compile(round, &view, &regions);
            for e in 0..view.edges.len() {
                assert_eq!(rf.edge_down(e), rf.edge_down(view.reverse[e] as usize));
            }
            downs.push(rf.down_count());
        }
        assert!(downs.iter().any(|&d| d > 0), "some link must flap down");
        // Each flapping link is down exactly `down` of `period` rounds, so
        // the total down-count over a full period is 2/5 of members × 5.
        let total: usize = downs.iter().sum();
        assert!(total > 0);
        // The cycle repeats with the period.
        for round in 0..5 {
            assert_eq!(
                plan.compile(round, &view, &regions).down_count(),
                plan.compile(round + 5, &view, &regions).down_count()
            );
        }
    }

    #[test]
    fn regional_windows_slow_only_touching_links_and_multiply() {
        let (view, regions) = world(80, 6);
        let region = regions[0];
        let plan = FaultPlan {
            seed: 17,
            regional: vec![
                RegionalWindow {
                    region,
                    start: 0,
                    end: 10,
                    slow_factor: 2.0,
                },
                RegionalWindow {
                    region,
                    start: 5,
                    end: 10,
                    slow_factor: 3.0,
                },
            ],
            ..FaultPlan::default()
        };
        let single = plan.compile(1, &view, &regions);
        let stacked = plan.compile(6, &view, &regions);
        let bf1 = single.block(0);
        let bf2 = stacked.block(0);
        let n = view.offsets.len() - 1;
        for u in 0..n {
            for e in view.offsets[u]..view.offsets[u + 1] {
                let v = view.edges[e] as usize;
                let base = view.delay[e];
                let touching = regions[u] == region || regions[v] == region;
                if touching {
                    assert_eq!(bf1.scaled(e, base), base * 2.0);
                    assert_eq!(bf2.scaled(e, base), base * 6.0);
                } else {
                    assert_eq!(bf1.scaled(e, base).as_ms(), base.as_ms());
                    assert_eq!(bf2.scaled(e, base).as_ms(), base.as_ms());
                }
            }
        }
    }

    #[test]
    fn duplication_can_only_improve_on_a_single_copy() {
        let (view, regions) = world(40, 7);
        let base_rates = LinkFaultRates {
            drop_prob: 0.5,
            extra_delay: SimTime::from_ms(2.0),
            jitter: SimTime::from_ms(20.0),
            duplicate_prob: 0.0,
        };
        let mut dup_rates = base_rates;
        dup_rates.duplicate_prob = 1.0;
        let single = FaultPlan {
            seed: 23,
            base: base_rates,
            ..FaultPlan::default()
        };
        let dup = FaultPlan {
            seed: 23,
            base: dup_rates,
            ..FaultPlan::default()
        };
        let (rs, rd) = (
            single.compile(0, &view, &regions),
            dup.compile(0, &view, &regions),
        );
        let (bs, bd) = (rs.block(0), rd.block(0));
        for e in 0..view.edges.len() {
            let base = view.delay[e];
            match (bs.announce_leg(e, base), bd.announce_leg(e, base)) {
                (Some(s), Some(d)) => assert!(d <= s, "duplicate made edge {e} slower"),
                (Some(_), None) => panic!("duplication cannot lose a surviving copy"),
                _ => {}
            }
        }
    }

    #[test]
    fn validation_catches_bad_plans() {
        let bad_rate = FaultPlan {
            base: LinkFaultRates {
                drop_prob: 1.5,
                ..LinkFaultRates::NONE
            },
            ..FaultPlan::default()
        };
        assert!(bad_rate.validate().is_err());
        let bad_flap = FaultPlan {
            flaps: Some(LinkFlaps {
                fraction: 0.5,
                period: 3,
                down: 3,
            }),
            ..FaultPlan::default()
        };
        assert!(bad_flap.validate().is_err());
        let bad_regional = FaultPlan {
            regional: vec![RegionalWindow {
                region: Region::Europe,
                start: 0,
                end: 1,
                slow_factor: f64::NAN,
            }],
            ..FaultPlan::default()
        };
        assert!(bad_regional.validate().is_err());
        assert!(FaultPlan::inert(1).validate().is_ok());
    }

    #[test]
    fn a_full_plan_is_not_inert_and_survives_cloning() {
        let plan = FaultPlan {
            seed: 42,
            base: LinkFaultRates {
                drop_prob: 0.1,
                extra_delay: SimTime::from_ms(3.0),
                jitter: SimTime::from_ms(7.0),
                duplicate_prob: 0.05,
            },
            windows: vec![FaultWindow {
                start: 2,
                end: 9,
                rates: LinkFaultRates::NONE,
            }],
            flaps: Some(LinkFlaps {
                fraction: 0.2,
                period: 6,
                down: 2,
            }),
            partitions: vec![PartitionWindow {
                start: 3,
                heal: 5,
                fraction: 0.4,
            }],
            regional: vec![RegionalWindow {
                region: Region::Asia,
                start: 1,
                end: 4,
                slow_factor: 2.5,
            }],
        };
        assert!(!plan.is_inert());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.clone(), plan);
        // Window rates being inert does not make the plan inert (flaps,
        // partitions and regional windows still bite), but a plan whose
        // only content is inert windows is inert.
        let windows_only = FaultPlan {
            seed: 1,
            windows: plan.windows.clone(),
            ..FaultPlan::default()
        };
        assert!(windows_only.is_inert());
    }
}
