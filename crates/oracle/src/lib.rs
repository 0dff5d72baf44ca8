//! # perigee-oracle
//!
//! Executable reference semantics that the workspace's suites check the
//! production paths against, bit for bit. None is a hot path, and no
//! library depends on this crate: the packages that use it take it as a
//! dev-dependency, so the production build ships no oracle.
//!
//! * [`gossip_block`] is the seed's message-level engine: a binary heap
//!   of events in time-then-insertion order, `Vec<bool>` flags, one
//!   `BTreeMap` delivery log per node and a latency-model call per event
//!   leg. `perigee-netsim`'s `tests/gossip_legacy.rs` and
//!   `tests/gossip_ties.rs` check
//!   [`TopologyView::gossip_into`](perigee_netsim::TopologyView::gossip_into)
//!   against it event for event, exact ties included.
//! * [`coverage_times`] is λ(f) by its definition, which
//!   [`GossipScratch::coverage_times_into`] computes from cached weights,
//!   by selection when hash power is uniform.
//! * [`normalized_rows`] is eq. 2 (§4.1) by its definition: delivery
//!   logs mapped onto a view's CSR rows, each row taken relative to its
//!   first delivery ([`normalize_row`]). `perigee-core`'s recorder must
//!   write the same `f32`s.
//! * [`collect_rows`] gathers a message's delivery rows through
//!   [`GossipScratch::write_rows`], the one path the engine records.
//!
//! `perigee-netsim`'s own unit tests cannot use this crate: a unit-test
//! build of that crate is a second copy of it, whose types are not the
//! ones linked here. Its checks against an oracle live in its
//! integration tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use perigee_netsim::{
    Behavior, BlockFaults, GossipConfig, GossipMode, GossipScratch, LatencyModel, NodeId,
    Population, RowSink, SimTime, Topology, TopologyView,
};

/// An event of the seed engine. `Ord` only completes the heap key: the
/// insertion counter in front of it is unique, so an event never decides
/// the order.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Inv {
        at: NodeId,
        from: NodeId,
    },
    GetData {
        at: NodeId,
        from: NodeId,
    },
    /// `push` marks an unsolicited full-message push (a flood or
    /// push/pull push leg): it doubles as the sender's announcement, so
    /// its pop records the per-neighbor delivery. A pulled block
    /// (`push: false`) was already announced by its INV.
    Block {
        at: NodeId,
        from: NodeId,
        push: bool,
    },
    Announce {
        at: NodeId,
    },
}

/// Simulates one block mined by `source` at time zero with the reference
/// event-queue engine, returning the first-arrival times and the
/// per-node, per-neighbor delivery logs. Events fire in time order, and
/// events due at the same time fire in the order they were scheduled.
pub fn gossip_block<L: LatencyModel + ?Sized>(
    topology: &Topology,
    latency: &L,
    population: &Population,
    source: NodeId,
    config: &GossipConfig,
) -> (Vec<SimTime>, Vec<BTreeMap<NodeId, SimTime>>) {
    let n = topology.len();
    let mut queue: BinaryHeap<Reverse<(SimTime, u64, Event)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule = |queue: &mut BinaryHeap<_>, t: SimTime, event: Event| {
        queue.push(Reverse((t, seq, event)));
        seq += 1;
    };
    let mut has_block = vec![false; n];
    let mut requested = vec![false; n];
    let mut first_arrival = vec![SimTime::INFINITY; n];
    let mut per_neighbor: Vec<BTreeMap<NodeId, SimTime>> = vec![BTreeMap::new(); n];

    has_block[source.index()] = true;
    first_arrival[source.index()] = SimTime::ZERO;
    // The miner announces immediately (no validation of its own block),
    // unless it is a withholding adversary.
    match population.profile(source).behavior {
        Behavior::Silent => {}
        Behavior::Honest => schedule(&mut queue, SimTime::ZERO, Event::Announce { at: source }),
        Behavior::Delay(d) => schedule(&mut queue, d, Event::Announce { at: source }),
    }

    while let Some(Reverse((t, _, event))) = queue.pop() {
        match event {
            Event::Announce { at } => {
                for (k, v) in topology.neighbors(at).into_iter().enumerate() {
                    let leg = latency.delay(at, v);
                    let push = match config.mode {
                        GossipMode::Flood => true,
                        GossipMode::InvGetData => false,
                        GossipMode::PushPull { push_degree } => (k as u32) < push_degree,
                    };
                    if push {
                        let transfer = config.transfer.transfer_time(population, at, v);
                        schedule(
                            &mut queue,
                            t + leg + transfer,
                            Event::Block {
                                at: v,
                                from: at,
                                push: true,
                            },
                        );
                    } else {
                        schedule(&mut queue, t + leg, Event::Inv { at: v, from: at });
                    }
                }
            }
            Event::Inv { at, from } => {
                per_neighbor[at.index()].entry(from).or_insert(t);
                if !has_block[at.index()] && !requested[at.index()] {
                    requested[at.index()] = true;
                    let leg = latency.delay(at, from);
                    schedule(&mut queue, t + leg, Event::GetData { at: from, from: at });
                }
            }
            Event::GetData { at, from } => {
                // `from` requested the block from `at`; `at` must have it
                // since it announced.
                debug_assert!(has_block[at.index()]);
                let leg = latency.delay(at, from);
                let transfer = config.transfer.transfer_time(population, at, from);
                schedule(
                    &mut queue,
                    t + leg + transfer,
                    Event::Block {
                        at: from,
                        from: at,
                        push: false,
                    },
                );
            }
            Event::Block { at, from, push } => {
                if push {
                    per_neighbor[at.index()].entry(from).or_insert(t);
                }
                if has_block[at.index()] {
                    continue;
                }
                has_block[at.index()] = true;
                first_arrival[at.index()] = t;
                let profile = population.profile(at);
                let validated = t + profile.validation_delay;
                match profile.behavior {
                    Behavior::Honest => schedule(&mut queue, validated, Event::Announce { at }),
                    Behavior::Silent => {}
                    Behavior::Delay(extra) => {
                        schedule(&mut queue, validated + extra, Event::Announce { at })
                    }
                }
            }
        }
    }

    (first_arrival, per_neighbor)
}

/// λ(f) (§2.2) of a message with first `arrivals` indexed by node: for
/// each of `fractions`, the time by which nodes holding that share of the
/// total hash power have it (`INFINITY` if never) — one sort of the
/// `(arrival, hash power)` pairs, then a cumulative scan. Fractions clamp
/// into `[0, 1]`; a NaN fraction or a length mismatch panics.
pub fn coverage_times(
    arrivals: &[SimTime],
    population: &Population,
    fractions: &[f64],
) -> Vec<SimTime> {
    assert_eq!(arrivals.len(), population.len(), "one arrival per node");
    let mut weighted: Vec<(SimTime, f64)> = arrivals
        .iter()
        .zip(population.iter())
        .map(|(&t, p)| (t, p.hash_power))
        .collect();
    weighted.sort_unstable_by_key(|&(t, _)| t);
    fractions
        .iter()
        .map(|&fraction| {
            assert!(!fraction.is_nan(), "coverage fraction must not be NaN");
            let fraction = fraction.clamp(0.0, 1.0);
            let mut acc = 0.0;
            for &(t, w) in &weighted {
                acc += w;
                if acc >= fraction - 1e-12 {
                    return t;
                }
            }
            SimTime::INFINITY
        })
        .collect()
}

/// Eq. 2 rows of one message: each node's delivery `log`, as
/// [`gossip_block`] returns it, laid out along `view`'s CSR row (a
/// neighbor absent from the log never announced and reads `∞`, the
/// paper's convention) and normalized by [`normalize_row`]. Row `v` is
/// aligned with [`TopologyView::neighbors_raw`]`(v)`.
///
/// # Panics
///
/// Panics unless there is exactly one log per node of `view`.
pub fn normalized_rows(view: &TopologyView, logs: &[BTreeMap<NodeId, SimTime>]) -> Vec<Vec<f32>> {
    assert_eq!(logs.len(), view.len(), "one delivery log per node");
    logs.iter()
        .zip((0..view.len() as u32).map(NodeId::new))
        .map(|(log, v)| {
            normalize_row(
                view.neighbors(v)
                    .map(|u| log.get(&u).copied().unwrap_or(SimTime::INFINITY)),
            )
        })
        .collect()
}

/// Eq. 2 on one row of delivery times: each time relative to the row's
/// first delivery, as `f32`. The minimum is subtracted in `f64` *before*
/// the cast, so equal `f64` inputs give equal `f32` bits; a row with no
/// finite delivery stays all-`∞`.
pub fn normalize_row(row: impl IntoIterator<Item = SimTime>) -> Vec<f32> {
    let row: Vec<f64> = row.into_iter().map(SimTime::as_ms).collect();
    let min = row.iter().copied().fold(f64::INFINITY, f64::min);
    let shift = if min.is_finite() { min } else { 0.0 };
    row.iter().map(|&t| (t - shift) as f32).collect()
}

/// Every node's delivery row of the message `scratch` last ran through
/// `view`, in node order, read through `faults` when the message ran
/// under them — gathered through [`GossipScratch::write_rows`], the path
/// the engine records. Row `v` is aligned with
/// [`TopologyView::neighbors_raw`]`(v)`, `INFINITY` for a neighbor that
/// never delivered.
pub fn collect_rows(
    scratch: &GossipScratch,
    view: &TopologyView,
    faults: Option<&BlockFaults<'_>>,
) -> Vec<Vec<SimTime>> {
    let mut rows = Rows(Vec::with_capacity(view.len()));
    scratch.write_rows(view, faults, &mut rows);
    rows.0
}

/// The [`RowSink`] behind [`collect_rows`]: one owned row per node.
struct Rows(Vec<Vec<SimTime>>);

impl RowSink for Rows {
    fn row<I: ExactSizeIterator<Item = SimTime>>(&mut self, v: NodeId, deliveries: I) {
        assert_eq!(v.index(), self.0.len(), "rows arrive in node order");
        self.0.push(deliveries.collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::{ConnectionLimits, MetricLatencyModel, NodeProfile};

    /// A triangle on a line at 0, 10 and 30 ms, 10 ms validation.
    fn triangle() -> (Population, MetricLatencyModel, Topology) {
        let profiles = [0.0, 10.0, 30.0]
            .map(|x| NodeProfile {
                coords: vec![x],
                hash_power: 1.0,
                validation_delay: SimTime::from_ms(10.0),
                ..NodeProfile::default()
            })
            .to_vec();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 1.0);
        let mut topo = Topology::new(3, ConnectionLimits::unlimited());
        for (u, v) in [(0, 1), (0, 2), (1, 2)] {
            topo.connect(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        (pop, lat, topo)
    }

    #[test]
    fn the_minimum_is_subtracted_before_the_cast() {
        let (first, later) = (1.0e8, 1.0e8 + 0.3);
        let row = normalize_row([later, first].map(SimTime::from_ms));
        assert_eq!(row[0].to_bits(), ((later - first) as f32).to_bits());
        assert_eq!(row[1], 0.0);
        // Casting first would have lost the gap: 1e8 is a multiple of
        // the f32 spacing there, and 0.3 is far below it.
        assert_eq!(later as f32 - first as f32, 0.0);
        assert!(row[0] > 0.29 && row[0] < 0.31);
    }

    #[test]
    fn a_row_without_a_delivery_stays_infinite() {
        let row = normalize_row([SimTime::INFINITY; 3]);
        assert_eq!(row, vec![f32::INFINITY; 3]);
        assert!(normalize_row([]).is_empty());
        // One finite entry anchors the row; the silent neighbor stays ∞.
        let row = normalize_row([SimTime::INFINITY, SimTime::from_ms(7.5)]);
        assert_eq!(row, vec![f32::INFINITY, 0.0]);
    }

    /// Node 2 hears the miner n0 directly at 30 ms and n1 at 10 + 10 +
    /// 20 = 40 ms; the miner hears its own block echoed. A node whose log
    /// misses a neighbor reads ∞ there.
    #[test]
    fn logs_map_onto_csr_rows_relative_to_the_first_delivery() {
        let (pop, lat, topo) = triangle();
        let view = TopologyView::new(&topo, &lat, &pop);
        let (_, logs) = gossip_block(&topo, &lat, &pop, NodeId::new(0), &GossipConfig::flood());
        let rows = normalized_rows(&view, &logs);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], vec![0.0, 10.0], "n2 hears n0, then n1");
        let mut partial = logs.clone();
        partial[2].remove(&NodeId::new(0));
        assert_eq!(
            normalized_rows(&view, &partial)[2],
            vec![f32::INFINITY, 0.0]
        );
    }

    #[test]
    #[should_panic(expected = "one delivery log per node")]
    fn a_missing_log_panics() {
        let (pop, lat, topo) = triangle();
        let view = TopologyView::new(&topo, &lat, &pop);
        let (_, logs) = gossip_block(&topo, &lat, &pop, NodeId::new(0), &GossipConfig::flood());
        normalized_rows(&view, &logs[..2]);
    }

    #[test]
    #[should_panic(expected = "one delivery log per node")]
    fn an_extra_log_panics() {
        let (pop, lat, topo) = triangle();
        let view = TopologyView::new(&topo, &lat, &pop);
        let (_, mut logs) = gossip_block(&topo, &lat, &pop, NodeId::new(0), &GossipConfig::flood());
        logs.push(BTreeMap::new());
        normalized_rows(&view, &logs);
    }
}
