//! The crate's oracles: executable reference semantics that the tests
//! check the production engines against, bit for bit. Neither is a hot
//! path.
//!
//! * [`gossip_block`] is the seed's message-level engine, verbatim: a
//!   generic [`EventQueue`] with one slot allocation per boxed event,
//!   `Vec<bool>` flags, one `BTreeMap` delivery log per node and a
//!   latency-model call per event leg. `tests/gossip_legacy.rs` checks
//!   [`TopologyView::gossip_into`](crate::TopologyView::gossip_into)
//!   against it event for event, and the propagation bench times the two.
//! * [`coverage_times`] is λ(f) by its definition, which
//!   [`BroadcastScratch::coverage_times_into`](crate::BroadcastScratch::coverage_times_into)
//!   computes from cached weights, by selection when hash power is
//!   uniform.
//!
//! Keeping the one copy of each here ensures the oracle the tests check
//! and the baseline the bench times can never drift apart.

use std::collections::BTreeMap;

use crate::event::EventQueue;
use crate::gossip::{GossipConfig, GossipMode};
use crate::graph::Topology;
use crate::latency::LatencyModel;
use crate::node::{Behavior, NodeId};
use crate::population::Population;
use crate::time::SimTime;
use crate::view::clamp_fraction;

#[derive(Debug)]
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
/// per-node, per-neighbor delivery logs.
pub fn gossip_block<L: LatencyModel + ?Sized>(
    topology: &Topology,
    latency: &L,
    population: &Population,
    source: NodeId,
    config: &GossipConfig,
) -> (Vec<SimTime>, Vec<BTreeMap<NodeId, SimTime>>) {
    let n = topology.len();
    let mut queue: EventQueue<Event> = EventQueue::new();
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
        Behavior::Honest => queue.schedule(SimTime::ZERO, Event::Announce { at: source }),
        Behavior::Delay(d) => queue.schedule(d, Event::Announce { at: source }),
    }

    while let Some((t, event)) = queue.pop() {
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
                        queue.schedule(
                            t + leg + transfer,
                            Event::Block {
                                at: v,
                                from: at,
                                push: true,
                            },
                        );
                    } else {
                        queue.schedule(t + leg, Event::Inv { at: v, from: at });
                    }
                }
            }
            Event::Inv { at, from } => {
                per_neighbor[at.index()].entry(from).or_insert(t);
                if !has_block[at.index()] && !requested[at.index()] {
                    requested[at.index()] = true;
                    let leg = latency.delay(at, from);
                    queue.schedule(t + leg, Event::GetData { at: from, from: at });
                }
            }
            Event::GetData { at, from } => {
                // `from` requested the block from `at`; `at` must have it
                // since it announced.
                debug_assert!(has_block[at.index()]);
                let leg = latency.delay(at, from);
                let transfer = config.transfer.transfer_time(population, at, from);
                queue.schedule(
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
                    Behavior::Honest => queue.schedule(validated, Event::Announce { at }),
                    Behavior::Silent => {}
                    Behavior::Delay(extra) => {
                        queue.schedule(validated + extra, Event::Announce { at })
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
            let fraction = clamp_fraction(fraction);
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
