//! The exact-tie world: message-level gossip on an integer grid, where
//! INVs reach a node at the same float time from different announcers.
//!
//! The label-setting kernel computes every message from per-node
//! have-times, and only one choice of the event loop depends on order
//! alone: which of two equal-time INVs a node requests from. The kernel
//! detects that tie and hands the message back to the event loop. The
//! geographic worlds of the other suites have continuous latencies and
//! practically never tie, so this suite builds worlds that do:
//!
//! - a 7×7 grid on [`MetricLatencyModel`] at 10 ms per unit, with
//!   4-neighbour links, so every latency is a multiple of 10 ms;
//! - constant validation of 0 or 10 ms;
//! - uplinks cycling 10/40/20 or 5/50 Mbit/s, so 0.5 MB transfers cost
//!   whole milliseconds too;
//! - a layout with co-located node pairs, whose link has δ = 0.
//!
//! Every message must equal the oracle [`perigee_oracle::gossip_block`]
//! (arrivals and delivery logs), single and batched, and some of them
//! must have fallen back.

use std::collections::BTreeMap;

use perigee_netsim::{
    BatchMessage, ConnectionLimits, GossipConfig, GossipMode, GossipScratch, MetricLatencyModel,
    NodeId, NodeProfile, Population, SimTime, Topology, TopologyView, TransferModel,
};
use perigee_oracle::{collect_rows, gossip_block};

const SIDE: u32 = 7;
const UNIT_MS: f64 = 10.0;

/// One tie world's knobs.
#[derive(Debug, Clone, Copy)]
struct Variant {
    validation_ms: f64,
    uplinks: &'static [f64],
    /// Node `(r, 2j + 1)` sits on `(r, 2j)`, so their link has δ = 0.
    colocated: bool,
}

fn variants() -> Vec<Variant> {
    let mut out = Vec::new();
    for validation_ms in [0.0, 10.0] {
        for uplinks in [&[10.0, 40.0, 20.0][..], &[5.0, 50.0][..]] {
            for colocated in [false, true] {
                out.push(Variant {
                    validation_ms,
                    uplinks,
                    colocated,
                });
            }
        }
    }
    out
}

fn grid_world(variant: Variant) -> (Population, MetricLatencyModel, Topology) {
    let n = (SIDE * SIDE) as usize;
    let profiles = (0..SIDE * SIDE)
        .map(|i| {
            let (row, col) = (i / SIDE, i % SIDE);
            let col = if variant.colocated {
                col - col % 2
            } else {
                col
            };
            NodeProfile {
                coords: vec![f64::from(row), f64::from(col)],
                hash_power: 1.0 / n as f64,
                validation_delay: SimTime::from_ms(variant.validation_ms),
                uplink_mbps: variant.uplinks[i as usize % variant.uplinks.len()],
                downlink_mbps: 100.0,
                ..NodeProfile::default()
            }
        })
        .collect();
    let pop = Population::from_profiles(profiles).unwrap();
    let lat = MetricLatencyModel::new(&pop, UNIT_MS);
    let mut topo = Topology::new(n, ConnectionLimits::unlimited());
    for i in 0..SIDE * SIDE {
        if i % SIDE + 1 < SIDE {
            topo.connect(NodeId::new(i), NodeId::new(i + 1)).unwrap();
        }
        if i + SIDE < SIDE * SIDE {
            topo.connect(NodeId::new(i), NodeId::new(i + SIDE)).unwrap();
        }
    }
    (pop, lat, topo)
}

fn configs() -> [GossipConfig; 5] {
    [
        GossipConfig::inv_getdata(0.0),
        GossipConfig::inv_getdata(0.5),
        GossipConfig::push_pull(0.0, 2),
        GossipConfig::push_pull(0.5, 2),
        GossipConfig {
            mode: GossipMode::Flood,
            transfer: TransferModel::new(0.5),
        },
    ]
}

/// Asserts the scratch's current message equals the oracle's run of
/// `source` under `config`: arrivals and every node's delivery log.
fn assert_matches_oracle(
    world: &(Population, MetricLatencyModel, Topology),
    view: &TopologyView,
    scratch: &GossipScratch,
    source: NodeId,
    config: &GossipConfig,
    what: &str,
) {
    let (pop, lat, topo) = world;
    let (arrivals, logs) = gossip_block(topo, lat, pop, source, config);
    let rows = collect_rows(scratch, view, None);
    for (i, &expected) in arrivals.iter().enumerate() {
        let v = NodeId::new(i as u32);
        assert_eq!(scratch.arrival(v), expected, "{what}: arrival at {v}");
        let log: BTreeMap<NodeId, SimTime> = view
            .neighbors(v)
            .zip(rows[i].iter().copied())
            .filter(|(_, t)| t.is_finite())
            .collect();
        assert_eq!(log, logs[i], "{what}: delivery log of {v}");
    }
}

#[test]
fn tie_world_gossip_equals_the_oracle_and_falls_back() {
    let mut messages = 0u64;
    let mut fallbacks = 0u64;
    for variant in variants() {
        let world = grid_world(variant);
        let view = TopologyView::new(&world.2, &world.1, &world.0);
        let mut scratch = GossipScratch::new();
        for config in configs() {
            for s in 0..SIDE * SIDE {
                let source = NodeId::new(s);
                view.gossip_into(source, &config, &mut scratch);
                let what = format!("{variant:?} {config:?} from {source}");
                assert_matches_oracle(&world, &view, &scratch, source, &config, &what);
            }
        }
        let c = scratch.take_counters();
        messages += (SIDE * SIDE) as u64 * configs().len() as u64;
        fallbacks += c.gossip_fallbacks;
    }
    assert!(fallbacks > 0, "the tie world must exercise the fallback");
    assert!(
        fallbacks < messages,
        "{fallbacks} of {messages} messages fell back: ties must stay the exception"
    );
}

#[test]
fn tie_world_batches_equal_the_oracle_message_by_message() {
    let mut fallbacks = 0u64;
    for variant in variants() {
        let world = grid_world(variant);
        let view = TopologyView::new(&world.2, &world.1, &world.0);
        let batch: Vec<BatchMessage> = configs()
            .into_iter()
            .flat_map(|config| {
                (0..SIDE * SIDE).map(move |s| BatchMessage {
                    source: NodeId::new(s),
                    config,
                })
            })
            .collect();
        let mut scratch = GossipScratch::new();
        let mut visited = 0;
        view.gossip_batch_into(&batch, &mut scratch, |i, s| {
            visited += 1;
            let msg = &batch[i];
            let what = format!("{variant:?} batch message {i}");
            assert_matches_oracle(&world, &view, s, msg.source, &msg.config, &what);
        });
        assert_eq!(visited, batch.len());
        fallbacks += scratch.take_counters().gossip_fallbacks;
    }
    assert!(fallbacks > 0, "the tie world must exercise the fallback");
}

/// Every tie-world message twice in a row: the second copy is served from
/// the run the first left, a fallen-back run included, and still equals
/// the oracle; `gossip_fallbacks` counts one per copy.
#[test]
fn tie_world_repeats_equal_the_oracle_and_count_each_fallback() {
    let mut served_fallbacks = 0;
    for variant in variants() {
        let world = grid_world(variant);
        let view = TopologyView::new(&world.2, &world.1, &world.0);
        let batch: Vec<BatchMessage> = configs()
            .into_iter()
            .flat_map(|config| {
                (0..SIDE * SIDE).flat_map(move |s| {
                    let msg = BatchMessage {
                        source: NodeId::new(s),
                        config,
                    };
                    [msg, msg]
                })
            })
            .collect();
        let mut single = GossipScratch::new();
        let fell_back: Vec<u64> = batch
            .iter()
            .step_by(2)
            .map(|msg| {
                view.gossip_into(msg.source, &msg.config, &mut single);
                single.take_counters().gossip_fallbacks
            })
            .collect();
        let mut scratch = GossipScratch::new();
        view.gossip_batch_into(&batch, &mut scratch, |i, s| {
            let msg = &batch[i];
            let what = format!("{variant:?} batch message {i}");
            assert_matches_oracle(&world, &view, s, msg.source, &msg.config, &what);
            if i % 2 == 1 {
                served_fallbacks += fell_back[i / 2];
            }
        });
        let c = scratch.take_counters();
        assert_eq!(c.batch_repeats, fell_back.len() as u64, "{variant:?}");
        assert_eq!(
            c.gossip_fallbacks,
            2 * fell_back.iter().sum::<u64>(),
            "{variant:?}: one fallback per copy"
        );
    }
    assert!(
        served_fallbacks > 0,
        "some repeat must serve a fallen-back run"
    );
}
