//! Pins the `Behavior::Delay` contract across both propagation engines:
//! the extra delay is a *relay* penalty, never a *receipt* penalty — a
//! throttling node hears blocks at the honest time and only its
//! downstream forwards are late — and the analytic flood and the
//! message-level gossip engine apply it identically.
//!
//! All constants are powers of two milliseconds, so every arrival below
//! is exact IEEE-754 arithmetic and the equalities can be bitwise.

use perigee_netsim::{
    Behavior, ConnectionLimits, GossipConfig, GossipScratch, LatencyModel, NodeId, NodeProfile,
    Population, SimTime, Topology, TopologyView,
};

/// A constant-latency model: every distinct pair is `delay_ms` apart.
struct ConstLatency {
    n: usize,
    delay: SimTime,
}

impl LatencyModel for ConstLatency {
    fn delay(&self, u: NodeId, v: NodeId) -> SimTime {
        if u == v {
            SimTime::ZERO
        } else {
            self.delay
        }
    }
    fn len(&self) -> usize {
        self.n
    }
}

const LINK_MS: f64 = 4.0;
const VALIDATION_MS: f64 = 8.0;
const EXTRA_MS: f64 = 16.0;

/// A 4-node path `0 — 1 — 2 — 3` with node 1 optionally throttling.
fn world(extra: Option<f64>) -> (Topology, ConstLatency, Population) {
    let profiles: Vec<NodeProfile> = (0..4)
        .map(|i| NodeProfile {
            hash_power: 0.25,
            validation_delay: SimTime::from_ms(VALIDATION_MS),
            behavior: match (i, extra) {
                (1, Some(e)) => Behavior::Delay(SimTime::from_ms(e)),
                _ => Behavior::Honest,
            },
            ..NodeProfile::default()
        })
        .collect();
    let population = Population::from_profiles(profiles).unwrap();
    let mut topology = Topology::new(4, ConnectionLimits::paper_default());
    topology.connect(NodeId::new(0), NodeId::new(1)).unwrap();
    topology.connect(NodeId::new(1), NodeId::new(2)).unwrap();
    topology.connect(NodeId::new(2), NodeId::new(3)).unwrap();
    let latency = ConstLatency {
        n: 4,
        delay: SimTime::from_ms(LINK_MS),
    };
    (topology, latency, population)
}

fn analytic_arrivals(extra: Option<f64>) -> Vec<f64> {
    let (topology, latency, population) = world(extra);
    let view = TopologyView::new(&topology, &latency, &population);
    let mut scratch = GossipScratch::with_capacity(4, view.directed_edge_count());
    view.broadcast_into(NodeId::new(0), &mut scratch);
    scratch.arrivals().iter().map(|t| t.as_ms()).collect()
}

fn gossip_arrivals(extra: Option<f64>, config: &GossipConfig) -> Vec<f64> {
    let (topology, latency, population) = world(extra);
    let view = TopologyView::new(&topology, &latency, &population);
    let mut scratch = GossipScratch::with_capacity(4, view.directed_edge_count());
    view.gossip_into(NodeId::new(0), config, &mut scratch);
    scratch.arrivals().iter().map(|t| t.as_ms()).collect()
}

/// Analytic engine: the throttler's own receipt is the honest time; the
/// extra delay lands exactly once on everything downstream of it.
#[test]
fn delay_shifts_relays_not_receipt_in_the_analytic_engine() {
    let honest = analytic_arrivals(None);
    let delayed = analytic_arrivals(Some(EXTRA_MS));
    // Honest path: 0 mines at 0 and relays instantly (miners skip their
    // own validation); each hop costs the link plus the validation of
    // the relaying node.
    assert_eq!(
        honest,
        vec![0.0, LINK_MS, 2.0 * LINK_MS + VALIDATION_MS, {
            3.0 * LINK_MS + 2.0 * VALIDATION_MS
        }]
    );
    // Node 1 still *hears* the block at the honest time...
    assert_eq!(delayed[1].to_bits(), honest[1].to_bits());
    // ...but everything it relays to is late by exactly the extra.
    assert_eq!(delayed[2].to_bits(), (honest[2] + EXTRA_MS).to_bits());
    assert_eq!(delayed[3].to_bits(), (honest[3] + EXTRA_MS).to_bits());
}

/// The message-level engine applies the same semantics, bit for bit, in
/// flood mode — and preserves the receipt-vs-relay split under
/// INV/GETDATA, where the penalty compounds with round trips but must
/// still never touch the throttler's own receipt.
#[test]
fn gossip_engines_agree_with_the_analytic_delay_semantics() {
    let flood = GossipConfig::flood();
    for extra in [None, Some(EXTRA_MS)] {
        assert_eq!(
            analytic_arrivals(extra),
            gossip_arrivals(extra, &flood),
            "flood gossip must reproduce the analytic floats exactly ({extra:?})"
        );
    }
    let inv = GossipConfig::inv_getdata(0.0);
    let honest = gossip_arrivals(None, &inv);
    let delayed = gossip_arrivals(Some(EXTRA_MS), &inv);
    assert_eq!(
        delayed[1].to_bits(),
        honest[1].to_bits(),
        "INV mode: receipt at the throttler itself is unaffected"
    );
    assert_eq!(
        delayed[2].to_bits(),
        (honest[2] + EXTRA_MS).to_bits(),
        "INV mode: the first downstream announcement is late by exactly the extra"
    );
    assert_eq!(delayed[3].to_bits(), (honest[3] + EXTRA_MS).to_bits());
}
