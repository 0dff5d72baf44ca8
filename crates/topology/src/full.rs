//! The fully-connected graph — the paper's "ideal" lower bound (§5.1).

use rand::Rng;

use perigee_netsim::{ConnectionLimits, LatencyModel, NodeId, Population, Topology};

use crate::builder::TopologyBuilder;

/// Connects every pair of nodes directly. Blocks then reach everyone in one
/// hop, so the resulting delay curve lower-bounds every deployable topology.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullMeshBuilder {
    _private: (),
}

impl FullMeshBuilder {
    /// Creates the builder.
    pub fn new() -> Self {
        FullMeshBuilder { _private: () }
    }
}

impl TopologyBuilder for FullMeshBuilder {
    fn build<L: LatencyModel + ?Sized, R: Rng + ?Sized>(
        &self,
        population: &Population,
        _latency: &L,
        _limits: ConnectionLimits,
        _rng: &mut R,
    ) -> Topology {
        // Limits are deliberately ignored: the ideal baseline needs the
        // complete graph.
        let n = population.len();
        let mut topo = Topology::new(n, ConnectionLimits::unlimited());
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                topo.connect(NodeId::new(i), NodeId::new(j))
                    .expect("complete graph edges are always valid");
            }
        }
        topo
    }

    fn name(&self) -> &'static str {
        "ideal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::{BroadcastScratch, GeoLatencyModel, PopulationBuilder, TopologyView};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builds_the_complete_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = PopulationBuilder::new(30).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 1);
        let topo =
            FullMeshBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        assert_eq!(topo.edge_count(), 30 * 29 / 2);
        assert!(topo.is_connected());
    }

    #[test]
    fn every_arrival_is_a_single_hop() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = PopulationBuilder::new(25).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 2);
        let topo =
            FullMeshBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let src = NodeId::new(3);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut prop = BroadcastScratch::new();
        view.broadcast_into(src, &mut prop);
        for i in 0..25u32 {
            let v = NodeId::new(i);
            if v == src {
                continue;
            }
            // Direct delivery cannot be beaten (any relay adds validation).
            assert!((prop.arrival(v).as_ms() - lat.delay(src, v).as_ms()).abs() < 1e-9);
        }
    }
}
