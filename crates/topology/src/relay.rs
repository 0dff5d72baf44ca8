//! Fast block-distribution overlays (§5.4): bloXroute/Falcon/FIBRE-style
//! relay networks.
//!
//! The paper simulates a relay network as 100 of the nodes organized in a
//! tree with low-propagation-latency links and 10× faster validation.
//! [`RelayOverlay`] selects the members, pins the tree edges into a
//! topology, overrides their link latencies and rescales the members'
//! validation delays — so any neighbor-selection algorithm running on top
//! (random, Perigee, …) can exploit the overlay exactly as in Fig. 4(c).

use rand::Rng;

use perigee_netsim::{LatencyModel, NodeId, OverrideLatencyModel, Population, SimTime, Topology};

/// Specification of a fast relay overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayOverlay {
    members: Vec<NodeId>,
    link_latency: SimTime,
    validation_factor: f64,
}

impl RelayOverlay {
    /// Samples `size` distinct member nodes uniformly from the population.
    ///
    /// Default parameters follow §5.4: 5 ms tree links, validation at 10%
    /// of a member's default.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the population size or is zero.
    pub fn sample<R: Rng + ?Sized>(population: &Population, size: usize, rng: &mut R) -> Self {
        assert!(
            size >= 1 && size <= population.len(),
            "relay size must be in 1..=n"
        );
        let n = population.len();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in 0..size {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
        }
        RelayOverlay {
            members: ids[..size].iter().copied().map(NodeId::new).collect(),
            link_latency: SimTime::from_ms(5.0),
            validation_factor: 0.1,
        }
    }

    /// Builds an overlay from explicit members.
    pub fn from_members(members: Vec<NodeId>) -> Self {
        assert!(!members.is_empty(), "relay overlay needs members");
        RelayOverlay {
            members,
            link_latency: SimTime::from_ms(5.0),
            validation_factor: 0.1,
        }
    }

    /// Overrides the tree-link latency.
    pub fn link_latency(mut self, latency: SimTime) -> Self {
        self.link_latency = latency;
        self
    }

    /// Overrides the validation rescale factor for members.
    pub fn validation_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "validation factor must be positive");
        self.validation_factor = factor;
        self
    }

    /// The overlay members.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Installs the overlay:
    ///
    /// 1. pins a balanced binary tree over the members into `topology`,
    /// 2. overrides the tree links' latency in the returned wrapper,
    /// 3. rescales the members' validation delays in `population`.
    ///
    /// Returns the latency model to use for all subsequent simulation.
    pub fn install<L: LatencyModel>(
        &self,
        topology: &mut Topology,
        population: &mut Population,
        latency: L,
    ) -> OverrideLatencyModel<L> {
        let mut wrapped = OverrideLatencyModel::new(latency);
        self.install_into(topology, population, &mut wrapped);
        wrapped
    }

    /// Like [`RelayOverlay::install`] but layers the fast links into an
    /// existing override model (used when miner-clique overrides are
    /// already present).
    pub fn install_into<L: LatencyModel>(
        &self,
        topology: &mut Topology,
        population: &mut Population,
        latency: &mut OverrideLatencyModel<L>,
    ) {
        // Balanced binary tree over members in sampled order: member k's
        // parent is member (k-1)/2.
        for k in 1..self.members.len() {
            let child = self.members[k];
            let parent = self.members[(k - 1) / 2];
            // Pinning can fail only if the pair is already connected, in
            // which case the fast link simply upgrades the existing edge.
            let _ = topology.pin(child, parent);
            latency.set(child, parent, self.link_latency);
        }
        for &m in &self.members {
            let p = population.profile_mut(m);
            p.validation_delay = p.validation_delay * self.validation_factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::{
        ConnectionLimits, GeoLatencyModel, GossipScratch, PopulationBuilder, TopologyView,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tree_has_m_minus_one_links_and_is_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pop = PopulationBuilder::new(200).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 1);
        let overlay = RelayOverlay::sample(&pop, 20, &mut rng);
        let mut topo = Topology::new(200, ConnectionLimits::paper_default());
        let lat = overlay.install(&mut topo, &mut pop, lat);

        assert_eq!(topo.edge_count(), 19, "tree over 20 members");
        // The tree alone connects all members.
        let src = overlay.members()[0];
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut prop = GossipScratch::new();
        view.broadcast_into(src, &mut prop);
        for &m in overlay.members() {
            assert!(prop.arrival(m).is_finite(), "member {m} reachable");
        }
    }

    #[test]
    fn members_get_fast_validation_and_links() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pop = PopulationBuilder::new(100).build(&mut rng).unwrap();
        let base = GeoLatencyModel::new(&pop, 2);
        let overlay = RelayOverlay::sample(&pop, 10, &mut rng);
        let mut topo = Topology::new(100, ConnectionLimits::paper_default());
        let lat = overlay.install(&mut topo, &mut pop, base);

        for &m in overlay.members() {
            assert!((pop.validation_delay(m).as_ms() - 5.0).abs() < 1e-9);
        }
        // Tree links run at the configured fast latency.
        let child = overlay.members()[1];
        let parent = overlay.members()[0];
        assert_eq!(lat.delay(child, parent), SimTime::from_ms(5.0));
    }

    #[test]
    fn members_are_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        let pop = PopulationBuilder::new(50).build(&mut rng).unwrap();
        let overlay = RelayOverlay::sample(&pop, 50, &mut rng);
        let mut ms: Vec<NodeId> = overlay.members().to_vec();
        ms.sort_unstable();
        ms.dedup();
        assert_eq!(ms.len(), 50);
    }

    #[test]
    #[should_panic(expected = "relay size must be in 1..=n")]
    fn oversized_overlay_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let pop = PopulationBuilder::new(10).build(&mut rng).unwrap();
        let _ = RelayOverlay::sample(&pop, 11, &mut rng);
    }
}
