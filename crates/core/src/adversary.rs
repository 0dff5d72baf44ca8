//! Adversarial scenarios (§1 robustness claims, §6 future work).
//!
//! The paper argues Perigee is resistant to several attacks because it
//! scores neighbors *only* by delivery timestamps and keeps random
//! exploration connections. This module provides the attacker models the
//! integration experiments exercise:
//!
//! * **free-riders** that never relay (Perigee's scoring starves them of
//!   neighbors — the incentive-compatibility claim);
//! * **eclipse attackers** that deliver fast to lure a victim, then
//!   withhold;
//! * **geo-spoofing**, which degrades the geographic baseline but is
//!   invisible to Perigee (modelled in the topology crate's
//!   `GeographicBuilder::with_spoofed`).

use perigee_netsim::{Behavior, NodeId, Population, SimTime};

/// Turns `node` into a free-rider: it receives blocks but never relays.
pub fn make_free_rider(population: &mut Population, node: NodeId) {
    population.profile_mut(node).behavior = Behavior::Silent;
}

/// Turns `node` into a throttler that relays only after `delay`.
pub fn make_throttler(population: &mut Population, node: NodeId, delay: SimTime) {
    population.profile_mut(node).behavior = Behavior::Delay(delay);
}

/// Restores honest behaviour.
pub fn make_honest(population: &mut Population, node: NodeId) {
    population.profile_mut(node).behavior = Behavior::Honest;
}

/// A two-phase eclipse attacker (§6): during the *lure* phase it behaves
/// like a super-node (zero validation delay, honest relaying) to win a spot
/// in victims' neighborhoods; during the *attack* phase it withholds
/// blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EclipseAttacker {
    node: NodeId,
}

impl EclipseAttacker {
    /// Registers `node` as the attacker.
    pub fn new(node: NodeId) -> Self {
        EclipseAttacker { node }
    }

    /// The attacker's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Enters the lure phase: instant validation, prompt relaying.
    pub fn start_lure(&self, population: &mut Population) {
        let p = population.profile_mut(self.node);
        p.validation_delay = SimTime::ZERO;
        p.behavior = Behavior::Honest;
    }

    /// Enters the attack phase: the attacker stops relaying entirely.
    pub fn start_attack(&self, population: &mut Population) {
        population.profile_mut(self.node).behavior = Behavior::Silent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::PopulationBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn behaviour_toggles() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut pop = PopulationBuilder::new(5).build(&mut rng).unwrap();
        let v = NodeId::new(2);
        make_free_rider(&mut pop, v);
        assert_eq!(pop.profile(v).behavior, Behavior::Silent);
        make_throttler(&mut pop, v, SimTime::from_ms(100.0));
        assert_eq!(
            pop.profile(v).behavior,
            Behavior::Delay(SimTime::from_ms(100.0))
        );
        make_honest(&mut pop, v);
        assert!(pop.profile(v).behavior.is_honest());
    }

    #[test]
    fn eclipse_phases() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut pop = PopulationBuilder::new(5).build(&mut rng).unwrap();
        let a = EclipseAttacker::new(NodeId::new(1));
        a.start_lure(&mut pop);
        assert_eq!(pop.profile(a.node()).validation_delay, SimTime::ZERO);
        assert!(pop.profile(a.node()).behavior.is_honest());
        a.start_attack(&mut pop);
        assert_eq!(pop.profile(a.node()).behavior, Behavior::Silent);
    }
}
