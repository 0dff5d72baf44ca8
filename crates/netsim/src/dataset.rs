//! Synthetic stand-in for the Bitnodes crawl used by the paper (§5.1).
//!
//! The paper samples 1000 nodes from a public crawl of 9408 reachable
//! Bitcoin nodes and keeps only each node's geographic region; link
//! latencies are then assigned from region-pair measurements. Since the
//! original crawl is a moving target (and IPs are irrelevant to the
//! simulation), we reproduce the *region marginal distribution* of published
//! Bitnodes snapshots circa 2020, and
//! [`PopulationBuilder`](crate::PopulationBuilder) samples deterministic
//! populations from it: the paper's default 1000-node population is
//! `PopulationBuilder::new(1000).build(rng)`.

/// Region weights approximating the 2020 Bitnodes snapshot used in the
/// paper, in [`Region::ALL`](crate::Region::ALL) order:
/// `[NA, SA, EU, AS, AF, CN, OC]`.
///
/// Europe and North America host the bulk of reachable Bitcoin nodes;
/// China is tracked separately from the rest of Asia because its
/// cross-border latencies differ markedly.
pub const BITNODES_REGION_WEIGHTS: [f64; 7] = [0.28, 0.04, 0.38, 0.12, 0.03, 0.12, 0.03];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        let total: f64 = BITNODES_REGION_WEIGHTS.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
