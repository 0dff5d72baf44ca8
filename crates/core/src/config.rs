//! Engine configuration.

use perigee_netsim::ConnectionLimits;
use serde::{Deserialize, Serialize};

use crate::liveness::LivenessConfig;
use crate::observation::ObservationBackend;
use crate::score::ScoringMethod;

/// Configuration of a [`PerigeeEngine`](crate::PerigeeEngine) run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerigeeConfig {
    /// Connection limits (paper: 8 outgoing / ≤20 incoming).
    pub limits: ConnectionLimits,
    /// Exploration connections per round, `ev` (paper: 2 for
    /// Vanilla/Subset; UCB's drop-one rule implies at most 1).
    pub explore: usize,
    /// Blocks mined per round, `|B|` (paper: 100 for Vanilla/Subset, 1 for
    /// UCB).
    pub blocks_per_round: usize,
    /// Scoring percentile (paper: 90).
    pub percentile: f64,
    /// Confidence-width constant `c` of eqs. (3–4).
    pub ucb_c: f64,
    /// Stability-gating tolerance (rusty-kaspa's `PerigeeManager`
    /// behaviour): a node whose blocks-seen count this round deviates
    /// from the round's block count by more than this fraction skips
    /// scoring and score-driven rewiring — the round's observations are
    /// network weather, not neighbor quality — but keeps exploring
    /// (it drops [`PerigeeConfig::explore`] random outgoing links so the
    /// refill still draws fresh candidates). The deployed default is
    /// `0.175`; set to [`f64::INFINITY`] to disable gating entirely.
    ///
    /// On a healthy network every node sees every block, so gating never
    /// fires and consumes no randomness — clean runs are bit-identical
    /// with gating on or off.
    pub stability_tolerance: f64,
    /// Peer-liveness layer: per-peer unresponsiveness timeouts that evict
    /// silent neighbors, with capped exponential reconnect backoff.
    /// Disabled by default ([`LivenessConfig::disabled`]).
    pub liveness: LivenessConfig,
    /// How a round's observations are stored: the exact dense
    /// `blocks × edges` matrix (the default, cross-validated reference)
    /// or one constant-space streaming sketch per directed edge, which
    /// makes round memory independent of [`PerigeeConfig::blocks_per_round`]
    /// (see [`crate::observation`] for what each strategy does in sketch
    /// mode).
    pub observation_backend: ObservationBackend,
}

impl PerigeeConfig {
    /// The paper's §5.1 configuration for a given scoring method.
    pub fn paper_default(method: ScoringMethod) -> Self {
        PerigeeConfig {
            limits: ConnectionLimits::paper_default(),
            explore: match method {
                ScoringMethod::Ucb => 0,
                _ => 2,
            },
            blocks_per_round: method.paper_blocks_per_round(),
            percentile: 90.0,
            ucb_c: 50.0,
            stability_tolerance: 0.175,
            liveness: LivenessConfig::disabled(),
            observation_backend: ObservationBackend::Dense,
        }
    }

    /// Number of neighbors retained by scoring each round
    /// (`dv = dout − ev`).
    pub fn retain_count(&self) -> usize {
        self.limits.dout.saturating_sub(self.explore)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.limits.dout == 0 {
            return Err("dout must be positive");
        }
        if self.explore >= self.limits.dout {
            return Err("exploration count must be below dout");
        }
        if self.blocks_per_round == 0 {
            return Err("blocks_per_round must be positive");
        }
        if !(0.0..=100.0).contains(&self.percentile) {
            return Err("percentile must be in [0, 100]");
        }
        if self.ucb_c.is_nan() || self.ucb_c < 0.0 {
            return Err("ucb_c must be non-negative");
        }
        if self.stability_tolerance.is_nan() || self.stability_tolerance < 0.0 {
            return Err("stability_tolerance must be non-negative");
        }
        Ok(())
    }
}

impl Default for PerigeeConfig {
    fn default() -> Self {
        Self::paper_default(ScoringMethod::Subset)
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::PerigeeConfig;

    impl Encode for PerigeeConfig {
        fn encode(&self, out: &mut Vec<u8>) {
            self.limits.encode(out);
            self.explore.encode(out);
            self.blocks_per_round.encode(out);
            self.percentile.encode(out);
            self.ucb_c.encode(out);
            self.stability_tolerance.encode(out);
            self.liveness.encode(out);
            self.observation_backend.encode(out);
        }
    }

    impl Decode for PerigeeConfig {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let config = PerigeeConfig {
                limits: Decode::decode(r)?,
                explore: usize::decode(r)?,
                blocks_per_round: usize::decode(r)?,
                percentile: f64::decode(r)?,
                ucb_c: f64::decode(r)?,
                stability_tolerance: f64::decode(r)?,
                liveness: Decode::decode(r)?,
                observation_backend: Decode::decode(r)?,
            };
            config
                .validate()
                .map_err(|_| DecodeError::new("perigee config fails validation"))?;
            Ok(config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = PerigeeConfig::paper_default(ScoringMethod::Subset);
        assert_eq!(c.limits.dout, 8);
        assert_eq!(c.limits.din_max, Some(20));
        assert_eq!(c.explore, 2);
        assert_eq!(c.blocks_per_round, 100);
        assert_eq!(c.retain_count(), 6);
        assert!(c.validate().is_ok());

        let u = PerigeeConfig::paper_default(ScoringMethod::Ucb);
        assert_eq!(u.blocks_per_round, 1);
        assert_eq!(u.explore, 0);
        assert_eq!(u.retain_count(), 8);

        // Kaspa's deployed gating tolerance; liveness is opt-in.
        assert_eq!(c.stability_tolerance, 0.175);
        assert!(!c.liveness.enabled);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = PerigeeConfig {
            explore: 8,
            ..PerigeeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PerigeeConfig {
            blocks_per_round: 0,
            ..PerigeeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PerigeeConfig {
            percentile: 250.0,
            ..PerigeeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PerigeeConfig {
            ucb_c: f64::NAN,
            ..PerigeeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PerigeeConfig {
            stability_tolerance: f64::NAN,
            ..PerigeeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PerigeeConfig {
            stability_tolerance: -0.1,
            ..PerigeeConfig::default()
        };
        assert!(c.validate().is_err());
        // Gating disabled via an infinite tolerance is valid.
        let c = PerigeeConfig {
            stability_tolerance: f64::INFINITY,
            ..PerigeeConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
