//! # perigee
//!
//! Umbrella crate of the [Perigee (PODC 2020)](https://doi.org/10.1145/3382734.3405704)
//! reproduction: re-exports the simulator substrate, the baseline topologies,
//! the Perigee protocol itself, the measurement utilities and the experiment
//! harness under one roof, plus a [`prelude`] for the examples.
//!
//! See the individual crates for details:
//!
//! * [`netsim`] — network simulator (§2 model)
//! * [`topology`] — baseline topology constructions (§3, §5)
//! * [`core`] — the Perigee protocol (§4)
//! * [`metrics`] — percentiles, delay curves, histograms
//! * [`experiments`] — figure-by-figure reproduction harness (§5)

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use perigee_core as core;
pub use perigee_experiments as experiments;
pub use perigee_metrics as metrics;
pub use perigee_netsim as netsim;
pub use perigee_topology as topology;

/// Commonly used items, for `use perigee::prelude::*`.
pub mod prelude {
    pub use perigee_core::{
        PerigeeConfig, PerigeeEngine, ScoringMethod, SelectionStrategy, SubsetScoring, UcbScoring,
        VanillaScoring,
    };
    pub use perigee_metrics::{percentile, DelayCurve, Histogram};
    pub use perigee_netsim::{
        BroadcastScratch, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipScratch,
        LatencyModel, MinerSampler, NodeId, Population, PopulationBuilder, SimTime, Topology,
        TopologyView,
    };
    pub use perigee_topology::{
        FullMeshBuilder, GeographicBuilder, GeometricBuilder, KademliaBuilder, RandomBuilder,
        TopologyBuilder,
    };
}
