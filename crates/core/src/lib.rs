//! # perigee-core
//!
//! The Perigee protocol from
//! [*Perigee: Efficient Peer-to-Peer Network Design for Blockchains*
//! (PODC 2020)](https://doi.org/10.1145/3382734.3405704) — a decentralized,
//! multi-armed-bandit-inspired neighbor-selection algorithm that learns a
//! low-latency p2p topology purely from block arrival timestamps.
//!
//! ## Structure
//!
//! * [`observation`] — the per-round observation sets `Ov` and their
//!   time-normalization (§4.1, eq. 2), stored as one flat
//!   struct-of-arrays [`ObservationStore`] (`f32` normalized times on the
//!   round snapshot's directed-edge offsets) read through borrowed
//!   [`NodeObservations`] windows, and filled by one recorder for every
//!   kernel and fault lens,
//!   [`ObservationCollector::record_scratch`](observation::ObservationCollector::record_scratch)
//!   (and its faulted twin), from the rows the propagation scratch
//!   derives;
//! * [`score`] — the three published scoring methods:
//!   [`VanillaScoring`] (§4.2.1), [`UcbScoring`] (§4.2.2) and
//!   [`SubsetScoring`] (§4.3), behind the [`SelectionStrategy`] trait; a
//!   strategy holds only its parameters, and the engine passes each node
//!   its own [`NodeHistory`] (UCB's connection history, each buffer
//!   kept sorted so a bound reads its order statistics by index; blank
//!   otherwise), so all three are scored through one fan-out over the
//!   rayon pool;
//! * [`engine`] — [`PerigeeEngine`], Algorithm 1's round loop
//!   (observe → score → retain best → explore), including incremental
//!   deployment; the round's CSR snapshot is carried across rounds and
//!   patched in place with the net rewiring delta instead of rebuilt.
//!   Blocks are messages: one block
//!   [`GossipConfig`](perigee_netsim::GossipConfig) says how they move
//!   ([`PerigeeEngine::set_propagation`](engine::PerigeeEngine::set_propagation),
//!   the §2 flood by default), and the config alone picks the kernel —
//!   the analytic Dijkstra flood when
//!   [`GossipConfig::is_analytic`](perigee_netsim::GossipConfig::is_analytic)
//!   holds (it equals the message-level flood bit for bit), the
//!   message-level engine otherwise, both on one
//!   [`GossipScratch`](perigee_netsim::GossipScratch) per pool slot.
//!   Three entry points measure:
//!   [`PerigeeEngine::evaluate`](engine::PerigeeEngine::evaluate) (λ per
//!   live source), [`evaluate_topology`] (a static overlay) and
//!   [`PerigeeEngine::observe_round`](engine::PerigeeEngine::observe_round)
//!   (one round's propagation phase);
//! * [`adversary`] — free-rider / eclipse / throttling attacker models.
//!
//! ## Memory and scale
//!
//! The observation store has two backends behind
//! [`ObservationBackend`](observation::ObservationBackend). `Dense` is
//! the flat `f32` matrix above: `directed-edges × blocks × 4` bytes per
//! round — exact, and the right default at paper scale. `Sketch`
//! replaces each edge's sample row with one 48-byte streaming P²
//! [`EdgeSketch`](perigee_metrics::EdgeSketch), making the round's
//! memory `directed-edges × 48` bytes — *independent of
//! blocks-per-round*, which is what makes 100k-node, 100-block worlds
//! routine (~77 MiB where dense would hold ~640 MiB). Sketches are
//! exact through five finite samples and estimates afterwards; scoring
//! reads whichever backend the round carried through the same
//! [`RoundStore`](observation::RoundStore) interface.
//!
//! Both observation phases — the round's blocks, on either kernel, and
//! its traffic messages — go through one fan-out: the items
//! split into contiguous chunks (one per pool thread, or capped at a few
//! items under the sketch backend), which run on the rayon pool in waves
//! of one chunk per thread, each thread reusing one collector and one
//! scratch. The chunks merge back in item order; under the sketch
//! backend each wave folds into the sketches, one edge range per
//! thread, before the next wave runs, so transient dense memory stays
//! O(pool × edges). Determinism comes from that merge discipline (fixed
//! item order per edge, order-independent counter sums), so the output
//! is **bit-identical for any thread count**.
//!
//! ## Dynamic worlds
//!
//! Install a [`ChurnProcess`](perigee_netsim::ChurnProcess) with
//! [`PerigeeEngine::set_churn`](engine::PerigeeEngine::set_churn) and the
//! engine consumes it between scoring and rewiring every round: departures
//! are torn out of every peer list (survivors backfill through the normal
//! exploration/[`AddressBook`] path), arrivals spawn under the stable-id
//! contract (ids are never reused — see `perigee_netsim::population`) and
//! bootstrap random neighbors, and the carried snapshot is *patched*
//! through `TopologyView::apply_delta`, never rebuilt
//! ([`PerigeeEngine::view_rebuilds`](engine::PerigeeEngine::view_rebuilds)
//! stays at 1 for an entire churny run). The engine's per-node
//! [`NodeHistory`] array follows the node set: it grows by the delta and
//! drops departed nodes' histories wholesale, while survivors forget a
//! departed neighbor with the severed connection — UCB keeps samples
//! only of neighbors it still has, the paper's per-connection `T̿u,v`
//! (Vanilla/Subset keep their histories blank and are churn-immune by
//! construction).
//!
//! Long churny runs accumulate dead slots. An explicit
//! [`PerigeeEngine::compact`](engine::PerigeeEngine::compact) reclaims
//! them under the id-remap contract of
//! [`IdRemap`](perigee_netsim::IdRemap): survivors are renumbered
//! **order-preservingly** (so every sorted structure stays sorted for
//! free) and every id-bearing subsystem — topology, latency placement
//! keys, carried view, address books, liveness, score histories, churn
//! schedule — is remapped in one step, with surviving pair delays and
//! view floats preserved bit for bit. Compaction is a *semantic world
//! edit*, never an implicit optimization: it changes downstream RNG
//! consumption, so the engine only compacts when asked, and each call
//! bumps a `compaction_epoch` carried in checkpoints (snapshot format
//! v2) so resumed runs agree on the world's identity.
//!
//! ## Quickstart
//!
//! ```
//! use perigee_core::{PerigeeConfig, PerigeeEngine, ScoringMethod};
//! use perigee_netsim::{ConnectionLimits, GeoLatencyModel, PopulationBuilder};
//! use perigee_topology::{RandomBuilder, TopologyBuilder};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let population = PopulationBuilder::new(150).build(&mut rng)?;
//! let latency = GeoLatencyModel::new(&population, 42);
//! let initial = RandomBuilder::new().build(
//!     &population, &latency, ConnectionLimits::paper_default(), &mut rng);
//!
//! let mut config = PerigeeConfig::paper_default(ScoringMethod::Subset);
//! config.blocks_per_round = 20; // doc-test speed
//! let mut engine = PerigeeEngine::new(
//!     population, latency, initial, ScoringMethod::Subset, config)?;
//!
//! let before = engine.evaluate(0.9);
//! engine.run_rounds(5, &mut rng);
//! let after = engine.evaluate(0.9);
//! let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
//! assert!(mean(&after) <= mean(&before) * 1.05, "Perigee does not regress");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod audit;
pub mod config;
pub mod discovery;
pub mod engine;
pub mod liveness;
pub mod observation;
pub mod score;
pub mod snapshot;

pub use adversary::EclipseAttacker;
pub use audit::{AuditCheck, AuditReport, AuditViolation};
pub use config::PerigeeConfig;
pub use discovery::AddressBook;
pub use engine::{
    evaluate_topology, PerigeeEngine, RoundObservations, RoundStats, TrafficClassRoundStats,
    TrafficRoundStats,
};
pub use liveness::{LivenessConfig, LivenessTracker, PeerHealth};
pub use observation::{
    NodeObservations, ObservationBackend, ObservationCollector, ObservationStore, RoundStore,
    SketchObservationStore, TimesIter,
};
pub use score::{
    NodeHistory, ScoringMethod, SelectionStrategy, SubsetScoring, UcbScoring, VanillaScoring,
};
pub use snapshot::{RunSnapshot, SnapshotError};
