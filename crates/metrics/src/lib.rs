//! # perigee-metrics
//!
//! Measurement utilities shared by the Perigee reproduction: the single
//! percentile definition used everywhere ([`percentile()`], computed by
//! O(n) selection, with an `f32` entry for scoring), its
//! constant-space streaming counterpart ([`P2Quantile`], the P² algorithm
//! used for per-round λ-curve tracking in dynamic-world runs), the
//! 48-byte per-edge variant powering sketch-backed observation stores
//! ([`EdgeSketch`] + [`SketchParams`]), the paper's
//! sorted per-node delay curves ([`DelayCurve`], Figs. 3–4), fixed-bin
//! histograms ([`Histogram`], Fig. 5), summary statistics ([`Summary`]) and
//! text/CSV tables ([`Table`]) for the harness output.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod curve;
pub mod histogram;
pub mod p2;
pub mod percentile;
pub mod sketch;
pub mod stats;
pub mod table;

pub use curve::DelayCurve;
pub use histogram::Histogram;
pub use p2::P2Quantile;
pub use percentile::{
    percentile, percentile_from_closest_ranks, percentile_lower_rank, percentile_mut,
    percentile_or_inf, percentile_or_inf_f32_mut, percentile_or_inf_mut,
};
pub use sketch::{EdgeSketch, SketchParams};
pub use stats::{mean, median, std_dev, Summary};
pub use table::Table;
