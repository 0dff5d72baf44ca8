//! Compact per-edge streaming sketches for observation scoring.
//!
//! [`P2Quantile`] is the right tool for a handful of
//! long-lived trackers (λ-curves), but an observation store carries one
//! sketch *per directed edge* — 160k at 10k nodes, 1.6M at 100k — so
//! every byte of per-sketch state is multiplied by the edge count.
//! [`EdgeSketch`] is the same P² marker update shrunk to 48 bytes:
//!
//! * marker heights as `f32` (observation times are recorded as `f32`
//!   anyway, so no information is lost at ingest);
//! * marker positions as `u32` — P² positions are integral by
//!   construction (they move by exactly ±1);
//! * no per-sketch copy of the desired positions or their increments:
//!   both are pure functions of the tracked percentile and the finite
//!   count, so they live once per store in [`SketchParams`] and are
//!   re-derived on every update;
//! * the five height slots double as the seed buffer before the markers
//!   initialize, so small streams (≤ 5 finite samples) are *exact* —
//!   the same guarantee [`P2Quantile`] gives.
//!
//! Infinite observations (the `t = ∞` "never delivered" convention)
//! are counted out-of-band exactly like
//! [`P2Quantile`]: the estimate is `+∞` iff the
//! requested rank lands in the infinite tail.
//!
//! The update is deterministic: a given sample sequence produces a
//! bit-identical sketch on any thread, and the internal marker math runs
//! in `f64` (rounding to `f32` only when a height is stored) so the
//! estimate degrades gracefully, not chaotically, relative to the exact
//! percentile of the same stream.
//!
//! [`MultiQuantile`] bundles several [`P2Quantile`] trackers over one
//! stream — sized for the production-Kaspa lexicographic score tuple
//! (p90, p95, p97.5, p100), see [`MultiQuantile::kaspa_tuple`].

use crate::percentile::percentile_mut;
use crate::P2Quantile;

/// Per-store parameters shared by every [`EdgeSketch`] tracking the same
/// percentile: the initial desired marker positions and their
/// per-observation increments. Keeping them out of the per-edge state is
/// what gets the sketch to 48 bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchParams {
    /// Requested percentile in `[0, 100]`.
    p: f64,
    /// Desired marker positions after the five seed samples.
    initial: [f64; 5],
    /// Per-observation increments of the desired positions.
    increments: [f64; 5],
}

impl SketchParams {
    /// Parameters for sketches of the `p`-th percentile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        let f = p / 100.0;
        SketchParams {
            p,
            initial: [1.0, 1.0 + 2.0 * f, 1.0 + 4.0 * f, 3.0 + 2.0 * f, 5.0],
            increments: [0.0, f / 2.0, f, (1.0 + f) / 2.0, 1.0],
        }
    }

    /// The percentile these parameters track.
    #[inline]
    pub fn percentile(&self) -> f64 {
        self.p
    }

    /// Desired position of marker `i` after `finite` finite samples.
    #[inline]
    fn desired(&self, i: usize, finite: u32) -> f64 {
        self.initial[i] + (finite as f64 - 5.0) * self.increments[i]
    }
}

/// A 48-byte streaming P² sketch of one percentile of one edge's
/// observation stream. All methods that advance or read the marker
/// state take the store's shared [`SketchParams`]; callers must pass
/// the same params the sketch was fed with.
///
/// # Examples
///
/// ```
/// use perigee_metrics::{EdgeSketch, SketchParams};
///
/// let params = SketchParams::new(90.0);
/// let mut s = EdgeSketch::new();
/// for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
///     s.observe(x, &params);
/// }
/// assert_eq!(s.estimate(&params), Some(4.6)); // exact while ≤ 5 samples
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EdgeSketch {
    /// Marker heights `q₀..q₄`; the seed buffer (in arrival order)
    /// until five finite samples have arrived.
    heights: [f32; 5],
    /// Marker positions `n₀..n₄` (1-based ranks, always integral).
    positions: [u32; 5],
    /// Finite observations so far.
    finite: u32,
    /// Infinite observations so far (kept out of the marker state).
    infinite: u32,
}

impl EdgeSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        EdgeSketch {
            heights: [0.0; 5],
            positions: [1, 2, 3, 4, 5],
            finite: 0,
            infinite: 0,
        }
    }

    /// Total observations so far (finite and infinite).
    #[inline]
    pub fn count(&self) -> usize {
        self.finite as usize + self.infinite as usize
    }

    /// Finite observations so far.
    #[inline]
    pub fn finite(&self) -> usize {
        self.finite as usize
    }

    /// Infinite observations so far.
    #[inline]
    pub fn infinite(&self) -> usize {
        self.infinite as usize
    }

    /// Feeds one observation. Infinities are legal (the `t = ∞`
    /// convention) and tracked out-of-band.
    ///
    /// # Panics
    ///
    /// Panics on `NaN`, like [`percentile`](crate::percentile()).
    pub fn observe(&mut self, x: f32, params: &SketchParams) {
        assert!(!x.is_nan(), "quantile input must not contain NaN");
        if x.is_infinite() {
            self.infinite += 1;
            return;
        }
        self.finite += 1;
        if self.finite <= 5 {
            self.heights[self.finite as usize - 1] = x;
            if self.finite == 5 {
                self.heights.sort_unstable_by(f32::total_cmp);
            }
            return;
        }

        // Locate the cell k with q[k] ≤ x < q[k+1], clamping the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1;
        }

        // Nudge the three interior markers toward their desired ranks.
        // The marker math runs in f64 (heights round to f32 on store).
        for i in 1..4 {
            let d = params.desired(i, self.finite) - self.positions[i] as f64;
            let above = self.positions[i + 1] as f64 - self.positions[i] as f64;
            let below = self.positions[i - 1] as f64 - self.positions[i] as f64;
            if (d >= 1.0 && above > 1.0) || (d <= -1.0 && below < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d) as f32;
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d) as f32
                    };
                if d > 0.0 {
                    self.positions[i] += 1;
                } else {
                    self.positions[i] -= 1;
                }
            }
        }
    }

    /// The piecewise-parabolic (P²) height prediction for marker `i`
    /// moved by `d ∈ {−1, +1}` ranks.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = |j: usize| self.heights[j] as f64;
        let n = |j: usize| self.positions[j] as f64;
        q(i) + d / (n(i + 1) - n(i - 1))
            * ((n(i) - n(i - 1) + d) * (q(i + 1) - q(i)) / (n(i + 1) - n(i))
                + (n(i + 1) - n(i) - d) * (q(i) - q(i - 1)) / (n(i) - n(i - 1)))
    }

    /// The linear fallback used when the parabolic prediction would break
    /// the marker-height monotonicity.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i] as f64
            + d * (self.heights[j] as f64 - self.heights[i] as f64)
                / (self.positions[j] as f64 - self.positions[i] as f64)
    }

    /// The current estimate of the tracked percentile, or `None` before
    /// the first observation. Exact (matching
    /// [`percentile`](crate::percentile()) up to the `f32` sample
    /// representation) while at most five finite samples have arrived;
    /// `+∞` when the requested rank lands in the infinite tail.
    pub fn estimate(&self, params: &SketchParams) -> Option<f64> {
        let total = self.finite as usize + self.infinite as usize;
        if total == 0 {
            return None;
        }
        if self.infinite > 0 {
            let rank = params.p / 100.0 * (total - 1) as f64;
            if rank > self.finite as f64 - 1.0 {
                return Some(f64::INFINITY);
            }
        }
        if self.finite <= 5 {
            let mut buf: Vec<f64> = self.heights[..self.finite as usize]
                .iter()
                .map(|&h| h as f64)
                .collect();
            return percentile_mut(&mut buf, params.p);
        }
        Some(self.heights[2] as f64)
    }

    /// Like [`EdgeSketch::estimate`] but maps the empty stream to `+∞` —
    /// the scoring convention of
    /// [`percentile_or_inf`](crate::percentile_or_inf).
    pub fn estimate_or_inf(&self, params: &SketchParams) -> f64 {
        self.estimate(params).unwrap_or(f64::INFINITY)
    }

    /// The sketch's representative finite samples: the raw seed values
    /// (exact) while at most five finite samples have arrived, the five
    /// marker heights afterwards. Consumers that need a sample *stream*
    /// back out of the sketch (UCB's history absorption) read these plus
    /// [`EdgeSketch::infinite`] `∞` entries.
    #[inline]
    pub fn representatives(&self) -> &[f32] {
        let k = (self.finite as usize).min(5);
        &self.heights[..k]
    }
}

/// Several [`P2Quantile`] trackers over one observation stream — the
/// multi-percentile variant backing lexicographic score tuples.
///
/// # Examples
///
/// ```
/// use perigee_metrics::MultiQuantile;
///
/// let mut m = MultiQuantile::kaspa_tuple();
/// for x in 0..1000 {
///     m.observe(f64::from(x % 100));
/// }
/// let t = m.estimates_or_inf();
/// assert_eq!(t.len(), 4);
/// assert!(t.windows(2).all(|w| w[0] <= w[1]), "tuple is sorted: {t:?}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiQuantile {
    trackers: Vec<P2Quantile>,
}

impl MultiQuantile {
    /// Trackers for each requested percentile, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any percentile is outside `[0, 100]`.
    pub fn new(percentiles: &[f64]) -> Self {
        MultiQuantile {
            trackers: percentiles.iter().map(|&p| P2Quantile::new(p)).collect(),
        }
    }

    /// The production-Kaspa lexicographic score tuple: (p90, p95,
    /// p97.5, p100), compared element-wise (see ROADMAP's `KaspaScore`
    /// item).
    pub fn kaspa_tuple() -> Self {
        Self::new(&[90.0, 95.0, 97.5, 100.0])
    }

    /// The tracked percentiles, in tuple order.
    pub fn percentiles(&self) -> Vec<f64> {
        self.trackers.iter().map(|t| t.percentile()).collect()
    }

    /// Feeds one observation to every tracker.
    ///
    /// # Panics
    ///
    /// Panics on `NaN`.
    pub fn observe(&mut self, x: f64) {
        for t in &mut self.trackers {
            t.observe(x);
        }
    }

    /// Total observations so far.
    pub fn count(&self) -> usize {
        self.trackers.first().map_or(0, |t| t.count())
    }

    /// The current estimate tuple, mapping the empty stream to `+∞`
    /// per element — ready for lexicographic comparison.
    pub fn estimates_or_inf(&self) -> Vec<f64> {
        self.trackers.iter().map(|t| t.estimate_or_inf()).collect()
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::{EdgeSketch, MultiQuantile};
    use crate::P2Quantile;

    impl Encode for EdgeSketch {
        fn encode(&self, out: &mut Vec<u8>) {
            self.heights.encode(out);
            self.positions.encode(out);
            self.finite.encode(out);
            self.infinite.encode(out);
        }
    }

    impl Decode for EdgeSketch {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let s = EdgeSketch {
                heights: <[f32; 5]>::decode(r)?,
                positions: <[u32; 5]>::decode(r)?,
                finite: u32::decode(r)?,
                infinite: u32::decode(r)?,
            };
            if s.heights.iter().any(|h| h.is_nan()) {
                return Err(DecodeError::new("edge sketch height is NaN"));
            }
            Ok(s)
        }
    }

    impl Encode for MultiQuantile {
        fn encode(&self, out: &mut Vec<u8>) {
            self.trackers.encode(out);
        }
    }

    impl Decode for MultiQuantile {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(MultiQuantile {
                trackers: Vec::<P2Quantile>::decode(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::percentile;

    /// Deterministic pseudo-random stream (splitmix64 over the index).
    fn noise(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xA5A5);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    }

    #[test]
    fn sketch_is_48_bytes() {
        assert_eq!(std::mem::size_of::<EdgeSketch>(), 48);
    }

    #[test]
    fn empty_and_small_streams_are_exact() {
        let params = SketchParams::new(90.0);
        let mut s = EdgeSketch::new();
        assert_eq!(s.estimate(&params), None);
        assert_eq!(s.estimate_or_inf(&params), f64::INFINITY);
        let values = [7.0f32, 3.0, 9.0, 1.0, 5.0];
        for (i, &x) in values.iter().enumerate() {
            s.observe(x, &params);
            let exact: Vec<f64> = values[..=i].iter().map(|&v| v as f64).collect();
            assert_eq!(
                s.estimate(&params),
                percentile(&exact, 90.0),
                "exact while ≤ 5 samples"
            );
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.representatives().len(), 5);
    }

    #[test]
    fn tracks_streams_like_the_reference_estimator() {
        // The compact sketch and the f64 reference run the same marker
        // update; on an f32-representable stream they should stay within
        // a small tolerance of the exact percentile and of each other.
        for p in [50.0, 90.0, 99.0] {
            let params = SketchParams::new(p);
            let mut s = EdgeSketch::new();
            let mut reference = P2Quantile::new(p);
            let exact: Vec<f64> = (0..5000).map(|i| noise(i) as f32 as f64).collect();
            for &x in &exact {
                s.observe(x as f32, &params);
                reference.observe(x);
            }
            let truth = percentile(&exact, p).unwrap();
            let est = s.estimate(&params).unwrap();
            let ref_est = reference.estimate().unwrap();
            assert!((est - truth).abs() < 0.02, "p{p}: sketch {est} vs {truth}");
            assert!(
                (est - ref_est).abs() < 0.02,
                "p{p}: sketch {est} vs reference {ref_est}"
            );
        }
    }

    #[test]
    fn infinite_tail_matches_the_reference_convention() {
        let params = SketchParams::new(90.0);
        let mut s = EdgeSketch::new();
        for i in 0..850 {
            s.observe(noise(i) as f32, &params);
        }
        for _ in 0..150 {
            s.observe(f32::INFINITY, &params);
        }
        assert_eq!(s.estimate(&params), Some(f64::INFINITY));
        assert_eq!(s.infinite(), 150);

        let med = SketchParams::new(50.0);
        let mut s = EdgeSketch::new();
        for i in 0..850 {
            s.observe(noise(i) as f32, &med);
        }
        for _ in 0..150 {
            s.observe(f32::INFINITY, &med);
        }
        assert!(s.estimate(&med).unwrap().is_finite());
    }

    #[test]
    fn all_infinite_is_infinite_and_keeps_no_representatives() {
        let params = SketchParams::new(50.0);
        let mut s = EdgeSketch::new();
        for _ in 0..10 {
            s.observe(f32::INFINITY, &params);
        }
        assert_eq!(s.estimate(&params), Some(f64::INFINITY));
        assert!(s.representatives().is_empty());
    }

    #[test]
    fn determinism_same_stream_same_state() {
        let params = SketchParams::new(90.0);
        let mut a = EdgeSketch::new();
        let mut b = EdgeSketch::new();
        for i in 0..500 {
            a.observe(noise(i) as f32, &params);
            b.observe(noise(i) as f32, &params);
        }
        assert_eq!(a, b);
        assert_eq!(
            a.estimate(&params).unwrap().to_bits(),
            b.estimate(&params).unwrap().to_bits()
        );
    }

    #[test]
    fn heights_stay_sorted_through_the_update() {
        let params = SketchParams::new(90.0);
        let mut s = EdgeSketch::new();
        for i in 0..3000 {
            s.observe((noise(i) * 1000.0) as f32, &params);
            if s.finite() >= 5 {
                let h = s.heights;
                assert!(
                    h.windows(2).all(|w| w[0] <= w[1]),
                    "heights out of order after sample {i}: {h:?}"
                );
            }
        }
    }

    #[test]
    fn codec_roundtrip() {
        use serde::bin::{Decode, Encode};
        let params = SketchParams::new(75.0);
        let mut s = EdgeSketch::new();
        for i in 0..100 {
            s.observe(noise(i) as f32, &params);
        }
        let back = EdgeSketch::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);

        let mut m = MultiQuantile::kaspa_tuple();
        for i in 0..100 {
            m.observe(noise(i));
        }
        let back = MultiQuantile::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn multi_quantile_tracks_each_percentile() {
        let mut m = MultiQuantile::new(&[50.0, 90.0]);
        let exact: Vec<f64> = (0..4000).map(noise).collect();
        for &x in &exact {
            m.observe(x);
        }
        let t = m.estimates_or_inf();
        let p50 = percentile(&exact, 50.0).unwrap();
        let p90 = percentile(&exact, 90.0).unwrap();
        assert!((t[0] - p50).abs() < 0.02, "p50 {} vs {p50}", t[0]);
        assert!((t[1] - p90).abs() < 0.02, "p90 {} vs {p90}", t[1]);
        assert_eq!(m.count(), 4000);
        assert_eq!(m.percentiles(), vec![50.0, 90.0]);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_observation_panics() {
        EdgeSketch::new().observe(f32::NAN, &SketchParams::new(50.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn out_of_range_percentile_panics() {
        let _ = SketchParams::new(101.0);
    }
}
