//! Streaming quantile estimation (the P² algorithm).
//!
//! The exact [`percentile`](crate::percentile()) definition needs the full
//! multiset in memory; per-round λ-curve tracking over long dynamic-world
//! runs wants a constant-space estimate instead. [`P2Quantile`] implements
//! the P² algorithm of Jain & Chlamtac (CACM 1985): five markers whose
//! heights approximate `(min, p/2, p, (1+p)/2, max)` quantiles are nudged
//! toward their desired rank positions with a piecewise-parabolic update
//! on every observation — O(1) memory and time per sample, no sorting.
//!
//! Two departures from the textbook algorithm keep it consistent with this
//! crate's percentile conventions:
//!
//! * until five *finite* samples have arrived, the estimate is the exact
//!   [`percentile`](crate::percentile()) of the buffered samples (the P²
//!   marker invariants need five points to initialize);
//! * infinite observations — the `t = ∞` "never delivered/covered"
//!   convention — are counted out-of-band instead of being fed to the
//!   marker update (a parabolic step over `∞` yields `NaN`): the
//!   estimate is `+∞` exactly when the requested rank lands in the
//!   infinite tail, mirroring [`percentile`](crate::percentile())'s
//!   treatment, and the finite quantile estimate is returned otherwise.
//!   The finite-side rank is approximated by the marker state, so mixed
//!   streams are estimates twice over — fine for tracking, not for
//!   scoring.
//!
//! Like everything in this crate the estimator is deterministic: the same
//! observation sequence produces bit-identical marker states on any
//! thread.

use crate::percentile::percentile_mut;

/// Constant-space streaming estimator of a single quantile.
///
/// # Examples
///
/// ```
/// use perigee_metrics::P2Quantile;
///
/// let mut q = P2Quantile::new(50.0);
/// for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
///     q.observe(x);
/// }
/// assert_eq!(q.estimate(), Some(3.0)); // exact while ≤ 5 samples
/// for x in 0..1000 {
///     q.observe(f64::from(x % 100));
/// }
/// let est = q.estimate().unwrap();
/// assert!((est - 49.5).abs() < 5.0, "median estimate {est}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    /// Requested percentile in `[0, 100]`.
    p: f64,
    /// Marker heights `q₀..q₄` (valid once `initialized`).
    heights: [f64; 5],
    /// Actual marker positions `n₀..n₄` (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions `n′₀..n′₄`.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    increments: [f64; 5],
    /// The first finite samples, buffered until the markers initialize.
    seed: Vec<f64>,
    /// Finite observations so far.
    finite: usize,
    /// Infinite observations so far (kept out of the marker state).
    infinite: usize,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-th percentile (`0 ≤ p ≤ 100` —
    /// the same convention as [`percentile`](crate::percentile())).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        let f = p / 100.0;
        P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * f, 1.0 + 4.0 * f, 3.0 + 2.0 * f, 5.0],
            increments: [0.0, f / 2.0, f, (1.0 + f) / 2.0, 1.0],
            seed: Vec::with_capacity(5),
            finite: 0,
            infinite: 0,
        }
    }

    /// The percentile this estimator tracks.
    pub fn percentile(&self) -> f64 {
        self.p
    }

    /// Total observations so far (finite and infinite).
    pub fn count(&self) -> usize {
        self.finite + self.infinite
    }

    /// Feeds one observation. Infinities are legal (the `t = ∞`
    /// convention) and tracked out-of-band; see the module docs.
    ///
    /// # Panics
    ///
    /// Panics on `NaN`, like [`percentile`](crate::percentile()).
    pub fn observe(&mut self, x: f64) {
        assert!(!x.is_nan(), "quantile input must not contain NaN");
        if x.is_infinite() {
            self.infinite += 1;
            return;
        }
        self.finite += 1;
        if self.finite <= 5 {
            self.seed.push(x);
            if self.finite == 5 {
                self.seed.sort_unstable_by(f64::total_cmp);
                for (h, &s) in self.heights.iter_mut().zip(&self.seed) {
                    *h = s;
                }
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
            // One of the three interior cells; linear scan over 4 slots.
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
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Nudge the three interior markers toward their desired ranks.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let above = self.positions[i + 1] - self.positions[i];
            let below = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && above > 1.0) || (d <= -1.0 && below < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// The piecewise-parabolic (P²) height prediction for marker `i`
    /// moved by `d ∈ {−1, +1}` ranks.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.heights, &self.positions);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// The linear fallback used when the parabolic prediction would break
    /// the marker-height monotonicity.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate, or `None` before the first observation.
    ///
    /// Returns `+∞` when the requested rank lands in the infinite tail of
    /// the observed stream (matching [`percentile`](crate::percentile())'s
    /// convention for `t = ∞` observations).
    pub fn estimate(&self) -> Option<f64> {
        let total = self.finite + self.infinite;
        if total == 0 {
            return None;
        }
        if self.infinite > 0 {
            // The rank (0-based, interpolated like `percentile`) falls in
            // the infinite tail when it reaches index `finite` or when it
            // interpolates toward it from index `finite - 1`.
            let rank = self.p / 100.0 * (total - 1) as f64;
            if rank > self.finite as f64 - 1.0 {
                return Some(f64::INFINITY);
            }
        }
        if self.finite <= 5 {
            let mut buf = self.seed.clone();
            return percentile_mut(&mut buf, self.p);
        }
        Some(self.heights[2])
    }

    /// Like [`P2Quantile::estimate`] but maps the empty stream to `+∞` —
    /// the scoring convention of
    /// [`percentile_or_inf`](crate::percentile_or_inf).
    pub fn estimate_or_inf(&self) -> f64 {
        self.estimate().unwrap_or(f64::INFINITY)
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`): every marker float
    //! travels as its IEEE-754 bit pattern, so a restored tracker that
    //! keeps streaming is bit-identical to one that never stopped.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::P2Quantile;

    impl Encode for P2Quantile {
        fn encode(&self, out: &mut Vec<u8>) {
            self.p.encode(out);
            self.heights.encode(out);
            self.positions.encode(out);
            self.desired.encode(out);
            self.increments.encode(out);
            self.seed.encode(out);
            self.finite.encode(out);
            self.infinite.encode(out);
        }
    }

    impl Decode for P2Quantile {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let q = P2Quantile {
                p: f64::decode(r)?,
                heights: <[f64; 5]>::decode(r)?,
                positions: <[f64; 5]>::decode(r)?,
                desired: <[f64; 5]>::decode(r)?,
                increments: <[f64; 5]>::decode(r)?,
                seed: Vec::decode(r)?,
                finite: usize::decode(r)?,
                infinite: usize::decode(r)?,
            };
            if !(0.0..=100.0).contains(&q.p) {
                return Err(DecodeError::new("p2 percentile out of range"));
            }
            if q.seed.len() > 5 || (q.finite <= 5 && q.seed.len() != q.finite) {
                return Err(DecodeError::new("p2 seed buffer inconsistent with count"));
            }
            Ok(q)
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
    fn empty_and_small_streams_are_exact() {
        let mut q = P2Quantile::new(90.0);
        assert_eq!(q.estimate(), None);
        assert_eq!(q.estimate_or_inf(), f64::INFINITY);
        let values = [7.0, 3.0, 9.0, 1.0, 5.0];
        for (i, &x) in values.iter().enumerate() {
            q.observe(x);
            assert_eq!(
                q.estimate(),
                percentile(&values[..=i], 90.0),
                "exact while ≤ 5 samples"
            );
        }
        assert_eq!(q.count(), 5);
    }

    #[test]
    fn tracks_uniform_stream_within_tolerance() {
        for p in [50.0, 90.0, 99.0] {
            let mut q = P2Quantile::new(p);
            let exact: Vec<f64> = (0..5000).map(noise).collect();
            for &x in &exact {
                q.observe(x);
            }
            let truth = percentile(&exact, p).unwrap();
            let est = q.estimate().unwrap();
            assert!(
                (est - truth).abs() < 0.02,
                "p{p}: estimate {est} vs exact {truth}"
            );
        }
    }

    #[test]
    fn tracks_skewed_stream_within_tolerance() {
        // Long-tailed (exponential-ish) stream — the λ90 shape.
        let mut q = P2Quantile::new(90.0);
        let exact: Vec<f64> = (0..4000)
            .map(|i| -200.0 * (1.0 - noise(i)).max(f64::MIN_POSITIVE).ln())
            .collect();
        for &x in &exact {
            q.observe(x);
        }
        let truth = percentile(&exact, 90.0).unwrap();
        let est = q.estimate().unwrap();
        assert!(
            (est - truth).abs() / truth < 0.05,
            "estimate {est} vs exact {truth}"
        );
    }

    #[test]
    fn sorted_and_reversed_streams_agree_with_exact() {
        let mut asc = P2Quantile::new(75.0);
        let mut desc = P2Quantile::new(75.0);
        let exact: Vec<f64> = (0..2000).map(|i| i as f64).collect();
        for &x in &exact {
            asc.observe(x);
        }
        for &x in exact.iter().rev() {
            desc.observe(x);
        }
        let truth = percentile(&exact, 75.0).unwrap();
        for est in [asc.estimate().unwrap(), desc.estimate().unwrap()] {
            assert!(
                (est - truth).abs() / truth < 0.05,
                "estimate {est} vs exact {truth}"
            );
        }
    }

    #[test]
    fn infinite_tail_dominates_when_rank_touches_it() {
        // 15% infinite: p90 lands in the tail (like the exact definition).
        let mut q = P2Quantile::new(90.0);
        for i in 0..850 {
            q.observe(noise(i));
        }
        for _ in 0..150 {
            q.observe(f64::INFINITY);
        }
        assert_eq!(q.estimate(), Some(f64::INFINITY));
        // ...but the median stays finite on the same stream.
        let mut med = P2Quantile::new(50.0);
        for i in 0..850 {
            med.observe(noise(i));
        }
        for _ in 0..150 {
            med.observe(f64::INFINITY);
        }
        assert!(med.estimate().unwrap().is_finite());
    }

    #[test]
    fn few_infinities_do_not_poison_the_estimate() {
        let mut q = P2Quantile::new(90.0);
        for i in 0..950 {
            q.observe(noise(i));
        }
        for _ in 0..50 {
            q.observe(f64::INFINITY);
        }
        let est = q.estimate().unwrap();
        assert!(
            est.is_finite(),
            "5% infinite must keep p90 finite, got {est}"
        );
    }

    #[test]
    fn all_infinite_is_infinite() {
        let mut q = P2Quantile::new(50.0);
        for _ in 0..10 {
            q.observe(f64::INFINITY);
        }
        assert_eq!(q.estimate(), Some(f64::INFINITY));
    }

    #[test]
    fn determinism_same_stream_same_state() {
        let mut a = P2Quantile::new(90.0);
        let mut b = P2Quantile::new(90.0);
        for i in 0..500 {
            a.observe(noise(i));
            b.observe(noise(i));
        }
        assert_eq!(a, b);
        assert_eq!(
            a.estimate().unwrap().to_bits(),
            b.estimate().unwrap().to_bits()
        );
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        use serde::bin::{Decode, Encode};
        // Serialize → restore → continue streaming must match an unbroken
        // tracker exactly, at every cut point: mid-seed (< 5 finite),
        // exactly at initialization, and deep into the marker regime —
        // with infinities mixed in (the out-of-band counter must travel).
        for cut in [0usize, 3, 5, 6, 250] {
            let mut unbroken = P2Quantile::new(90.0);
            let mut prefix = P2Quantile::new(90.0);
            let stream = |i: u64| {
                if i.is_multiple_of(13) {
                    f64::INFINITY
                } else {
                    noise(i)
                }
            };
            for i in 0..cut as u64 {
                unbroken.observe(stream(i));
                prefix.observe(stream(i));
            }
            let mut resumed = P2Quantile::from_bytes(&prefix.to_bytes()).unwrap();
            assert_eq!(resumed, prefix, "cut {cut}: restored state differs");
            for i in cut as u64..600 {
                unbroken.observe(stream(i));
                resumed.observe(stream(i));
            }
            assert_eq!(resumed, unbroken, "cut {cut}: streams diverged");
            assert_eq!(
                resumed.estimate_or_inf().to_bits(),
                unbroken.estimate_or_inf().to_bits(),
                "cut {cut}: estimates differ"
            );
        }
    }

    #[test]
    fn snapshot_rejects_corrupted_bytes() {
        use serde::bin::{Decode, Encode};
        let mut q = P2Quantile::new(75.0);
        for i in 0..10 {
            q.observe(noise(i));
        }
        let bytes = q.to_bytes();
        assert!(P2Quantile::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_p = bytes.clone();
        // First field is `p`; overwrite with the bits of 400.0.
        bad_p[..8].copy_from_slice(&400.0f64.to_bits().to_le_bytes());
        assert!(P2Quantile::from_bytes(&bad_p).is_err());
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_observation_panics() {
        P2Quantile::new(50.0).observe(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn out_of_range_percentile_panics() {
        let _ = P2Quantile::new(-1.0);
    }
}
