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
//! # Folding rows
//!
//! A store folds a round's observations row by row: row `r` holds one
//! sample per edge. [`EdgeSketch::observe_rows`] is that batch entry,
//! defined as the nested [`EdgeSketch::observe`] loop and equal to it
//! bit for bit. On x86-64 CPUs where AVX2 is detected at run time it
//! runs one explicit-intrinsics kernel: four consecutive edges form a
//! group, their state is loaded once into `f64` lanes (heights are
//! exact `f32` values, positions and counts exact integers), every row
//! of the batch is folded in registers, and the state is stored back
//! once. Each lane performs the scalar update's IEEE-754 operations in
//! the same order, without FMA, and rounds each new height through
//! `f32`. The scalar cell search becomes one comparison per marker,
//! which is exact because marker heights stay sorted once five finite
//! samples have arrived.
//!
//! [`EdgeSketch::observe`] remains the scalar path and the oracle. It
//! runs on CPUs without AVX2, for lanes still seeding, for the
//! `len % 4` remainder edges, and wherever a count could overflow
//! `u32` within the batch. The store layout does not change: the
//! sketches stay 48-byte array-of-structs, and their codec with them.
//!
//! [`P2Quantile`]: crate::P2Quantile

use crate::percentile::percentile_mut;

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

    /// Feeds `rows[r][i]` into `sketches[i]` for every row `r` in order:
    /// the batch form of [`EdgeSketch::observe`], and equal to that
    /// nested loop bit for bit. On x86-64 CPUs with AVX2 it folds four
    /// edges at a time in registers (see the module docs); elsewhere it
    /// is the nested loop.
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from `sketches.len()`, and on
    /// `NaN` like [`EdgeSketch::observe`].
    pub fn observe_rows(sketches: &mut [EdgeSketch], rows: &[&[f32]], params: &SketchParams) {
        for row in rows {
            assert_eq!(
                row.len(),
                sketches.len(),
                "row length must equal the sketch count"
            );
        }
        match avx2_kernel() {
            Some(kernel) => _ = kernel(sketches, rows, params),
            None => observe_rows_scalar(sketches, rows, params),
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
            let mut buf = self.heights.map(f64::from);
            return percentile_mut(&mut buf[..self.finite as usize], params.p);
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

/// [`EdgeSketch::observe_rows`] as the nested scalar loop: the fallback
/// on CPUs without AVX2 and the kernel's oracle.
fn observe_rows_scalar(sketches: &mut [EdgeSketch], rows: &[&[f32]], params: &SketchParams) {
    for row in rows {
        for (sketch, &x) in sketches.iter_mut().zip(*row) {
            sketch.observe(x, params);
        }
    }
}

/// A batch fold kernel: folds its rows into its sketches like
/// [`observe_rows_scalar`] and returns how many group-rows it folded in
/// vector registers.
type RowKernel = fn(&mut [EdgeSketch], &[&[f32]], &SketchParams) -> usize;

/// The AVX2 fold kernel, when this CPU can run it.
#[cfg(target_arch = "x86_64")]
fn avx2_kernel() -> Option<RowKernel> {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return None;
    }
    Some(|sketches, rows, params| {
        // SAFETY: `avx2::observe_rows` enables the `avx2` target feature
        // and nothing else, and this CPU supports AVX2: it was detected
        // at run time just above, before this kernel was handed out.
        #[allow(unsafe_code)]
        unsafe {
            avx2::observe_rows(sketches, rows, params)
        }
    })
}

/// The AVX2 fold kernel, when this CPU can run it: never off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn avx2_kernel() -> Option<RowKernel> {
    None
}

/// The AVX2 fold: four consecutive edges per group, their P² state held
/// in `f64` lanes across every row of the batch.
///
/// Each lane runs [`EdgeSketch::observe`]'s IEEE operations in the same
/// order, so the result is bit-identical. Heights are exact `f32`
/// values and positions and counts exact integers, so the `f64` lanes
/// hold the state exactly. Two steps differ in form, not in result:
///
/// * the cell search becomes `n[i] += (x < q[i])` for `i = 1..=3`,
///   which equals it because heights stay sorted once seeded;
/// * a height rounds to `f32` (`vcvtpd2ps`, like `as f32`) and widens
///   back, so later comparisons and arithmetic see the stored value.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{EdgeSketch, SketchParams};

    /// Edges per group: one `f64` lane each in a 256-bit register.
    const LANES: usize = 4;

    /// Folds `rows` into `sketches` (see [`EdgeSketch::observe_rows`])
    /// and returns how many group-rows it folded in registers. A group
    /// runs the scalar update until all four sketches hold five finite
    /// samples, then folds the rest of the batch in registers, provided
    /// the counts cannot overflow `u32` on the way. The `len % 4`
    /// remainder edges stay scalar.
    #[target_feature(enable = "avx2")]
    pub(super) fn observe_rows(
        sketches: &mut [EdgeSketch],
        rows: &[&[f32]],
        params: &SketchParams,
    ) -> usize {
        let consts = Consts::new(params);
        let mut folded = 0;
        let (groups, tail) = sketches.as_chunks_mut::<LANES>();
        for (g, group) in groups.iter_mut().enumerate() {
            let lo = g * LANES;
            let xs = |row: &&[f32]| -> [f32; LANES] {
                row[lo..lo + LANES].try_into().expect("four lanes")
            };
            let mut r = 0;
            while r < rows.len() && group.iter().any(|s| s.finite < 5) {
                for (sketch, x) in group.iter_mut().zip(xs(&rows[r])) {
                    sketch.observe(x, params);
                }
                r += 1;
            }
            let rest = &rows[r..];
            let fits = group
                .iter()
                .all(|s| s.count() + rest.len() <= u32::MAX as usize);
            if rest.is_empty() || !fits {
                for row in rest {
                    for (sketch, x) in group.iter_mut().zip(xs(row)) {
                        sketch.observe(x, params);
                    }
                }
                continue;
            }
            let mut state = State::load(group);
            for row in rest {
                state.observe(&xs(row), &consts);
            }
            state.store(group);
            folded += rest.len();
        }
        let tail_lo = groups.len() * LANES;
        for row in rows {
            for (sketch, &x) in tail.iter_mut().zip(&row[tail_lo..]) {
                sketch.observe(x, params);
            }
        }
        folded
    }

    /// The store's [`SketchParams`] for markers 1–3, broadcast to every
    /// lane.
    struct Consts {
        initial: [__m256d; 3],
        increments: [__m256d; 3],
    }

    impl Consts {
        #[target_feature(enable = "avx2")]
        fn new(params: &SketchParams) -> Self {
            let mut consts = Consts {
                initial: [_mm256_setzero_pd(); 3],
                increments: [_mm256_setzero_pd(); 3],
            };
            for i in 1..4 {
                consts.initial[i - 1] = _mm256_set1_pd(params.initial[i]);
                consts.increments[i - 1] = _mm256_set1_pd(params.increments[i]);
            }
            consts
        }
    }

    /// Four sketches' state, one per lane, exactly as `f64`.
    struct State {
        heights: [__m256d; 5],
        positions: [__m256d; 5],
        finite: __m256d,
        infinite: __m256d,
    }

    /// One register holding `v[l]` in lane `l`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn pack(v: [f64; LANES]) -> __m256d {
        _mm256_set_pd(v[3], v[2], v[1], v[0])
    }

    /// The four lanes of `v`, lowest first.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lanes(v: __m256d) -> [f64; LANES] {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        [
            _mm_cvtsd_f64(lo),
            _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)),
            _mm_cvtsd_f64(hi),
            _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)),
        ]
    }

    /// `v` rounded to `f32` and widened back: what storing a height as
    /// `f32` and reading it again gives.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn round_f32(v: __m256d) -> __m256d {
        _mm256_cvtps_pd(_mm256_cvtpd_ps(v))
    }

    impl State {
        #[target_feature(enable = "avx2")]
        #[inline]
        fn load(group: &[EdgeSketch; LANES]) -> Self {
            let mut state = State {
                heights: [_mm256_setzero_pd(); 5],
                positions: [_mm256_setzero_pd(); 5],
                finite: pack(group.map(|s| f64::from(s.finite))),
                infinite: pack(group.map(|s| f64::from(s.infinite))),
            };
            for i in 0..5 {
                state.heights[i] = pack(group.map(|s| f64::from(s.heights[i])));
                state.positions[i] = pack(group.map(|s| f64::from(s.positions[i])));
            }
            state
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn store(&self, group: &mut [EdgeSketch; LANES]) {
            for i in 0..5 {
                let (h, n) = (lanes(self.heights[i]), lanes(self.positions[i]));
                for (l, sketch) in group.iter_mut().enumerate() {
                    sketch.heights[i] = h[l] as f32;
                    sketch.positions[i] = n[l] as u32;
                }
            }
            let (finite, infinite) = (lanes(self.finite), lanes(self.infinite));
            for (l, sketch) in group.iter_mut().enumerate() {
                sketch.finite = finite[l] as u32;
                sketch.infinite = infinite[l] as u32;
            }
        }

        /// [`EdgeSketch::observe`] of `x[l]` into lane `l`, for every
        /// lane at once.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn observe(&mut self, x: &[f32; LANES], consts: &Consts) {
            let x = _mm256_cvtps_pd(_mm_set_ps(x[3], x[2], x[1], x[0]));
            let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x);
            assert!(
                _mm256_movemask_pd(nan) == 0,
                "quantile input must not contain NaN"
            );
            let one = _mm256_set1_pd(1.0);
            let magnitude = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
            let finite = _mm256_cmp_pd::<_CMP_LT_OQ>(magnitude, _mm256_set1_pd(f64::INFINITY));
            self.infinite = _mm256_add_pd(self.infinite, _mm256_andnot_pd(finite, one));
            if _mm256_movemask_pd(finite) == 0 {
                return;
            }
            self.finite = _mm256_add_pd(self.finite, _mm256_and_pd(finite, one));

            // The extremes (sorted heights let at most one move), then the
            // positions of the markers above x.
            let h = &mut self.heights;
            let n = &mut self.positions;
            let low = _mm256_and_pd(finite, _mm256_cmp_pd::<_CMP_LT_OQ>(x, h[0]));
            let high = _mm256_and_pd(finite, _mm256_cmp_pd::<_CMP_GE_OQ>(x, h[4]));
            h[0] = _mm256_blendv_pd(h[0], x, low);
            h[4] = _mm256_blendv_pd(h[4], x, high);
            for i in 1..4 {
                let under = _mm256_and_pd(finite, _mm256_cmp_pd::<_CMP_LT_OQ>(x, h[i]));
                n[i] = _mm256_add_pd(n[i], _mm256_and_pd(under, one));
            }
            n[4] = _mm256_add_pd(n[4], _mm256_and_pd(finite, one));

            // Nudge markers 1, 2, 3 in turn toward their desired ranks.
            let minus_one = _mm256_set1_pd(-1.0);
            let seeded = _mm256_sub_pd(self.finite, _mm256_set1_pd(5.0));
            for i in 1..4 {
                let desired = _mm256_add_pd(
                    consts.initial[i - 1],
                    _mm256_mul_pd(seeded, consts.increments[i - 1]),
                );
                let d = _mm256_sub_pd(desired, n[i]);
                let above = _mm256_sub_pd(n[i + 1], n[i]);
                let below = _mm256_sub_pd(n[i - 1], n[i]);
                let up = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GE_OQ>(d, one),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(above, one),
                );
                let down = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(d, minus_one),
                    _mm256_cmp_pd::<_CMP_LT_OQ>(below, minus_one),
                );
                let adjust = _mm256_and_pd(finite, _mm256_or_pd(up, down));
                if _mm256_movemask_pd(adjust) == 0 {
                    continue;
                }
                let d = _mm256_blendv_pd(minus_one, one, up);
                let (q, q_next, q_prev) = (h[i], h[i + 1], h[i - 1]);
                let (p, p_next, p_prev) = (n[i], n[i + 1], n[i - 1]);

                // EdgeSketch::parabolic, operation for operation.
                let right = _mm256_div_pd(
                    _mm256_mul_pd(
                        _mm256_add_pd(_mm256_sub_pd(p, p_prev), d),
                        _mm256_sub_pd(q_next, q),
                    ),
                    _mm256_sub_pd(p_next, p),
                );
                let left = _mm256_div_pd(
                    _mm256_mul_pd(
                        _mm256_sub_pd(_mm256_sub_pd(p_next, p), d),
                        _mm256_sub_pd(q, q_prev),
                    ),
                    _mm256_sub_pd(p, p_prev),
                );
                let parabolic = round_f32(_mm256_add_pd(
                    q,
                    _mm256_mul_pd(
                        _mm256_div_pd(d, _mm256_sub_pd(p_next, p_prev)),
                        _mm256_add_pd(right, left),
                    ),
                ));
                let inside = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LT_OQ>(q_prev, parabolic),
                    _mm256_cmp_pd::<_CMP_LT_OQ>(parabolic, q_next),
                );
                let mut height = parabolic;
                if _mm256_movemask_pd(_mm256_andnot_pd(inside, adjust)) != 0 {
                    // EdgeSketch::linear toward the neighbor d points at.
                    let q_to = _mm256_blendv_pd(q_prev, q_next, up);
                    let p_to = _mm256_blendv_pd(p_prev, p_next, up);
                    let linear = round_f32(_mm256_add_pd(
                        q,
                        _mm256_div_pd(
                            _mm256_mul_pd(d, _mm256_sub_pd(q_to, q)),
                            _mm256_sub_pd(p_to, p),
                        ),
                    ));
                    height = _mm256_blendv_pd(linear, parabolic, inside);
                }
                h[i] = _mm256_blendv_pd(q, height, adjust);
                n[i] = _mm256_add_pd(p, _mm256_and_pd(adjust, d));
            }
        }
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::EdgeSketch;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::percentile;
    use crate::P2Quantile;

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

    /// Sample `i` of an adversarial stream: ties, ±0, subnormals, values
    /// near the `f32` extremes and ∞ among uniform noise.
    fn adversarial(i: u64) -> f32 {
        let u = noise(i);
        match (u * 20.0) as u32 {
            0 => f32::INFINITY,
            1 => -0.0,
            2 => 0.0,
            3 => 1.0e-40,
            4 => 3.0e38,
            5 => -3.0e38,
            6..=8 => 7.0,
            _ => (u * 1000.0) as f32,
        }
    }

    #[test]
    fn heights_stay_sorted_through_the_update() {
        let streams: [fn(u64) -> f32; 2] = [|i| (noise(i) * 1000.0) as f32, adversarial];
        for p in [0.0, 50.0, 90.0, 100.0] {
            let params = SketchParams::new(p);
            for stream in streams {
                let mut s = EdgeSketch::new();
                for i in 0..3000 {
                    s.observe(stream(i), &params);
                    if s.finite() >= 5 {
                        let h = s.heights;
                        assert!(
                            h.windows(2).all(|w| w[0] <= w[1]),
                            "p{p}: heights out of order after sample {i}: {h:?}"
                        );
                    }
                }
            }
        }
    }

    /// The AVX2 kernel, called directly wherever the CPU has AVX2, folds
    /// in registers and equals the scalar update bit for bit: dispatch
    /// cannot fall back to scalar unnoticed.
    #[test]
    fn avx2_kernel_folds_in_registers_like_the_scalar_update() {
        use serde::bin::Encode;

        #[cfg(target_arch = "x86_64")]
        let has_avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has_avx2 = false;
        assert_eq!(avx2_kernel().is_some(), has_avx2);
        let Some(kernel) = avx2_kernel() else {
            return;
        };
        // 4 groups and a remainder of 3 edges; three 9-row batches.
        let m = 19;
        let batches: Vec<Vec<Vec<f32>>> = (0..3u64)
            .map(|b| {
                (0..9u64)
                    .map(|r| (0..m).map(|i| adversarial((b * 9 + r) * 64 + i)).collect())
                    .collect()
            })
            .collect();
        for p in [0.0, 50.0, 90.0, 100.0] {
            let params = SketchParams::new(p);
            let mut scalar = vec![EdgeSketch::new(); m as usize];
            let mut vector = scalar.clone();
            let mut folded = 0;
            for batch in &batches {
                let rows: Vec<&[f32]> = batch.iter().map(Vec::as_slice).collect();
                observe_rows_scalar(&mut scalar, &rows, &params);
                folded += kernel(&mut vector, &rows, &params);
            }
            assert!(folded > 0, "p{p}: no row was folded in registers");
            for (i, (a, b)) in scalar.iter().zip(&vector).enumerate() {
                assert_eq!(a.to_bytes(), b.to_bytes(), "p{p}, edge {i}");
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
