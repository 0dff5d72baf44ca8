//! Percentile computation.
//!
//! One definition is used across the whole reproduction — for neighbor
//! scores (§4.2's `90percentile(·)`), for the λv aggregation and for the
//! reported delay curves — so results are internally consistent: linear
//! interpolation between closest ranks (NumPy's default), extended to
//! handle the `t = ∞` "never delivered" observations that the paper's
//! observation sets contain.
//!
//! Every entry point finds its two closest ranks by O(n) selection rather
//! than a sort; the interpolation between them is the same.

use std::cmp::Ordering;

/// Returns the `p`-th percentile (`0 ≤ p ≤ 100`) of `values` using linear
/// interpolation between closest ranks, or `None` for an empty slice.
///
/// Infinite values are legal and sort last: a multiset whose `p`-th rank
/// touches an infinite observation yields `+∞`, which is exactly the
/// penalty the paper intends for neighbors that failed to deliver more
/// than `100 − p` percent of blocks.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
///
/// # Examples
///
/// ```
/// use perigee_metrics::percentile;
///
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&v, 0.0), Some(1.0));
/// assert_eq!(percentile(&v, 100.0), Some(4.0));
/// assert_eq!(percentile(&v, 50.0), Some(2.5));
/// assert_eq!(percentile(&[], 90.0), None);
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut scratch = values.to_vec();
    percentile_mut(&mut scratch, p)
}

/// Like [`percentile`] but reorders `values` in place instead of copying
/// — the allocation-free variant for hot scoring loops that own a
/// reusable scratch buffer. It finds the two order statistics it needs by
/// O(n) selection, not a sort, and returns the same value a sort gives.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
pub fn percentile_mut(values: &mut [f64], p: f64) -> Option<f64> {
    select_percentile(values, p)
}

/// Like [`percentile`] but maps the empty multiset to `+∞` — the scoring
/// convention: a neighbor with no observations is the worst possible.
pub fn percentile_or_inf(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(f64::INFINITY)
}

/// Like [`percentile_or_inf`] but reorders `values` in place by O(n)
/// selection — no allocation, and the same value a sort gives.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
pub fn percentile_or_inf_mut(values: &mut [f64], p: f64) -> f64 {
    select_percentile(values, p).unwrap_or(f64::INFINITY)
}

/// [`percentile_or_inf_mut`] over `f32` samples — the width the
/// observation store and the score histories keep. Only the two selected
/// order statistics are widened to `f64` for the interpolation. Widening
/// is exact and monotone, and under `total_cmp` an order statistic is a
/// unique bit pattern, so the result is bit-identical to widening every
/// sample first and calling [`percentile_or_inf_mut`].
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
pub fn percentile_or_inf_f32_mut(values: &mut [f32], p: f64) -> f64 {
    select_percentile(values, p).unwrap_or(f64::INFINITY)
}

/// The 0-based position, in ascending order, of the lower of the two
/// closest ranks the `p`-th percentile of `len` samples interpolates
/// between: `⌊p/100 · (len − 1)⌋`. Every percentile here is at least the
/// sample at this rank, so a caller that knows at most `r` samples lie at
/// or below some `x`, with `r ≤` this rank, knows the percentile exceeds
/// `x` without selecting anything.
///
/// # Panics
///
/// Panics if `len` is 0 (no order statistic exists) or `p` is outside
/// `[0, 100]`.
pub fn percentile_lower_rank(len: usize, p: f64) -> usize {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    assert!(len > 0, "an empty multiset has no ranks");
    rank(len, p).floor() as usize
}

/// The `p`-th percentile of `len` samples whose order statistics at the
/// two closest ranks are `lo` (at [`percentile_lower_rank`]) and `hi` (one
/// rank up; unread when the rank is whole). It ends in the interpolation
/// every percentile here ends in, so a caller that found the two order
/// statistics some other way gets the bit pattern
/// [`percentile_or_inf_f32_mut`] returns.
///
/// # Panics
///
/// Panics if `len` is 0 or `p` is outside `[0, 100]`.
pub fn percentile_from_closest_ranks(len: usize, p: f64, lo: f64, hi: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    assert!(len > 0, "an empty multiset has no ranks");
    interpolate(rank(len, p), lo, hi)
}

/// The fractional rank of the `p`-th percentile among `len ≥ 1` samples.
fn rank(len: usize, p: f64) -> f64 {
    p / 100.0 * (len - 1) as f64
}

/// Linear interpolation at `rank` between the order statistics `lo ≤ hi`
/// at its floor and ceiling.
fn interpolate(rank: f64, lo: f64, hi: f64) -> f64 {
    let frac = rank - rank.floor();
    if frac == 0.0 || lo == hi {
        lo
    } else if lo.is_infinite() || hi.is_infinite() {
        // Interpolating toward (or from) ∞ is ∞; avoid ∞ − ∞ = NaN.
        f64::INFINITY
    } else {
        lo + frac * (hi - lo)
    }
}

/// A float width the percentile kernel selects over.
trait Sample: Copy {
    fn is_nan(self) -> bool;
    fn total_cmp(a: &Self, b: &Self) -> Ordering;
    fn widen(self) -> f64;
}

impl Sample for f64 {
    fn is_nan(self) -> bool {
        self.is_nan()
    }
    fn total_cmp(a: &Self, b: &Self) -> Ordering {
        a.total_cmp(b)
    }
    fn widen(self) -> f64 {
        self
    }
}

impl Sample for f32 {
    fn is_nan(self) -> bool {
        self.is_nan()
    }
    fn total_cmp(a: &Self, b: &Self) -> Ordering {
        a.total_cmp(b)
    }
    fn widen(self) -> f64 {
        f64::from(self)
    }
}

/// The one percentile body: linear interpolation between the two closest
/// ranks, each found by selection. `select_nth_unstable_by` places the
/// lower rank and partitions everything at or above it to its right; the
/// upper rank (when it differs) is the minimum of that partition.
fn select_percentile<T: Sample>(values: &mut [T], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if values.is_empty() {
        return None;
    }
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "percentile input must not contain NaN"
    );
    let rank = rank(values.len(), p);
    let lo_idx = rank.floor() as usize;
    let hi_idx = rank.ceil() as usize;
    let (_, lo, above) = values.select_nth_unstable_by(lo_idx, T::total_cmp);
    let lo = *lo;
    let hi = if hi_idx == lo_idx {
        lo
    } else {
        above
            .iter()
            .copied()
            .min_by(T::total_cmp)
            .expect("the upper rank lies above the lower one")
    };
    Some(interpolate(rank, lo.widen(), hi.widen()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 100.0), Some(7.0));
    }

    #[test]
    fn interpolates_linearly() {
        let v = [10.0, 20.0];
        assert_eq!(percentile(&v, 25.0), Some(12.5));
        assert_eq!(percentile(&v, 75.0), Some(17.5));
    }

    #[test]
    fn unsorted_input_is_fine() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
    }

    #[test]
    fn ninety_of_hundred_uniform() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let p90 = percentile(&v, 90.0).unwrap();
        assert!((p90 - 89.1).abs() < 1e-9);
    }

    #[test]
    fn infinity_dominates_when_rank_touches_it() {
        // 15% infinite: the 90th percentile lands in the infinite tail.
        let mut v: Vec<f64> = (0..85).map(|i| i as f64).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 15));
        assert_eq!(percentile(&v, 90.0), Some(f64::INFINITY));
        // ...but the median is unaffected.
        assert!(percentile(&v, 50.0).unwrap().is_finite());
    }

    #[test]
    fn five_percent_infinite_does_not_poison_p90() {
        let mut v: Vec<f64> = (0..95).map(|i| i as f64).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 5));
        assert!(percentile(&v, 90.0).unwrap().is_finite());
    }

    #[test]
    fn all_infinite_gives_infinite() {
        let v = [f64::INFINITY; 4];
        assert_eq!(percentile(&v, 50.0), Some(f64::INFINITY));
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(percentile_or_inf(&[], 90.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn out_of_range_percentile_panics() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_input_panics() {
        let _ = percentile(&[f64::NAN], 50.0);
    }

    #[test]
    fn monotone_in_p() {
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut last = f64::NEG_INFINITY;
        for p in 0..=100 {
            let x = percentile(&v, p as f64).unwrap();
            assert!(x >= last);
            last = x;
        }
    }
}
