//! Property-based tests of the measurement utilities.

use proptest::prelude::*;
use serde::bin::Encode;

use perigee_metrics::{
    mean, percentile, percentile_from_closest_ranks, percentile_lower_rank, percentile_mut,
    percentile_or_inf, percentile_or_inf_f32_mut, percentile_or_inf_mut, std_dev, DelayCurve,
    EdgeSketch, Histogram, P2Quantile, SketchParams, Summary,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Percentiles of a constant sample equal that constant.
    #[test]
    fn percentile_of_constant_sample(c in -1e9f64..1e9, n in 1usize..50, p in 0.0f64..100.0) {
        let v = vec![c; n];
        prop_assert_eq!(percentile(&v, p), Some(c));
    }

    /// Percentile is invariant under permutation.
    #[test]
    fn percentile_is_permutation_invariant(
        mut values in proptest::collection::vec(-1e6f64..1e6, 2..60),
        p in 0.0f64..100.0,
    ) {
        let a = percentile(&values, p);
        values.reverse();
        let b = percentile(&values, p);
        prop_assert_eq!(a, b);
    }

    /// Percentile scales linearly with the data.
    #[test]
    fn percentile_is_scale_equivariant(
        values in proptest::collection::vec(0.0f64..1e6, 1..50),
        p in 0.0f64..100.0,
        k in 0.1f64..10.0,
    ) {
        let scaled: Vec<f64> = values.iter().map(|v| v * k).collect();
        let a = percentile(&values, p).unwrap();
        let b = percentile(&scaled, p).unwrap();
        prop_assert!((b - a * k).abs() <= 1e-6 * (1.0 + b.abs()));
    }

    /// Mean lies within [min, max]; std_dev is non-negative.
    #[test]
    fn mean_and_std_bounds(values in proptest::collection::vec(-1e6f64..1e6, 2..60)) {
        let m = mean(&values).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        prop_assert!(std_dev(&values).unwrap() >= 0.0);
    }

    /// Summary fields are totally ordered min ≤ p25 ≤ median ≤ p75 ≤ p90 ≤ max.
    #[test]
    fn summary_is_ordered(values in proptest::collection::vec(-1e6f64..1e6, 1..60)) {
        let s = Summary::of(&values).unwrap();
        prop_assert!(s.min <= s.p25);
        prop_assert!(s.p25 <= s.median);
        prop_assert!(s.median <= s.p75);
        prop_assert!(s.p75 <= s.p90);
        prop_assert!(s.p90 <= s.max);
    }

    /// Histograms conserve sample counts and fractions sum to one.
    #[test]
    fn histogram_conserves_mass(
        values in proptest::collection::vec(-50.0f64..150.0, 1..200),
        bins in 1usize..30,
    ) {
        let mut h = Histogram::new(0.0, 100.0, bins);
        h.extend(values.iter().copied());
        prop_assert_eq!(h.count(), values.len() as u64);
        let total: f64 = h.fractions().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(h.fraction_below(100.0) <= 1.0);
    }

    /// Pointwise curve means commute with constant shifts.
    #[test]
    fn curve_mean_shift_equivariance(
        a in proptest::collection::vec(0.0f64..1e5, 1..40),
        shift in 0.0f64..1e4,
    ) {
        let shifted: Vec<f64> = a.iter().map(|v| v + shift).collect();
        let c1 = DelayCurve::from_values(a.clone());
        let c2 = DelayCurve::from_values(shifted);
        let m = DelayCurve::pointwise_mean(&[c1.clone(), c2]);
        for i in 0..c1.len() {
            prop_assert!((m.value_at(i) - (c1.value_at(i) + shift / 2.0)).abs() < 1e-6);
        }
    }

    /// improvement_over is antisymmetric-ish: if a beats b, b does not beat a.
    #[test]
    fn improvement_direction_is_consistent(
        (a, b) in (3usize..40).prop_flat_map(|n| (
            proptest::collection::vec(1.0f64..1e5, n),
            proptest::collection::vec(1.0f64..1e5, n),
        )),
    ) {
        let ca = DelayCurve::from_values(a);
        let cb = DelayCurve::from_values(b);
        let ab = ca.improvement_over(&cb);
        let ba = cb.improvement_over(&ca);
        if ab > 1e-9 {
            prop_assert!(ba < 1e-9);
        }
    }
}

/// A tie-prone, adversarial observation value: a small pool of exactly
/// repeated values (forcing heavy ties), subnormals, zero, negatives and
/// a continuous range — the streams a per-edge sketch actually sees are
/// full of repeated latencies, and subnormal deltas appear after the
/// per-row min subtraction.
fn adversarial_finite() -> impl Strategy<Value = f32> {
    (0u8..12, -1.0e3f32..1.0e3f32).prop_map(|(sel, r)| match sel {
        0..=2 => 1.0,
        3..=4 => 0.0,
        5 => -1.0,
        6 => 1.0e-40,                 // subnormal
        7 => f32::MIN_POSITIVE / 4.0, // subnormal
        8 => f32::MAX / 2.0,
        _ => r,
    })
}

/// A stream element: finite four times out of five, `+∞` (the "never
/// delivered" convention) otherwise.
fn adversarial_sample() -> impl Strategy<Value = f32> {
    (0u8..5, adversarial_finite()).prop_map(|(sel, x)| if sel == 0 { f32::INFINITY } else { x })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// While at most five finite samples have arrived the sketch is
    /// *exact*: its estimate equals the dense percentile of the same
    /// stream (in the stream's own `f32` representation), infinities
    /// included, in any arrival order.
    #[test]
    fn sketch_is_exact_through_five_finite_samples(
        finites in proptest::collection::vec(adversarial_finite(), 0..6),
        infs in 0usize..6,
        p in 0.0f64..=100.0,
    ) {
        // Interleave ∞s among the finite seeds — arrival order must not
        // matter while the sketch is still in its exact regime.
        let mut stream = Vec::new();
        for (i, &x) in finites.iter().enumerate() {
            stream.push(x);
            if i < infs {
                stream.push(f32::INFINITY);
            }
        }
        for _ in finites.len().min(infs)..infs {
            stream.push(f32::INFINITY);
        }
        let params = SketchParams::new(p);
        let mut s = EdgeSketch::new();
        for &x in &stream {
            s.observe(x, &params);
        }
        // The exact-regime contract: `+∞` when the requested rank lands
        // in the infinite tail, the exact percentile of the *finite*
        // sub-stream otherwise; with no ∞s at all this is the dense
        // percentile of the whole stream.
        let finite_f64: Vec<f64> = finites.iter().map(|&x| f64::from(x)).collect();
        let total = stream.len();
        let expected = if total == 0 {
            None
        } else {
            let rank = p / 100.0 * (total - 1) as f64;
            if infs > 0 && rank > finite_f64.len() as f64 - 1.0 {
                Some(f64::INFINITY)
            } else {
                percentile(&finite_f64, p)
            }
        };
        prop_assert_eq!(s.estimate(&params), expected);
        if infs == 0 {
            let dense: Vec<f64> = stream.iter().map(|&x| f64::from(x)).collect();
            prop_assert_eq!(s.estimate(&params), percentile(&dense, p));
        }
    }

    /// On arbitrary longer streams the sketch stays inside the finite
    /// envelope and lands in the infinite tail exactly when the dense
    /// percentile does — ties, subnormals and ∞ runs included.
    #[test]
    fn sketch_bounds_and_infinite_tail_agree_with_dense(
        stream in proptest::collection::vec(adversarial_sample(), 1..200),
        p in 0.0f64..=100.0,
    ) {
        let params = SketchParams::new(p);
        let mut s = EdgeSketch::new();
        for &x in &stream {
            s.observe(x, &params);
        }
        let dense_vals: Vec<f64> = stream.iter().map(|&x| f64::from(x)).collect();
        let dense = percentile_or_inf(&dense_vals, p);
        let est = s.estimate_or_inf(&params);
        prop_assert!(!est.is_nan());
        prop_assert_eq!(
            est.is_infinite(), dense.is_infinite(),
            "sketch {} vs dense {}", est, dense
        );
        if est.is_finite() {
            let lo = stream.iter().copied().filter(|x| x.is_finite())
                .fold(f32::INFINITY, f32::min) as f64;
            let hi = stream.iter().copied().filter(|x| x.is_finite())
                .fold(f32::NEG_INFINITY, f32::max) as f64;
            prop_assert!(est >= lo && est <= hi, "{est} outside [{lo}, {hi}]");
        }
    }

    /// Replaying the same stream yields a bit-identical sketch and a
    /// bit-identical estimate — the determinism the sharded store's
    /// merge step relies on.
    #[test]
    fn sketch_is_deterministic_under_replay(
        stream in proptest::collection::vec(adversarial_sample(), 0..120),
        p in 0.0f64..=100.0,
    ) {
        let params = SketchParams::new(p);
        let (mut a, mut b) = (EdgeSketch::new(), EdgeSketch::new());
        for &x in &stream {
            a.observe(x, &params);
        }
        for &x in &stream {
            b.observe(x, &params);
        }
        prop_assert_eq!(a, b);
        prop_assert_eq!(
            a.estimate_or_inf(&params).to_bits(),
            b.estimate_or_inf(&params).to_bits()
        );
    }

    /// A [`P2Quantile`] tracker lands in the infinite tail exactly when
    /// the dense percentile at its rank does, at each percentile of the
    /// lexicographic score tuple (p90, p95, p97.5, p100).
    #[test]
    fn p2_infinite_tails_agree_with_dense(
        stream in proptest::collection::vec(adversarial_sample(), 1..150),
    ) {
        let dense_vals: Vec<f64> = stream.iter().map(|&x| f64::from(x)).collect();
        for p in [90.0, 95.0, 97.5, 100.0] {
            let mut tracker = P2Quantile::new(p);
            for &v in &dense_vals {
                tracker.observe(v);
            }
            let est = tracker.estimate_or_inf();
            let dense = percentile_or_inf(&dense_vals, p);
            prop_assert!(!est.is_nan());
            prop_assert_eq!(
                est.is_infinite(), dense.is_infinite(),
                "p{}: tracker {} vs dense {}", p, est, dense
            );
        }
    }
}

/// One letter of a fold stream: both infinities, signed zeros,
/// subnormals, values near the `f32` extremes, or a continuous value.
fn fold_letter() -> impl Strategy<Value = f32> {
    (0u8..16, -1.0e3f32..1.0e3f32).prop_map(|(sel, r)| match sel {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        2 => 0.0,
        3 => -0.0,
        4 => 1.0e-40, // subnormal
        5 => 1.4e-45, // the least subnormal
        6 => 3.0e38,
        7 => -3.0e38,
        8 => f32::MAX,
        _ => r,
    })
}

/// `rows` fold rows over `m` edges. A row is constant one time in
/// four; otherwise half its entries come from `alphabet` (1–4 values, so
/// heavy ties) and half are free letters.
fn fold_rows(
    m: usize,
    rows: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Vec<Vec<f32>>> {
    (
        proptest::collection::vec(fold_letter(), 1..=4),
        proptest::collection::vec(
            (
                0u8..4,
                fold_letter(),
                proptest::collection::vec((0u8..4, fold_letter()), m),
            ),
            rows,
        ),
    )
        .prop_map(|(alphabet, rows)| {
            rows.into_iter()
                .map(|(shape, constant, cells)| {
                    cells
                        .into_iter()
                        .map(|(sel, letter)| match (shape, sel) {
                            (0, _) => constant,
                            (_, 0..=1) => alphabet[usize::from(sel) % alphabet.len()],
                            _ => letter,
                        })
                        .collect()
                })
                .collect()
        })
}

/// A fold case over 0–37 edges (every remainder mod 4): a per-edge
/// prefix of 0–7 samples that leaves sketches part-seeded, then two or
/// three batches of 0–12 rows.
#[allow(clippy::type_complexity)]
fn fold_case() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<Vec<Vec<f32>>>)> {
    (0usize..=37).prop_flat_map(|m| {
        (
            proptest::collection::vec(proptest::collection::vec(fold_letter(), 0..=7), m),
            proptest::collection::vec(fold_rows(m, 0..=12), 2..=3),
        )
    })
}

/// Asserts every seeded sketch keeps its marker heights sorted — the
/// condition under which the batch kernel's cell search equals the
/// scalar one.
fn assert_heights_sorted(sketches: &[EdgeSketch]) -> Result<(), TestCaseError> {
    for (i, s) in sketches.iter().enumerate() {
        let h = s.representatives();
        if s.finite() >= 5 {
            prop_assert!(
                h.windows(2).all(|w| w[0] <= w[1]),
                "edge {i}: heights out of order: {:?}",
                h
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `EdgeSketch::observe_rows` equals the nested `observe` loop bit
    /// for bit — on the vector path where the CPU has one, across
    /// seeding, remainder edges, ties, ±0, subnormals, near-overflow
    /// values and ∞ — and the oracle's heights stay sorted throughout.
    #[test]
    fn batch_fold_equals_nested_observe(
        (prefixes, batches) in fold_case(),
        random_p in 0.0f64..=100.0,
    ) {
        for p in [0.0, 50.0, 90.0, 100.0, random_p] {
            let params = SketchParams::new(p);
            let mut oracle = vec![EdgeSketch::new(); prefixes.len()];
            for (sketch, prefix) in oracle.iter_mut().zip(&prefixes) {
                for &x in prefix {
                    sketch.observe(x, &params);
                }
            }
            let mut batched = oracle.clone();
            for batch in &batches {
                for row in batch {
                    for (sketch, &x) in oracle.iter_mut().zip(row) {
                        sketch.observe(x, &params);
                    }
                    assert_heights_sorted(&oracle)?;
                }
                let rows: Vec<&[f32]> = batch.iter().map(Vec::as_slice).collect();
                EdgeSketch::observe_rows(&mut batched, &rows, &params);
                for (i, (a, b)) in oracle.iter().zip(&batched).enumerate() {
                    prop_assert_eq!(a.to_bytes(), b.to_bytes(), "p{}, edge {}", p, i);
                }
            }
        }
    }
}

/// Eight seeded sketches, for the NaN tests: two full vector groups.
fn seeded(m: usize, params: &SketchParams) -> Vec<EdgeSketch> {
    let mut sketches = vec![EdgeSketch::new(); m];
    for (i, s) in sketches.iter_mut().enumerate() {
        for k in 0..6 {
            s.observe((i * 7 + k) as f32, params);
        }
    }
    sketches
}

#[test]
#[should_panic(expected = "quantile input must not contain NaN")]
fn batch_fold_refuses_nan_in_a_vector_lane() {
    let params = SketchParams::new(90.0);
    let mut sketches = seeded(8, &params);
    let clean = [1.0f32; 8];
    let mut dirty = [2.0f32; 8];
    dirty[6] = f32::NAN;
    EdgeSketch::observe_rows(&mut sketches, &[&clean, &dirty, &clean], &params);
}

#[test]
#[should_panic(expected = "quantile input must not contain NaN")]
fn batch_fold_refuses_nan_in_the_remainder() {
    let params = SketchParams::new(90.0);
    let mut sketches = seeded(10, &params);
    let clean = [1.0f32; 10];
    let mut dirty = [2.0f32; 10];
    dirty[9] = f32::NAN;
    EdgeSketch::observe_rows(&mut sketches, &[&clean, &dirty], &params);
}

/// The sort-based percentile the selection kernel replaced, kept here as
/// its oracle: sort by `total_cmp`, then interpolate linearly between
/// the two closest ranks, `∞` when either rank is infinite.
fn sorted_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo_idx = rank.floor() as usize;
    let hi_idx = rank.ceil() as usize;
    let frac = rank - lo_idx as f64;
    let (lo, hi) = (sorted[lo_idx], sorted[hi_idx]);
    if frac == 0.0 || lo == hi {
        Some(lo)
    } else if lo.is_infinite() || hi.is_infinite() {
        Some(f64::INFINITY)
    } else {
        Some(lo + frac * (hi - lo))
    }
}

/// One letter of a kernel alphabet: signed zeros, both infinities,
/// subnormals, the extremes, or a continuous value.
fn kernel_letter() -> impl Strategy<Value = f32> {
    (0u8..14, -1.0e3f32..1.0e3f32).prop_map(|(sel, r)| match sel {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => 1.0e-40,  // subnormal
        5 => -1.0e-42, // subnormal
        6 => f32::MIN_POSITIVE / 2.0,
        7 => f32::MAX,
        8 => f32::MIN,
        _ => r,
    })
}

/// 1..=2000 samples drawn from an alphabet of 1..=8 letters, so most
/// samples repeat: ties at and around every rank.
fn kernel_samples() -> impl Strategy<Value = Vec<f32>> {
    (
        proptest::collection::vec(kernel_letter(), 1..=8),
        proptest::collection::vec(0usize..8, 1..=2000),
    )
        .prop_map(|(alphabet, picks)| {
            picks
                .iter()
                .map(|&i| alphabet[i % alphabet.len()])
                .collect()
        })
}

/// The percentiles each case checks: the scoring and reporting ones,
/// both ends, a random one, and one whose rank is a whole number.
fn kernel_ps(len: usize, random_p: f64, k: usize) -> [f64; 6] {
    let whole_rank = if len > 1 {
        100.0 * (k % len) as f64 / (len - 1) as f64
    } else {
        0.0
    };
    [0.0, 50.0, 90.0, 100.0, random_p, whole_rank.min(100.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The selection kernel returns exactly the sort-based percentile,
    /// bit for bit, through the `f64` entries and through the `f32`
    /// entry (which widens only the two order statistics it selects).
    #[test]
    fn selection_kernel_equals_the_sort_oracle(
        samples in kernel_samples(),
        random_p in 0.0f64..=100.0,
        k in 0usize..2000,
        wide_letter in 0u8..4,
    ) {
        // The f64 entries also see values no f32 holds.
        let wide: Vec<f64> = samples
            .iter()
            .enumerate()
            .map(|(i, &x)| match (i % 7, wide_letter) {
                (0, 0) => 5e-324, // the least f64 subnormal
                (0, 1) => -f64::MIN_POSITIVE / 3.0,
                (0, 2) => 1.0 + f64::EPSILON,
                _ => f64::from(x),
            })
            .collect();
        let narrow_wide: Vec<f64> = samples.iter().map(|&x| f64::from(x)).collect();
        for p in kernel_ps(samples.len(), random_p, k) {
            let oracle = sorted_percentile(&wide, p).unwrap();
            let got = percentile_mut(&mut wide.clone(), p).unwrap();
            prop_assert_eq!(got.to_bits(), oracle.to_bits(), "f64 p{}: {} vs {}", p, got, oracle);
            let got = percentile_or_inf_mut(&mut wide.clone(), p);
            prop_assert_eq!(got.to_bits(), oracle.to_bits(), "f64 or-inf p{}", p);

            let oracle = sorted_percentile(&narrow_wide, p).unwrap();
            let got = percentile_or_inf_f32_mut(&mut samples.clone(), p);
            prop_assert_eq!(got.to_bits(), oracle.to_bits(), "f32 p{}: {} vs {}", p, got, oracle);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The order statistics at `percentile_lower_rank` and one rank up,
    /// found by a sort, give the kernel's percentile bit for bit through
    /// `percentile_from_closest_ranks`, and the percentile is never below
    /// the lower one: the two facts Subset scoring's skipping bound and
    /// its selection-free shortcut rest on.
    #[test]
    fn closest_ranks_rebuild_the_percentile_and_bound_it(
        samples in kernel_samples(),
        random_p in 0.0f64..=100.0,
        k in 0usize..2000,
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by(f32::total_cmp);
        for p in kernel_ps(samples.len(), random_p, k) {
            let r = percentile_lower_rank(samples.len(), p);
            let lo = f64::from(sorted[r]);
            let hi = f64::from(sorted[(r + 1).min(sorted.len() - 1)]);
            let got = percentile_from_closest_ranks(samples.len(), p, lo, hi);
            let want = percentile_or_inf_f32_mut(&mut samples.clone(), p);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "p{}: {} vs {}", p, got, want);
            prop_assert!(got >= lo, "p{}: {} below its lower rank {}", p, got, lo);
        }
    }
}

#[test]
#[should_panic(expected = "an empty multiset has no ranks")]
fn an_empty_multiset_has_no_lower_rank() {
    let _ = percentile_lower_rank(0, 90.0);
}

#[test]
fn empty_slices_follow_each_entrys_convention() {
    assert_eq!(percentile_mut(&mut [], 90.0), None);
    assert_eq!(percentile_or_inf_mut(&mut [], 90.0), f64::INFINITY);
    assert_eq!(percentile_or_inf_f32_mut(&mut [], 90.0), f64::INFINITY);
    assert_eq!(percentile_or_inf_f32_mut(&mut [], 0.0), f64::INFINITY);
}

#[test]
#[should_panic(expected = "percentile input must not contain NaN")]
fn f64_kernel_refuses_nan() {
    let _ = percentile_mut(&mut [1.0, f64::NAN, 3.0], 50.0);
}

#[test]
#[should_panic(expected = "percentile input must not contain NaN")]
fn f32_kernel_refuses_nan() {
    let _ = percentile_or_inf_f32_mut(&mut [1.0, 2.0, f32::NAN], 90.0);
}

#[test]
#[should_panic(expected = "percentile must be in [0, 100]")]
fn f64_kernel_refuses_p_above_100() {
    let _ = percentile_or_inf_mut(&mut [1.0, 2.0], 100.5);
}

#[test]
#[should_panic(expected = "percentile must be in [0, 100]")]
fn f32_kernel_refuses_p_below_0() {
    let _ = percentile_or_inf_f32_mut(&mut [1.0, 2.0], -0.5);
}

#[test]
#[should_panic(expected = "percentile must be in [0, 100]")]
fn f32_kernel_refuses_nan_p() {
    let _ = percentile_or_inf_f32_mut(&mut [1.0], f64::NAN);
}
