//! Quantile and percentile estimation.
//!
//! The paper reports 95th-percentile throughput and 5th-percentile latency
//! "instead of the maximum throughput and lowest latency, to mitigate
//! outliers" (§4.1). We use the linear-interpolation estimator (type 7 in
//! the Hyndman–Fan taxonomy, the R/NumPy default) so results are stable
//! under small sample-size changes.

use std::cmp::Ordering;

/// Returns the `q`-quantile (`0.0 ..= 1.0`) of `data` using linear
/// interpolation between order statistics.
///
/// ```
/// let sample = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(clasp_stats::quantile(&sample, 0.5), Some(25.0));
/// assert_eq!(clasp_stats::quantile(&[], 0.5), None);
/// ```
///
/// The input does not need to be sorted; a sorted copy is made internally.
/// Returns `None` for an empty slice or a `q` outside `[0, 1]`. NaN values
/// are rejected (returns `None`) rather than silently mis-sorted.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() || !(0.0..=1.0).contains(&q) || data.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = data.to_vec();
    // NaN was rejected above, so `partial_cmp` always answers.
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    Some(quantile_sorted(&sorted, q))
}

/// Like [`quantile`] but assumes `sorted` is already ascending and NaN-free.
///
/// This avoids the copy-and-sort when the caller computes many quantiles of
/// the same sample (as Fig. 4 does for every server-month).
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Returns the `p`-th percentile (`0.0 ..= 100.0`) of `data`.
pub fn percentile(data: &[f64], p: f64) -> Option<f64> {
    quantile(data, p / 100.0)
}

/// Returns the median of `data`.
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_yields_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn out_of_range_q_yields_none() {
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
    }

    #[test]
    fn nan_rejected() {
        assert_eq!(quantile(&[1.0, f64::NAN], 0.5), None);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile(&[42.0], 0.5), Some(42.0));
        assert_eq!(quantile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn median_of_odd_sample_is_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn extremes_are_min_and_max() {
        let data = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(9.0));
    }

    #[test]
    fn p95_of_uniform_grid() {
        // 0..=100 inclusive: p95 lands exactly on 95.
        let data: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 95.0), Some(95.0));
        assert_eq!(percentile(&data, 5.0), Some(5.0));
    }

    #[test]
    fn interpolation_between_order_statistics() {
        // Four points, q=0.25 → pos 0.75 → 10 + 0.75*(20-10) = 17.5.
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&data, 0.25), Some(17.5));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let data = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(quantile(&data, 0.25), Some(17.5));
    }

    #[test]
    fn finite_inputs_yield_finite_quantiles() {
        // NaN-free guarantee for the serve layer: whatever rank an
        // arbitrary client asks for, finite samples must produce a
        // finite estimate (including extreme magnitudes, where naive
        // `lo + (hi - lo) * frac` could overflow to infinity only if
        // the spread itself overflows — these stay in range).
        let data = [-1e300, -2.5, 0.0, 2.5, 1e300];
        for q in [0.0, 0.001, 0.25, 0.5, 0.75, 0.999, 1.0] {
            let v = quantile(&data, q).expect("finite input");
            assert!(v.is_finite(), "q={q} -> {v}");
        }
        for p in [0.0, 5.0, 50.0, 95.0, 100.0] {
            let v = percentile(&data, p).expect("finite input");
            assert!(v.is_finite(), "p={p} -> {v}");
        }
    }

    #[test]
    fn two_sample_interpolation_spans_the_range() {
        // The smallest non-degenerate sample: every rank interpolates
        // linearly between the two order statistics, never outside.
        let data = [10.0, 20.0];
        assert_eq!(quantile(&data, 0.0), Some(10.0));
        assert_eq!(quantile(&data, 0.5), Some(15.0));
        assert_eq!(quantile(&data, 1.0), Some(20.0));
        for q in [0.1, 0.3, 0.7, 0.9] {
            let v = quantile(&data, q).unwrap();
            assert!((10.0..=20.0).contains(&v), "q={q} -> {v}");
        }
    }

    #[test]
    fn equal_samples_are_a_fixed_point() {
        // Interpolation between equal order statistics must return the
        // value exactly (no `x + 0 * eps` drift).
        let data = [7.25; 9];
        for q in [0.0, 0.33, 0.5, 0.66, 1.0] {
            assert_eq!(quantile(&data, q), Some(7.25));
        }
    }

    #[test]
    fn quantile_sorted_matches_quantile() {
        let mut data = vec![9.0, 2.0, 7.0, 7.0, 1.0, 5.5];
        let q = quantile(&data, 0.9).unwrap();
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(quantile_sorted(&data, 0.9), q);
    }
}
