//! Elbow-point detection on monotone curves.
//!
//! §3.3 of the paper: "We applies the elbow method to locate a cut-off
//! point that would label a reasonable portion (<30%) of VM-server days
//! (s-days) and hours (s-hours) as congested by varying H." The authors
//! sweep the variability threshold `H` from 0 to 1, look at the fraction of
//! s-days labelled congested, and pick the knee of that curve (H = 0.5).
//!
//! We implement the standard maximum-distance-to-chord method (the core of
//! the "Kneedle" algorithm): normalise the curve to the unit square, draw
//! the chord between the first and last points, and return the index whose
//! perpendicular distance to the chord is largest.

/// Returns the index of the elbow (knee) of the curve `(xs[i], ys[i])`.
///
/// The curve is expected to be sampled on increasing `xs`. Returns `None`
/// when fewer than three points are given, when lengths differ, or when the
/// curve is completely flat in either axis (no elbow exists).
pub fn elbow_index(xs: &[f64], ys: &[f64]) -> Option<usize> {
    if xs.len() != ys.len() || xs.len() < 3 {
        return None;
    }
    let (x0, xn) = (xs[0], xs[xs.len() - 1]);
    let (y0, yn) = (ys[0], ys[ys.len() - 1]);
    let dx = xn - x0;
    let dy = yn - y0;
    if dx == 0.0 || dy == 0.0 {
        return None;
    }

    // Normalise into the unit square so the chord distance is scale-free.
    let mut best = (0.0_f64, None);
    for i in 1..xs.len() - 1 {
        let u = (xs[i] - x0) / dx;
        let v = (ys[i] - y0) / dy;
        // Perpendicular distance from (u, v) to the chord (0,0)-(1,1) is
        // |u - v| / sqrt(2); the constant factor does not affect argmax.
        let d = (u - v).abs();
        if d > best.0 {
            best = (d, Some(i));
        }
    }
    best.1
}

/// Convenience wrapper: sweep a labelling function over thresholds and
/// return `(threshold, fraction)` pairs plus the detected elbow threshold.
///
/// `fraction_at` maps a threshold to the fraction of items labelled
/// positive at that threshold; the paper's use is
/// "fraction of s-days with V(s,d) > H".
pub fn threshold_sweep<F>(thresholds: &[f64], mut fraction_at: F) -> (Vec<(f64, f64)>, Option<f64>)
where
    F: FnMut(f64) -> f64,
{
    let curve: Vec<(f64, f64)> = thresholds.iter().map(|&h| (h, fraction_at(h))).collect();
    let xs: Vec<f64> = curve.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = curve.iter().map(|p| p.1).collect();
    let elbow = elbow_index(&xs, &ys).map(|i| xs[i]);
    (curve, elbow)
}

/// Incremental threshold sweep: the online counterpart of
/// [`threshold_sweep`] over the paper's `V(s,d)` values.
///
/// Maintains, for every sweep threshold `h_k = k / steps`, the exact
/// count of observed values with `v > h_k` — a cumulative histogram of
/// the variability distribution keyed by the sweep grid. Adding an
/// observation is O(steps) in the worst case (and exits early once the
/// thresholds exceed the value), which in the streaming engine happens
/// once per *series-day*, not per point; querying the elbow is
/// O(steps). The curve it produces is identical to rebuilding
/// [`threshold_sweep`] over the full value set, because each counter
/// applies the very same strict `v > h` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingElbow {
    /// `above[k]` = number of values `v` with `v > k / steps`.
    above: Vec<u64>,
    total: u64,
}

impl StreamingElbow {
    /// A sweep over `steps + 1` thresholds `0/steps ..= steps/steps`.
    ///
    /// # Panics
    /// Panics when `steps < 2` (an elbow needs at least 3 curve points).
    pub fn new(steps: usize) -> Self {
        assert!(steps >= 2, "elbow sweep needs at least 3 thresholds");
        Self {
            above: vec![0; steps + 1],
            total: 0,
        }
    }

    /// Number of sweep intervals (`thresholds() - 1`).
    pub fn steps(&self) -> usize {
        self.above.len() - 1
    }

    /// Records one observed value.
    pub fn add(&mut self, v: f64) {
        self.total += 1;
        let steps = self.steps();
        for (k, slot) in self.above.iter_mut().enumerate() {
            if v > k as f64 / steps as f64 {
                *slot += 1;
            } else {
                // Thresholds increase with k, so no later one can pass.
                break;
            }
        }
    }

    /// Observations recorded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact fraction of observations strictly above threshold index `k`.
    pub fn fraction_above(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.above[k] as f64 / self.total as f64
    }

    /// The `(threshold, fraction)` curve, as [`threshold_sweep`] returns.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let steps = self.steps();
        (0..=steps)
            .map(|k| (k as f64 / steps as f64, self.fraction_above(k)))
            .collect()
    }

    /// The current elbow threshold, when one exists.
    pub fn elbow(&self) -> Option<f64> {
        let curve = self.curve();
        let xs: Vec<f64> = curve.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = curve.iter().map(|p| p.1).collect();
        elbow_index(&xs, &ys).map(|i| xs[i])
    }

    /// Raw per-threshold counts (for snapshots).
    pub fn counts(&self) -> &[u64] {
        &self.above
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_short_or_mismatched() {
        assert_eq!(elbow_index(&[0.0, 1.0], &[1.0, 0.0]), None);
        assert_eq!(elbow_index(&[0.0, 0.5, 1.0], &[1.0, 0.0]), None);
    }

    #[test]
    fn flat_curve_has_no_elbow() {
        assert_eq!(elbow_index(&[0.0, 0.5, 1.0], &[1.0, 1.0, 1.0]), None);
        assert_eq!(elbow_index(&[1.0, 1.0, 1.0], &[0.0, 0.5, 1.0]), None);
    }

    #[test]
    fn sharp_knee_is_found() {
        // y stays ~1 until x = 0.5 then collapses: elbow at the drop.
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x < 0.5 { 1.0 - 0.05 * x } else { 0.5 - x })
            .collect();
        let idx = elbow_index(&xs, &ys).unwrap();
        assert!((4..=6).contains(&idx), "elbow at {idx} (x = {})", xs[idx]);
    }

    #[test]
    fn exponential_decay_knee() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (-8.0 * x).exp()).collect();
        let idx = elbow_index(&xs, &ys).unwrap();
        // Analytic knee of e^(-8x) against the chord is near x = ln(8)/8 ≈ 0.26.
        assert!((0.1..0.45).contains(&xs[idx]), "x = {}", xs[idx]);
    }

    #[test]
    fn straight_line_distance_is_tiny() {
        let xs: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        // A perfectly straight line still returns *an* index (ties broken by
        // first max) but every interior distance is ~0; the function's
        // contract is argmax, so we just require it not to panic.
        let _ = elbow_index(&xs, &ys);
    }

    #[test]
    fn sweep_reports_curve_and_elbow() {
        let thresholds: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        let (curve, elbow) = threshold_sweep(&thresholds, |h| (-6.0 * h).exp());
        assert_eq!(curve.len(), 21);
        let h = elbow.unwrap();
        assert!((0.1..0.6).contains(&h), "elbow h = {h}");
    }

    /// Values with a heavy low mode and a thin high tail; the streaming
    /// sweep must agree with the batch sweep on the whole curve and on
    /// the elbow, point for point.
    #[test]
    fn streaming_matches_batch_sweep() {
        let values: Vec<f64> = (0..400)
            .map(|i| {
                let x = i as f64 / 400.0;
                if i % 7 == 0 {
                    0.5 + x / 2.0
                } else {
                    x * 0.3
                }
            })
            .collect();
        let steps = 20usize;
        let mut online = StreamingElbow::new(steps);
        for &v in &values {
            online.add(v);
        }
        let thresholds: Vec<f64> = (0..=steps).map(|k| k as f64 / steps as f64).collect();
        let (batch_curve, batch_elbow) = threshold_sweep(&thresholds, |h| {
            values.iter().filter(|&&v| v > h).count() as f64 / values.len() as f64
        });
        assert_eq!(online.curve(), batch_curve);
        assert_eq!(online.elbow(), batch_elbow);
    }

    #[test]
    fn streaming_exact_edge_values() {
        // Values landing exactly on thresholds exercise the strict `>`.
        let mut e = StreamingElbow::new(4);
        for v in [0.0, 0.25, 0.5, 0.75, 1.0] {
            e.add(v);
        }
        // v > 0.0 for four of five; v > 0.25 for three; etc.
        assert_eq!(e.counts(), &[4, 3, 2, 1, 0]);
        assert_eq!(e.total(), 5);
    }

    #[test]
    fn empty_streaming_sweep_is_flat() {
        let e = StreamingElbow::new(10);
        assert_eq!(e.elbow(), None);
        assert!(e.curve().iter().all(|&(_, f)| f == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least 3 thresholds")]
    fn tiny_streaming_sweep_panics() {
        StreamingElbow::new(1);
    }
}
