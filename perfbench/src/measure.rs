//! Timing, sample statistics, fingerprints and the result record every
//! workload fills in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The benchmark's only wall-clock read.
pub fn now() -> Instant {
    // clasp-lint: allow(D002) -- benchmark timing: wall time is the measured output and never reaches the program under test
    Instant::now()
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = now();
    let out = f();
    (out, t.elapsed())
}

/// Wall-time samples of one repeated operation, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    /// Records one value already in seconds.
    pub fn push_secs(&mut self, s: f64) {
        self.0.push(s);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Linear-interpolation quantile (`q` in `[0, 1]`), in seconds.
    /// Panics on an empty set: every metric is fed before it is read.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of an empty sample set");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// Median, in seconds.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Median, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median() * 1e3
    }

    /// Sum of all samples, in seconds.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// FNV-1a, 64-bit: a stable fingerprint for pinned outputs.
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// workload seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The process's high-water resident set size, in MiB, from
/// `/proc/self/status` (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What one run reports: operation counts, correctness, metrics and
/// the workload-specific details behind the shared metric names.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (each timed call and each correctness check).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Failed-check descriptions, printed to stderr.
    pub failures: Vec<String>,
    /// Reported metrics: name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// The workload's named figures, printed on the detail line: the
    /// ones behind the reported metrics and those reported but not
    /// gated.
    pub detail: BTreeMap<String, f64>,
}

impl Outcome {
    /// Counts one operation, failing it with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// Counts `n` operations that cannot fail on their own (their
    /// outputs are checked separately).
    pub fn ran(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Sets a reported metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Sets a detail figure.
    pub fn detail(&mut self, name: &str, value: f64) {
        self.detail.insert(name.to_string(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push_secs(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn derived_seeds_differ_by_salt() {
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
    }
}
