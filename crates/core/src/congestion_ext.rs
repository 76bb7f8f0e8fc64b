//! Extended congestion detection — the paper's §5 future work, built.
//!
//! "Finally, we will improve our congestion detection method using time
//! series analysis approaches, such as autocorrelation \[11\] and hidden
//! Markov model \[28\], to capture changes and patterns in throughput and
//! latency data to detect different types of congestion events."
//!
//! Two detectors over the same campaign series the threshold method
//! (§3.3) consumes:
//!
//! * **Autocorrelation**: a series whose hourly throughput has a strong
//!   ACF peak at lag 24 exhibits *recurrent, diurnal* congestion — the
//!   kind Fig. 6 visualises — as opposed to one-off drops;
//! * **Gaussian HMM**: a two-state model (high-throughput /
//!   low-throughput) trained per series with Baum–Welch; Viterbi-decoded
//!   low-state hours are congestion events with hysteresis, which the
//!   memoryless `V_H > H` rule lacks.
//!
//! [`compare_methods`] quantifies how the two relate to the paper's
//! threshold labels on identical data.

use crate::congestion::{CongestionAnalysis, SeriesInfo};
use clasp_stats::autocorr::{diurnal_signal, DiurnalSignal};
use clasp_stats::hmm::GaussianHmm;

/// Per-series result of the HMM detector.
#[derive(Debug, Clone)]
pub struct HmmSeries {
    /// Series key.
    pub series: String,
    /// Hours Viterbi assigns to the low-throughput state.
    pub congested_hours: usize,
    /// Total hours in the series.
    pub total_hours: usize,
    /// Separation between the state means, relative to the high mean
    /// (≈ the depth of congestion episodes).
    pub mean_separation: f64,
    /// Whether the model found two genuinely distinct states.
    pub bimodal: bool,
}

/// Minimum relative separation between state means for a series to count
/// as having a real congested state (below this, the "two states" are
/// noise split in half).
pub const MIN_SEPARATION: f64 = 0.35;

/// Runs the HMM detector over every series of an analysis.
pub fn hmm_detect(analysis: &CongestionAnalysis) -> Vec<HmmSeries> {
    let mut out = Vec::new();
    for (info, values) in series_values(analysis) {
        let Some((model, _)) = GaussianHmm::train(&values, 25, 1e-3) else {
            continue;
        };
        let low = model.low_state() as usize;
        let high = 1 - low;
        let separation = if model.mean[high] > 0.0 {
            (model.mean[high] - model.mean[low]) / model.mean[high]
        } else {
            0.0
        };
        let bimodal = separation > MIN_SEPARATION;
        let congested_hours = if bimodal {
            model
                .viterbi(&values)
                .into_iter()
                .filter(|s| *s as usize == low)
                .count()
        } else {
            0
        };
        out.push(HmmSeries {
            series: info.key.clone(),
            congested_hours,
            total_hours: values.len(),
            mean_separation: separation,
            bimodal,
        });
    }
    out
}

/// Per-series autocorrelation verdicts; series shorter than ~3 days are
/// skipped (no stable lag-24 estimate).
pub fn diurnal_detect(analysis: &CongestionAnalysis) -> Vec<(String, DiurnalSignal)> {
    let mut out = Vec::new();
    for (info, values) in series_values(analysis) {
        if values.len() < 72 {
            continue;
        }
        if let Some(sig) = diurnal_signal(&values) {
            out.push((info.key.clone(), sig));
        }
    }
    out
}

/// Each series with its values in time order (empty when it has no
/// samples). `analysis.samples` is series-major and time-ordered, so one
/// series is one contiguous slice.
fn series_values(analysis: &CongestionAnalysis) -> impl Iterator<Item = (&SeriesInfo, Vec<f64>)> {
    let mut rest = analysis.samples.as_slice();
    analysis.series.iter().zip(0u32..).map(move |(info, idx)| {
        let (own, tail) = rest.split_at(rest.partition_point(|s| s.series_idx == idx));
        rest = tail;
        (info, own.iter().map(|s| s.value).collect())
    })
}

/// How the extended detectors relate to the paper's threshold method.
#[derive(Debug, Clone, Copy)]
pub struct MethodComparison {
    /// Series the threshold method labels congested (>10% of days with an
    /// event at `h`).
    pub threshold_congested: usize,
    /// Series the HMM finds bimodal with a real congested state.
    pub hmm_congested: usize,
    /// Series the ACF flags as diurnal.
    pub diurnal: usize,
    /// Series flagged by both threshold and HMM.
    pub threshold_and_hmm: usize,
    /// Jaccard overlap of the threshold and HMM label sets.
    pub jaccard: f64,
}

/// Compares the three detectors on one analysis.
pub fn compare_methods(analysis: &CongestionAnalysis, h: f64) -> MethodComparison {
    let threshold = analysis.congested_series(h, 0.10);
    let hmm = hmm_detect(analysis);
    let diurnal = diurnal_detect(analysis);

    let hmm_set: std::collections::BTreeSet<&str> = hmm
        .iter()
        .filter(|s| s.bimodal && s.congested_hours > 0)
        .map(|s| s.series.as_str())
        .collect();
    let thr_set: std::collections::BTreeSet<&str> = analysis
        .series
        .iter()
        .enumerate()
        .filter(|(i, _)| threshold[*i])
        .map(|(_, info)| info.key.as_str())
        .collect();
    let inter = thr_set.intersection(&hmm_set).count();
    let union = thr_set.union(&hmm_set).count();
    MethodComparison {
        threshold_congested: thr_set.len(),
        hmm_congested: hmm_set.len(),
        diurnal: diurnal.iter().filter(|(_, s)| s.is_diurnal).count(),
        threshold_and_hmm: inter,
        jaccard: if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::world::World;

    fn analysis() -> (World, CongestionAnalysis) {
        let world = World::tiny(501);
        let mut config = CampaignConfig::small(501);
        config.days = 8;
        config.topo_regions = vec![("us-west1".into(), 24)];
        config.diff_regions.clear();
        let res = Campaign::new(&world, config).runner().run().unwrap();
        let mut db = res.db;
        let a = CongestionAnalysis::build(
            &mut db,
            &world,
            "download",
            &[("method".into(), "topo".into())],
        );
        (world, a)
    }

    #[test]
    fn hmm_runs_over_every_series() {
        let (_, a) = analysis();
        let hmm = hmm_detect(&a);
        assert_eq!(hmm.len(), a.series.len());
        for s in &hmm {
            assert!(s.congested_hours <= s.total_hours);
            assert_eq!(s.total_hours, 8 * 24);
            assert!(s.mean_separation.is_finite());
        }
    }

    #[test]
    fn hmm_congested_series_are_ground_truth_congested() {
        let (world, a) = analysis();
        let hmm = hmm_detect(&a);
        let mut good = 0;
        let mut bad = 0;
        for (s, info) in hmm.iter().zip(&a.series) {
            if !s.bimodal || s.congested_hours == 0 {
                continue;
            }
            let srv = world.registry.by_id(&info.server).unwrap();
            match world.topo.as_node(srv.as_id).congestion {
                simnet::topology::CongestionClass::Clean => bad += 1,
                _ => good += 1,
            }
        }
        assert!(
            good >= bad,
            "HMM positives should mostly be truly congested ({good} vs {bad})"
        );
    }

    #[test]
    fn diurnal_detector_produces_verdicts() {
        let (_, a) = analysis();
        let verdicts = diurnal_detect(&a);
        assert_eq!(verdicts.len(), a.series.len());
        // Variability exists everywhere, but not every series is diurnal.
        let diurnal = verdicts.iter().filter(|(_, s)| s.is_diurnal).count();
        assert!(diurnal < verdicts.len());
    }

    #[test]
    fn method_comparison_is_consistent() {
        let (_, a) = analysis();
        let cmp = compare_methods(&a, 0.5);
        assert!(cmp.threshold_and_hmm <= cmp.threshold_congested);
        assert!(cmp.threshold_and_hmm <= cmp.hmm_congested);
        assert!((0.0..=1.0).contains(&cmp.jaccard));
    }
}
