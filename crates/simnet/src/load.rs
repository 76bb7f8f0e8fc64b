//! Diurnal background-load profiles for path segments.
//!
//! The paper's central phenomenon is *time-of-day congestion*: throughput
//! to some ISPs collapses during local peak hours (the FCC defines peak as
//! 7–11 pm local, §4.2), on some days more than others. This module turns
//! a segment's [`CongestionClass`] into a deterministic utilization signal
//! `u(t) ∈ [0, ~1.2]`:
//!
//! * a **base** level,
//! * a **diurnal bump** anchored to the segment's local time (evening for
//!   eyeball aggregation, working-day for the Cox-style links),
//! * a **day-quality factor** — some days the peak pushes past capacity,
//!   other days it stays shy of it (this produces the paper's "more than
//!   10% of days had a congestion event" statistics), and
//! * hour-level **noise**.
//!
//! All randomness is stable hashing of `(model seed, segment load key,
//! time bucket)` — two evaluations of the same instant always agree, and
//! re-running the campaign reproduces the exact series.

use crate::routing::{load_key, Segment};
use crate::time::SimTime;
use crate::topology::CongestionClass;

/// Deterministic load model over path segments.
#[derive(Debug, Clone, Copy)]
pub struct LoadModel {
    seed: u64,
}

/// Uniform `[0,1)` from a hash.
fn unit(seed: u64, key: u64, bucket: u64) -> f64 {
    let h = load_key(b"load", seed ^ key, bucket);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Gaussian-ish bump `exp(-(Δh)²/2σ²)` on the 24 h circle.
fn circular_bump(local_hour: f64, center: f64, sigma: f64) -> f64 {
    let mut d = (local_hour - center).abs();
    if d > 12.0 {
        d = 24.0 - d;
    }
    (-0.5 * (d / sigma).powi(2)).exp()
}

/// The time-and-place-dependent inputs of a utilization evaluation:
/// everything [`LoadModel::utilization`] derives from `(t, utc offset)`
/// alone. Most segments of a path share a UTC offset, so a path
/// evaluation can compute one basis per distinct offset instead of two
/// `exp` bumps per segment (see `PerfModel::eval`).
#[derive(Debug, Clone, Copy)]
pub struct DiurnalBasis {
    /// Local calendar day at the segment (for the day-quality draw).
    pub local_day: u64,
    /// UTC hour bucket (for hour noise).
    pub hour_bucket: u64,
    /// Whether `t` falls on a weekend.
    pub weekend: bool,
    /// Evening bump `circular_bump(local, 20.5, 2.3)`.
    pub evening: f64,
    /// Daytime bump `circular_bump(local, 13.0, 3.6)`.
    pub daytime: f64,
}

impl DiurnalBasis {
    /// Computes the basis for instant `t` at a local UTC offset.
    pub fn at(t: SimTime, utc_offset_hours: i32) -> Self {
        let local = t.local_hour(utc_offset_hours);
        Self {
            local_day: t.local_day(utc_offset_hours) as u64,
            hour_bucket: t.hour_index(),
            weekend: t.is_weekend(),
            evening: circular_bump(local, 20.5, 2.3),
            daytime: circular_bump(local, 13.0, 3.6),
        }
    }
}

impl LoadModel {
    /// Creates a load model with its own seed (independent of the
    /// topology seed so load can be re-rolled on a fixed topology).
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The seed in use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Background utilization of `segment` at time `t`, given the
    /// segment's local UTC offset in hours.
    ///
    /// Values may exceed 1.0 — offered load beyond capacity — which the
    /// perf model translates into heavy loss and queueing.
    pub fn utilization(&self, segment: &Segment, utc_offset_hours: i32, t: SimTime) -> f64 {
        self.utilization_with(
            segment.load_key,
            segment.congestion,
            &DiurnalBasis::at(t, utc_offset_hours),
        )
    }

    /// [`Self::utilization`] against a precomputed [`DiurnalBasis`]:
    /// bit-identical (the basis carries exactly the values the inline
    /// computation produced), but lets a path evaluation share the two
    /// `exp` bumps across all segments with the same UTC offset.
    pub fn utilization_with(
        &self,
        seg_load_key: u64,
        congestion: CongestionClass,
        basis: &DiurnalBasis,
    ) -> f64 {
        // Day quality: uniform in [0.45, 1.0]; high values are "bad days"
        // where the peak exceeds capacity.
        let dayf = 0.45 + 0.58 * unit(self.seed, seg_load_key, basis.local_day.wrapping_mul(3));
        // Hour noise in [-1, 1].
        let noise =
            2.0 * unit(
                self.seed,
                seg_load_key,
                basis.hour_bucket.wrapping_mul(7) + 1,
            ) - 1.0;
        // Weekends shift load: evening peak a little higher, daytime
        // noticeably higher (people home all day — the pandemic pattern).
        let weekend = basis.weekend;

        let evening = basis.evening;
        let daytime = basis.daytime;

        let u = match congestion {
            CongestionClass::Clean => 0.28 + 0.10 * evening + 0.03 * noise,
            CongestionClass::Mild => {
                let peak = if weekend { 0.30 } else { 0.26 };
                0.44 + peak * evening * dayf + 0.05 * noise
            }
            CongestionClass::PeakCongested => {
                let peak = if weekend { 0.64 } else { 0.60 };
                0.52 + peak * evening * dayf + 0.015 * daytime + 0.06 * noise
            }
            CongestionClass::DaytimeCongested => {
                // The Cox pattern: congested through the working day,
                // 10 am – 4 pm, worse on weekdays; the paper saw its
                // packet loss climb from 3% to over 50% in peak hours.
                let peak = if weekend { 0.52 } else { 0.64 };
                0.55 + peak * daytime * dayf + 0.10 * evening + 0.05 * noise
            }
            CongestionClass::AllDayCongested => 0.88 + 0.10 * evening * dayf + 0.05 * noise,
        };
        u.clamp(0.0, 1.25)
    }

    /// Upper bound on [`Self::utilization_with`] for a congestion class,
    /// over every seed, load key and instant: the class's formula above
    /// with each input at its ceiling (`evening`, `daytime` and `noise`
    /// at most 1, `dayf` at most `0.45 + 0.58`, the weekend peak), summed
    /// in the same order, then clamped. IEEE rounding is monotone, so no
    /// evaluation can round above it. `Clean` peaks at 0.41, below the perf model's
    /// queue onset, which is what lets `PerfModel::eval_queue_ms` skip
    /// its segments.
    pub fn peak_utilization(congestion: CongestionClass) -> f64 {
        const DAYF: f64 = 0.45 + 0.58;
        let u: f64 = match congestion {
            CongestionClass::Clean => 0.28 + 0.10 + 0.03,
            CongestionClass::Mild => 0.44 + 0.30 * DAYF + 0.05,
            CongestionClass::PeakCongested => 0.52 + 0.64 * DAYF + 0.015 + 0.06,
            CongestionClass::DaytimeCongested => 0.55 + 0.64 * DAYF + 0.10 + 0.05,
            CongestionClass::AllDayCongested => 0.88 + 0.10 * DAYF + 0.05,
        };
        u.min(1.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::CityId;
    use crate::routing::SegmentKind;
    use crate::time::HOUR;
    use crate::topology::CongestionClass;

    fn seg(class: CongestionClass, key: u64) -> Segment {
        Segment {
            kind: SegmentKind::ServerAccess,
            capacity_gbps: 10.0,
            congestion: class,
            city: CityId(0),
            load_key: key,
        }
    }

    #[test]
    fn deterministic() {
        let m = LoadModel::new(1);
        let s = seg(CongestionClass::PeakCongested, 42);
        let t = SimTime::from_day_hour(10, 20);
        assert_eq!(m.utilization(&s, -8, t), m.utilization(&s, -8, t));
    }

    #[test]
    fn different_seeds_change_noise() {
        let s = seg(CongestionClass::PeakCongested, 42);
        let t = SimTime::from_day_hour(10, 20);
        let a = LoadModel::new(1).utilization(&s, -8, t);
        let b = LoadModel::new(2).utilization(&s, -8, t);
        assert_ne!(a, b);
    }

    #[test]
    fn clean_segments_never_approach_capacity() {
        let m = LoadModel::new(7);
        let s = seg(CongestionClass::Clean, 9);
        for day in 0..30 {
            for hour in 0..24 {
                let u = m.utilization(&s, -5, SimTime::from_day_hour(day, hour));
                assert!(u < 0.6, "clean u = {u}");
            }
        }
    }

    #[test]
    fn peak_congested_exceeds_capacity_on_some_evenings() {
        let m = LoadModel::new(7);
        let s = seg(CongestionClass::PeakCongested, 1234);
        let mut over = 0;
        let mut evenings = 0;
        for day in 0..60 {
            // 8:30 pm local at offset -8 is 04:30 UTC next day.
            let t = SimTime(day * 86_400 + (20 * HOUR + 1800) + 8 * HOUR);
            let u = m.utilization(&s, -8, t);
            evenings += 1;
            if u > 1.0 {
                over += 1;
            }
        }
        assert!(over > 3, "{over}/{evenings} evenings over capacity");
        assert!(over < evenings, "not every evening should congest");
    }

    #[test]
    fn peak_congested_is_calm_at_dawn() {
        let m = LoadModel::new(7);
        let s = seg(CongestionClass::PeakCongested, 1234);
        for day in 0..30 {
            // 5 am local.
            let t = SimTime(day * 86_400 + 5 * HOUR + 8 * HOUR);
            let u = m.utilization(&s, -8, t);
            assert!(u < 0.75, "dawn u = {u}");
        }
    }

    #[test]
    fn daytime_class_peaks_midday_not_evening() {
        let m = LoadModel::new(3);
        let s = seg(CongestionClass::DaytimeCongested, 77);
        let mut midday_sum = 0.0;
        let mut dawn_sum = 0.0;
        for day in 0..40 {
            let midday = SimTime(day * 86_400 + 13 * 3600);
            let dawn = SimTime(day * 86_400 + 4 * 3600);
            midday_sum += m.utilization(&s, 0, midday);
            dawn_sum += m.utilization(&s, 0, dawn);
        }
        assert!(midday_sum > dawn_sum * 1.3);
    }

    #[test]
    fn all_day_class_is_high_around_the_clock() {
        let m = LoadModel::new(5);
        let s = seg(CongestionClass::AllDayCongested, 99);
        for hour in 0..24 {
            let u = m.utilization(&s, 0, SimTime::from_day_hour(2, hour));
            assert!(u > 0.8, "hour {hour}: u = {u}");
        }
    }

    #[test]
    fn local_time_anchoring_shifts_peak() {
        // The same instant is evening in LA but early morning in Mumbai;
        // a peak-congested segment should be far busier at the local peak.
        let m = LoadModel::new(11);
        let s = seg(CongestionClass::PeakCongested, 5);
        // 04:30 UTC = 20:30 in LA (−8) = 09:30 in Mumbai (+5).
        let mut la = 0.0;
        let mut mumbai = 0.0;
        for day in 0..30 {
            let t = SimTime(day * 86_400 + 4 * 3600 + 1800);
            la += m.utilization(&s, -8, t);
            mumbai += m.utilization(&s, 5, t);
        }
        assert!(la > mumbai * 1.2, "la {la} mumbai {mumbai}");
    }

    #[test]
    fn utilization_always_in_bounds() {
        let m = LoadModel::new(13);
        for (i, class) in [
            CongestionClass::Clean,
            CongestionClass::Mild,
            CongestionClass::PeakCongested,
            CongestionClass::DaytimeCongested,
            CongestionClass::AllDayCongested,
        ]
        .iter()
        .enumerate()
        {
            let s = seg(*class, i as u64);
            for day in 0..10 {
                for hour in 0..24 {
                    let u = m.utilization(&s, -6, SimTime::from_day_hour(day, hour));
                    assert!((0.0..=1.25).contains(&u));
                }
            }
        }
    }

    #[test]
    fn utilization_never_exceeds_the_class_peak() {
        // `Clean` must stay below the queue onset for the idle-segment
        // skip in `PerfModel::eval_queue_ms` to be exact.
        assert!(LoadModel::peak_utilization(CongestionClass::Clean) < crate::perf::QUEUE_ONSET);
        let classes = [
            CongestionClass::Clean,
            CongestionClass::Mild,
            CongestionClass::PeakCongested,
            CongestionClass::DaytimeCongested,
            CongestionClass::AllDayCongested,
        ];
        let m = LoadModel::new(0x5eed);
        let mut clean_max = 0.0f64;
        for key in 0..40u64 {
            let key = load_key(b"peak", key, 0);
            for day in 0..60 {
                for hour in 0..24 {
                    let t = SimTime::from_day_hour(day, hour);
                    for offset in [-10, -8, -5, 0, 1, 5, 9, 10] {
                        let basis = DiurnalBasis::at(t, offset);
                        for class in classes {
                            let u = m.utilization_with(key, class, &basis);
                            assert!(
                                u <= LoadModel::peak_utilization(class),
                                "{class:?} u = {u} at key {key}, day {day}, hour {hour}"
                            );
                            if class == CongestionClass::Clean {
                                clean_max = clean_max.max(u);
                            }
                        }
                    }
                }
            }
        }
        // The sweep reaches close to the stated Clean peak, so the bound
        // is tight rather than vacuous.
        assert!(clean_max > 0.40, "clean max {clean_max}");
    }

    #[test]
    fn circular_bump_wraps_midnight() {
        assert!(circular_bump(23.5, 0.5, 2.0) > 0.8);
        assert!(circular_bump(12.0, 0.5, 2.0) < 0.01);
    }
}
