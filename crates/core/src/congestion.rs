//! Congestion detection (§3.3) and congestion-event analysis (§4.2).
//!
//! The method, verbatim from the paper:
//!
//! * per VM–server pair `s` and day `d`, the **normalized peak-to-trough
//!   difference** `V(s,d) = (Tmax(s,d) − Tmin(s,d)) / Tmax(s,d)`;
//! * a threshold `H` chosen by the **elbow method** on the curve of
//!   "fraction of s-days with V(s,d) > H" (the paper lands on H = 0.5);
//! * per hourly sample, the **normalized intra-day difference**
//!   `V_H(s,t) = (Tmax(s,d) − T(s,t)) / Tmax(s,d)`; hours with
//!   `V_H(s,t) > H` are congestion events;
//! * per server, the **hourly congestion probability** = events in that
//!   local hour / measurements in that local hour (Fig. 6);
//! * a server is **congested** when more than 10 % of its days contain at
//!   least one congestion event (Fig. 8).
//!
//! Days and hours are reckoned in the *server's local time*, as §4.2 does
//! ("We converted the timezone to the location of the test servers to
//! better align with user activities").
//!
//! The per-day fold and the event tally are [`clasp_stats::dayfold`],
//! shared with the streaming engine and the serve `congestion` verb.

use crate::world::World;
use clasp_stats::elbow::threshold_sweep;
use clasp_stats::{DayWindow, HourTally};
use simnet::time::SimTime;
use tsdb::Db;

/// One (series, local-day) variability record.
#[derive(Debug, Clone)]
pub struct DayVariability {
    /// Series key (region, server, tier, method).
    pub series: String,
    /// Server id.
    pub server: String,
    /// Local day index.
    pub local_day: i64,
    /// `V(s,d)`.
    pub v: f64,
    /// Daily maximum throughput, Mbps.
    pub t_max: f64,
    /// Daily minimum throughput, Mbps.
    pub t_min: f64,
    /// Samples in the day.
    pub n: usize,
}

/// One hourly sample with its intra-day normalized difference.
#[derive(Debug, Clone)]
pub struct HourSample {
    /// Index into the analysis' series table.
    pub series_idx: u32,
    /// Sample time (seconds since epoch, UTC).
    pub time: u64,
    /// Local hour of day at the server, `0..24`.
    pub local_hour: u8,
    /// Local day index.
    pub local_day: i64,
    /// Measured value (throughput, Mbps).
    pub value: f64,
    /// `V_H(s,t)` relative to the local day's maximum.
    pub v_h: f64,
}

/// A labelled congestion event (`V_H(s,t) > H`).
#[derive(Debug, Clone)]
pub struct CongestionEvent {
    /// Series key.
    pub series: String,
    /// Server id.
    pub server: String,
    /// Event time (UTC seconds).
    pub time: u64,
    /// Local hour at the server.
    pub local_hour: u8,
    /// The normalized drop.
    pub v_h: f64,
}

/// Per-series metadata carried through the analysis.
#[derive(Debug, Clone)]
pub struct SeriesInfo {
    /// Canonical series key.
    pub key: String,
    /// Server id tag.
    pub server: String,
    /// Region tag.
    pub region: String,
    /// Tier tag.
    pub tier: String,
    /// Server-local UTC offset, hours.
    pub utc_offset: i32,
}

/// The full variability analysis over one field of the campaign database.
#[derive(Debug)]
pub struct CongestionAnalysis {
    /// Analyzed series.
    pub series: Vec<SeriesInfo>,
    /// Per-(series, local-day) variability.
    pub day_vars: Vec<DayVariability>,
    /// Every hourly sample with its `V_H`.
    pub samples: Vec<HourSample>,
}

impl CongestionAnalysis {
    /// Builds the analysis for `field` (usually `"download"` — the
    /// ingress direction the paper's Fig. 2 analyzes) over the series
    /// matching `filters`.
    pub fn build(db: &mut Db, world: &World, field: &str, filters: &[(String, String)]) -> Self {
        let mut series_infos = Vec::new();
        let mut day_vars = Vec::new();
        let matching = db.matching_series("speedtest", filters);
        // An upper bound, allocated once rather than grown by doubling.
        let mut samples = Vec::with_capacity(matching.iter().map(|s| s.len()).sum());

        for s in matching {
            let server = s.tags.get("server").cloned().unwrap_or_default();
            let region = s.tags.get("region").cloned().unwrap_or_default();
            let tier = s.tags.get("tier").cloned().unwrap_or_default();
            let key = tsdb::point::series_key(&s.measurement, &s.tags);
            let utc_offset = world
                .registry
                .by_id(&server)
                .map(|srv| world.topo.cities.get(srv.city).utc_offset_hours)
                .unwrap_or(0);
            let series_idx = u32::try_from(series_infos.len()).expect("series count fits u32");

            // Samples are time-ordered, so each local day is one run.
            let local_day = |t: u64| SimTime(t).local_day(utc_offset);
            for run in s
                .samples()
                .chunk_by(|a, b| local_day(a.0) == local_day(b.0))
            {
                let mut window = DayWindow::default();
                for (t, fields) in run {
                    if let Some(&v) = fields.get(field) {
                        window.push(*t, v);
                    }
                }
                let (Some(day), Some(&(t0, _))) = (window.seal(), run.first()) else {
                    continue;
                };
                let d = local_day(t0);
                day_vars.push(DayVariability {
                    series: key.clone(),
                    server: server.clone(),
                    local_day: d,
                    v: day.v,
                    t_max: day.t_max,
                    t_min: day.t_min,
                    n: day.n(),
                });
                for (t, value, v_h) in day.hours() {
                    samples.push(HourSample {
                        series_idx,
                        time: t,
                        local_hour: SimTime(t).local_hour(utc_offset) as u8,
                        local_day: d,
                        value,
                        v_h,
                    });
                }
            }
            series_infos.push(SeriesInfo {
                key,
                server,
                region,
                tier,
                utc_offset,
            });
        }

        Self {
            series: series_infos,
            day_vars,
            samples,
        }
    }

    /// Fraction of s-days with `V(s,d) > h` (Fig. 2a's y-axis).
    pub fn fraction_days_above(&self, h: f64) -> f64 {
        if self.day_vars.is_empty() {
            return 0.0;
        }
        self.day_vars.iter().filter(|d| d.v > h).count() as f64 / self.day_vars.len() as f64
    }

    /// Fraction of s-hours with `V_H(s,t) > h` (Fig. 2b's y-axis).
    pub fn fraction_hours_above(&self, h: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.v_h > h).count() as f64 / self.samples.len() as f64
    }

    /// Sweeps thresholds and locates the elbow (the paper's H).
    pub fn elbow_threshold(&self, steps: usize) -> (Vec<(f64, f64)>, Option<f64>) {
        let thresholds: Vec<f64> = (0..=steps).map(|i| i as f64 / steps as f64).collect();
        threshold_sweep(&thresholds, |h| self.fraction_days_above(h))
    }

    /// All congestion events at threshold `h`.
    pub fn events(&self, h: f64) -> Vec<CongestionEvent> {
        self.samples
            .iter()
            .filter(|s| s.v_h > h)
            .map(|s| {
                let info = &self.series[s.series_idx as usize];
                CongestionEvent {
                    series: info.key.clone(),
                    server: info.server.clone(),
                    time: s.time,
                    local_hour: s.local_hour,
                    v_h: s.v_h,
                }
            })
            .collect()
    }

    /// Per-series hourly congestion probability at threshold `h`:
    /// `[events/trials; 24]` in server-local hours (Fig. 6).
    pub fn hourly_probability(&self, h: f64) -> Vec<[f64; 24]> {
        self.tallies(h).iter().map(HourTally::probability).collect()
    }

    /// Total events per series at threshold `h` (for top-N ranking).
    pub fn events_per_series(&self, h: f64) -> Vec<u32> {
        self.tallies(h)
            .iter()
            .map(|t| t.events.iter().sum())
            .collect()
    }

    /// Servers labelled *congested*: more than `min_day_fraction` of
    /// their days contain at least one event at threshold `h` (the Fig. 8
    /// criterion, 10 %).
    pub fn congested_series(&self, h: f64, min_day_fraction: f64) -> Vec<bool> {
        self.tallies(h)
            .iter()
            .map(|t| t.congested(min_day_fraction))
            .collect()
    }

    /// Per-series event tally at threshold `h`. `samples` is series-major
    /// and day-ordered, so each (series, local day) is one run.
    fn tallies(&self, h: f64) -> Vec<HourTally> {
        let mut out = vec![HourTally::default(); self.series.len()];
        for run in self
            .samples
            .chunk_by(|a, b| (a.series_idx, a.local_day) == (b.series_idx, b.local_day))
        {
            let Some(tally) = run.first().and_then(|s| out.get_mut(s.series_idx as usize)) else {
                continue;
            };
            let mut had_event = false;
            for s in run {
                let event = s.v_h > h;
                tally.hour(s.local_hour, event);
                had_event |= event;
            }
            tally.day(had_event);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::world::World;

    fn analysis() -> (World, CongestionAnalysis) {
        let world = World::tiny(141);
        let res = Campaign::new(&world, CampaignConfig::small(141))
            .runner()
            .run()
            .unwrap();
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
    fn analysis_extracts_days_and_samples() {
        let (_, a) = analysis();
        assert!(!a.series.is_empty());
        assert!(!a.day_vars.is_empty());
        assert!(!a.samples.is_empty());
        // 12 servers × 4 days.
        assert_eq!(a.samples.len(), 12 * 4 * 24);
        for d in &a.day_vars {
            assert!((0.0..=1.0).contains(&d.v), "v = {}", d.v);
            assert!(d.t_max >= d.t_min);
        }
        for s in &a.samples {
            assert!((0.0..=1.0).contains(&s.v_h));
            assert!(s.local_hour < 24);
        }
    }

    #[test]
    fn fractions_decrease_with_threshold() {
        let (_, a) = analysis();
        let mut prev_d = f64::INFINITY;
        let mut prev_h = f64::INFINITY;
        for i in 0..=10 {
            let h = i as f64 / 10.0;
            let fd = a.fraction_days_above(h);
            let fh = a.fraction_hours_above(h);
            assert!(fd <= prev_d && fh <= prev_h);
            prev_d = fd;
            prev_h = fh;
        }
        assert_eq!(a.fraction_days_above(1.0), 0.0);
        assert!(a.fraction_hours_above(0.0) > 0.0);
    }

    #[test]
    fn events_match_fraction() {
        let (_, a) = analysis();
        let h = 0.5;
        let events = a.events(h);
        let expected = (a.fraction_hours_above(h) * a.samples.len() as f64).round() as usize;
        assert_eq!(events.len(), expected);
        for e in &events {
            assert!(e.v_h > h);
        }
    }

    #[test]
    fn hourly_probability_shapes() {
        let (_, a) = analysis();
        let probs = a.hourly_probability(0.3);
        assert_eq!(probs.len(), a.series.len());
        for p in &probs {
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn congested_series_consistent_with_events() {
        let (_, a) = analysis();
        let congested = a.congested_series(0.5, 0.1);
        assert_eq!(congested.len(), a.series.len());
        let per_series = a.events_per_series(0.5);
        for (i, c) in congested.iter().enumerate() {
            if *c {
                assert!(per_series[i] > 0, "congested series must have events");
            }
        }
    }

    #[test]
    fn elbow_sweep_produces_curve() {
        let (_, a) = analysis();
        let (curve, _elbow) = a.elbow_threshold(20);
        assert_eq!(curve.len(), 21);
        assert!(curve[0].1 >= curve[20].1);
    }
}
