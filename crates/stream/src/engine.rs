//! The incremental congestion-detection engine.
//!
//! One [`StreamEngine`] consumes a stream of samples — the rows a
//! campaign ingests ([`StreamEngine::ingest_row`]) or standalone
//! [`Point`]s ([`StreamEngine::ingest`]) — and maintains per-series
//! daily windows, hourly labels, the online elbow recalibration and the
//! alert state machines. Every per-point update is O(1) amortized: a daily
//! window appends the point and folds its extrema once at day close, the
//! live window uses monotonic deques, and the elbow histogram is touched
//! once per *series-day*, not per point.
//!
//! Label emission is deferred to *day close*: the paper's `V_H(s,t)`
//! normalizes against the day's final `Tmax`, which is only known once
//! the day is over. A per-series watermark (the highest local day seen)
//! closes a day once it falls `grace_days` behind, and
//! [`StreamEngine::finalize`] closes everything that remains.

use crate::alert::{AlertPolicy, AlertState, CongestionAlert};
use clasp_stats::{DayWindow, HourTally, SlidingExtrema, StreamingElbow};
use simnet::time::{SimTime, HOUR, SECONDS_PER_DAY};
use std::collections::BTreeMap;
use tsdb::{FieldSet, Point, Series, SeriesId};

/// How the congestion threshold `H` is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdMode {
    /// A fixed `H` (the paper lands on 0.5). This mode is bit-identical
    /// to the batch analysis evaluated at the same `h`.
    Fixed(f64),
    /// Online recalibration: re-run the elbow sweep over the streaming
    /// day-variability histogram every time a day closes.
    Auto {
        /// `H` used until enough days have closed (and whenever the
        /// curve has no elbow, e.g. while it is still flat).
        initial: f64,
        /// Days required before the sweep is trusted.
        min_days: u64,
    },
}

/// Engine configuration: what to analyze and how. A streaming campaign
/// feeds the engine every row it ingests, with no buffer in between.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Measurement to consume (the campaign writes `"speedtest"`).
    pub measurement: String,
    /// Field to analyze (the paper's Fig. 2 uses `"download"`).
    pub field: String,
    /// Tag filters a point must match, e.g. `method=topo`.
    pub filters: Vec<(String, String)>,
    /// Threshold selection.
    pub threshold: ThresholdMode,
    /// Sweep resolution for [`ThresholdMode::Auto`] (thresholds
    /// `0/steps ..= steps/steps`, like the batch `elbow_threshold`).
    pub sweep_steps: usize,
    /// How many local days behind the per-series watermark a day may
    /// trail before it is closed. 0 closes a day as soon as the next
    /// one starts; 1 (the default) tolerates day-straddling retries.
    pub grace_days: i64,
    /// Span of the advisory live trailing window, seconds.
    pub live_window_secs: u64,
    /// Alerting policy.
    pub alert: AlertPolicy,
}

impl EngineConfig {
    /// The paper's analysis: download throughput of topology-selected
    /// servers, fixed H = 0.5.
    pub fn paper() -> Self {
        Self {
            measurement: "speedtest".into(),
            field: "download".into(),
            filters: vec![("method".into(), "topo".into())],
            threshold: ThresholdMode::Fixed(0.5),
            sweep_steps: 20,
            grace_days: 1,
            live_window_secs: SECONDS_PER_DAY,
            alert: AlertPolicy::default(),
        }
    }
}

/// Per-series metadata, mirroring the batch `SeriesInfo`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesMeta {
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

/// One closed (series, local-day) record, mirroring the batch
/// `DayVariability`.
#[derive(Debug, Clone, PartialEq)]
pub struct DayRecord {
    /// Index into [`StreamEngine::series`].
    pub series_idx: u32,
    /// Local day index.
    pub local_day: i64,
    /// `V(s,d)`.
    pub v: f64,
    /// Daily maximum, Mbps.
    pub t_max: f64,
    /// Daily minimum, Mbps.
    pub t_min: f64,
    /// Samples in the day.
    pub n: usize,
}

/// One labelled hourly sample, mirroring the batch `HourSample` plus the
/// congestion verdict at the threshold in force when its day closed.
#[derive(Debug, Clone, PartialEq)]
pub struct HourLabel {
    /// Index into [`StreamEngine::series`].
    pub series_idx: u32,
    /// Sample time (UTC seconds).
    pub time: u64,
    /// Local hour at the server, `0..24`.
    pub local_hour: u8,
    /// Local day index.
    pub local_day: i64,
    /// Measured value, Mbps.
    pub value: f64,
    /// `V_H(s,t)`.
    pub v_h: f64,
    /// `V_H(s,t) > H` at label time.
    pub congested: bool,
}

/// Stream-health and throughput counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Points or rows offered to the engine (matched or not).
    pub events_seen: u64,
    /// Points that matched measurement, filters and field.
    pub points_matched: u64,
    /// Daily windows closed (including skipped `Tmax ≤ 0` days).
    pub days_closed: u64,
    /// Hourly labels emitted.
    pub labels_emitted: u64,
    /// Matched points that arrived with a timestamp below their series'
    /// high-water mark (fault retries reorder within an hour).
    pub out_of_order: u64,
    /// Matched points sharing a timestamp with the previous one.
    pub duplicates: u64,
    /// Whole hours missing between consecutive matched points of a
    /// series (cron misses, outages, lost batches).
    pub gap_hours: u64,
    /// Matched points for a day that had already been closed — dropped,
    /// because re-opening would retract emitted labels. Zero whenever
    /// reordering stays within `grace_days` (campaign streams do).
    pub late_dropped: u64,
    /// Matched points appended to an open daily window.
    pub window_updates: u64,
    /// Day closes where the auto-threshold sweep was consulted (always
    /// zero under [`ThresholdMode::Fixed`]).
    pub recalibrations: u64,
    /// Alert state-machine edges: arm (inactive → active) plus clear or
    /// force-close (active → inactive).
    pub alert_transitions: u64,
}

/// Mutable per-series state.
#[derive(Debug)]
pub(crate) struct SeriesState {
    pub(crate) utc_offset: i32,
    /// Open daily windows, keyed by local day.
    pub(crate) open: BTreeMap<i64, DayWindow>,
    /// Watermark: highest local day seen.
    pub(crate) max_day: i64,
    /// Highest closed local day; points at or below are late.
    pub(crate) closed_through: i64,
    /// Highest timestamp seen (gap/duplicate/reorder accounting).
    pub(crate) last_time: Option<u64>,
    /// Advisory live trailing window (not part of snapshots).
    pub(crate) live: SlidingExtrema,
    /// Events and trials of the closed days.
    pub(crate) tally: HourTally,
    pub(crate) last_label_time: u64,
    pub(crate) alert: AlertState,
}

impl SeriesState {
    fn new(utc_offset: i32, live_window_secs: u64) -> Self {
        Self {
            utc_offset,
            open: BTreeMap::new(),
            max_day: i64::MIN,
            closed_through: i64::MIN,
            last_time: None,
            live: SlidingExtrema::new(live_window_secs),
            tally: HourTally::default(),
            last_label_time: 0,
            alert: AlertState::default(),
        }
    }
}

/// Where the rows of one [`tsdb::Db`] series go: nowhere (another
/// measurement or a filter miss) or to one engine series. `Unresolved`
/// until the series' first row that carries the field.
#[derive(Debug, Clone, Copy)]
enum Route {
    Unresolved,
    Skip,
    Series(usize),
}

/// The streaming congestion-detection engine.
#[derive(Debug)]
pub struct StreamEngine {
    pub(crate) cfg: EngineConfig,
    pub(crate) offsets: BTreeMap<String, i32>,
    pub(crate) series: Vec<SeriesMeta>,
    pub(crate) states: Vec<SeriesState>,
    pub(crate) index: BTreeMap<String, u32>,
    pub(crate) day_records: Vec<DayRecord>,
    pub(crate) labels: Vec<HourLabel>,
    pub(crate) recal: StreamingElbow,
    pub(crate) current_h: f64,
    pub(crate) alerts: Vec<CongestionAlert>,
    pub(crate) stats: EngineStats,
    pub(crate) finalized: bool,
    /// Per Db series id (not snapshotted: a cache rebuilt from the rows).
    routes: Vec<Route>,
}

impl StreamEngine {
    /// Creates an engine. `offsets` maps server id → local UTC offset
    /// (hours); unknown servers fall back to 0, exactly like the batch
    /// analysis (`World::server_utc_offsets` supplies the map).
    ///
    /// # Panics
    /// Panics on inconsistent configuration: `sweep_steps < 2`, negative
    /// `grace_days`, `alert.exit > alert.enter` or `alert.min_hours == 0`.
    pub fn new(cfg: EngineConfig, offsets: BTreeMap<String, i32>) -> Self {
        assert!(cfg.sweep_steps >= 2, "sweep needs at least 3 thresholds");
        assert!(cfg.grace_days >= 0, "grace_days must be non-negative");
        assert!(
            cfg.alert.exit <= cfg.alert.enter,
            "alert exit threshold must not exceed the enter threshold"
        );
        assert!(cfg.alert.min_hours >= 1, "alert debounce needs ≥ 1 hour");
        let current_h = match cfg.threshold {
            ThresholdMode::Fixed(h) => h,
            ThresholdMode::Auto { initial, .. } => initial,
        };
        let recal = StreamingElbow::new(cfg.sweep_steps);
        Self {
            cfg,
            offsets,
            series: Vec::new(),
            states: Vec::new(),
            index: BTreeMap::new(),
            day_records: Vec::new(),
            labels: Vec::new(),
            recal,
            current_h,
            alerts: Vec::new(),
            stats: EngineStats::default(),
            finalized: false,
            routes: Vec::new(),
        }
    }

    /// Feeds one point. Non-matching points only bump `events_seen`.
    ///
    /// # Panics
    /// Panics when called after [`Self::finalize`].
    pub fn ingest(&mut self, p: &Point) {
        assert!(!self.finalized, "StreamEngine::ingest after finalize");
        self.stats.events_seen += 1;
        if !self.wants_series(&p.measurement, &p.tags) {
            return;
        }
        let Some(&value) = p.fields.get(&self.cfg.field) else {
            return;
        };
        let idx = self.series_index(p.series_key(), &p.tags);
        self.ingest_sample(idx, p.time, value);
    }

    /// [`Self::ingest`] of a stored row, as [`tsdb::Db::ingest_lines_with`]
    /// shows it. Measurement, filters and registration are resolved once
    /// per series and cached by `id`, so all rows must come from one Db.
    pub fn ingest_row(&mut self, id: SeriesId, series: &Series, time: u64, fields: &FieldSet) {
        assert!(!self.finalized, "StreamEngine::ingest after finalize");
        self.stats.events_seen += 1;
        let Some(&value) = fields.get(&self.cfg.field) else {
            return;
        };
        let slot = id.0 as usize;
        let route = match self.routes.get(slot) {
            Some(&Route::Unresolved) | None => {
                let route = if self.wants_series(&series.measurement, &series.tags) {
                    Route::Series(self.series_index(series.key(), &series.tags))
                } else {
                    Route::Skip
                };
                self.routes
                    .resize(self.routes.len().max(slot + 1), Route::Unresolved);
                if let Some(r) = self.routes.get_mut(slot) {
                    *r = route;
                }
                route
            }
            Some(&route) => route,
        };
        if let Route::Series(idx) = route {
            self.ingest_sample(idx, time, value);
        }
    }

    /// True when samples of this measurement and tag set are analyzed.
    fn wants_series(&self, measurement: &str, tags: &BTreeMap<String, String>) -> bool {
        measurement == self.cfg.measurement
            && self
                .cfg
                .filters
                .iter()
                .all(|(k, v)| tags.get(k).is_some_and(|tv| tv == v))
    }

    /// Folds one matched sample of engine series `idx` into its daily
    /// window, closing the days that fall `grace_days` behind.
    fn ingest_sample(&mut self, idx: usize, time: u64, value: f64) {
        self.stats.points_matched += 1;
        let Self {
            states, stats, cfg, ..
        } = self;
        let Some(st) = states.get_mut(idx) else {
            return;
        };
        let day = SimTime(time).local_day(st.utc_offset);

        // Stream-health accounting: fault-injected campaigns legitimately
        // deliver gaps (lost hours) and small reorderings (retries).
        match st.last_time {
            Some(lt) if time < lt => stats.out_of_order += 1,
            Some(lt) if time == lt => stats.duplicates += 1,
            Some(lt) if time >= lt + 2 * HOUR => stats.gap_hours += (time - lt) / HOUR - 1,
            _ => {}
        }
        st.last_time = Some(st.last_time.map_or(time, |lt| lt.max(time)));

        // Advisory live window (rejects out-of-order pushes internally).
        st.live.push(time, value);

        if day <= st.closed_through {
            stats.late_dropped += 1;
            return;
        }
        st.open.entry(day).or_default().push(time, value);
        stats.window_updates += 1;

        if day > st.max_day {
            st.max_day = day;
            let horizon = day - cfg.grace_days;
            while let Some(st) = self.states.get_mut(idx) {
                let Some(ready) = st.open.first_entry().filter(|e| *e.key() < horizon) else {
                    break;
                };
                let (d, w) = ready.remove_entry();
                st.closed_through = d;
                self.close_day(idx, d, w);
            }
        }
    }

    /// Closes every open day, force-closes active alerts and
    /// canonicalizes the emission logs into the batch analysis order
    /// (series-major; within a series the close order is already
    /// day-ascending and time-ascending, so a stable sort by series
    /// suffices). Idempotent; further [`Self::ingest`] calls panic.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        for idx in 0..self.states.len() {
            let st = &mut self.states[idx];
            st.closed_through = st.max_day;
            let pending: Vec<(i64, DayWindow)> = std::mem::take(&mut st.open).into_iter().collect();
            for (day, w) in pending {
                self.close_day(idx, day, w);
            }
        }
        self.day_records.sort_by_key(|d| d.series_idx);
        self.labels.sort_by_key(|l| l.series_idx);
        let Self {
            states,
            series,
            alerts,
            stats,
            ..
        } = self;
        for (idx, st) in states.iter_mut().enumerate() {
            if let Some((start, end, peak_v_h, events)) = st.alert.finish(st.last_label_time) {
                stats.alert_transitions += 1;
                let meta = &series[idx];
                alerts.push(CongestionAlert {
                    series_idx: u32::try_from(idx).expect("series count fits u32"),
                    series: meta.key.clone(),
                    server: meta.server.clone(),
                    start,
                    end,
                    peak_v_h,
                    events,
                    open: true,
                });
            }
        }
    }

    /// Looks a series up by key, registering it on first sight (same
    /// enumeration order as the Db, since both follow first insertion).
    fn series_index(&mut self, key: &str, tags: &BTreeMap<String, String>) -> usize {
        if let Some(&i) = self.index.get(key) {
            return i as usize;
        }
        let tag = |name: &str| tags.get(name).cloned().unwrap_or_default();
        let server = tag("server");
        let utc_offset = self.offsets.get(&server).copied().unwrap_or(0);
        self.register_series(SeriesMeta {
            key: key.to_string(),
            server,
            region: tag("region"),
            tier: tag("tier"),
            utc_offset,
        })
    }

    /// Appends a series with fresh state.
    fn register_series(&mut self, meta: SeriesMeta) -> usize {
        let i = self.series.len();
        self.index.insert(
            meta.key.clone(),
            u32::try_from(i).expect("series count fits u32"),
        );
        self.states
            .push(SeriesState::new(meta.utc_offset, self.cfg.live_window_secs));
        self.series.push(meta);
        i
    }

    /// Seals one daily window: variability record, threshold update,
    /// hourly labels, alert steps.
    fn close_day(&mut self, idx: usize, day: i64, w: DayWindow) {
        self.stats.days_closed += 1;
        let Some(closed) = w.seal() else {
            return;
        };
        let Self {
            cfg,
            states,
            day_records,
            labels,
            alerts,
            series,
            recal,
            current_h,
            stats,
            ..
        } = self;
        recal.add(closed.v);
        if let ThresholdMode::Auto { initial, min_days } = cfg.threshold {
            *current_h = if recal.total() >= min_days {
                stats.recalibrations += 1;
                recal.elbow().unwrap_or(initial)
            } else {
                initial
            };
        }
        let h = *current_h;
        let series_idx = u32::try_from(idx).expect("series count fits u32");
        day_records.push(DayRecord {
            series_idx,
            local_day: day,
            v: closed.v,
            t_max: closed.t_max,
            t_min: closed.t_min,
            n: closed.n(),
        });
        let st = &mut states[idx];
        let offset = st.utc_offset;
        let mut any_event = false;
        for (t, value, v_h) in closed.hours() {
            let local_hour = SimTime(t).local_hour(offset) as u8;
            let congested = v_h > h;
            st.tally.hour(local_hour, congested);
            any_event |= congested;
            st.last_label_time = t;
            let was_active = st.alert.active;
            if let Some((start, end, peak_v_h, events)) = st.alert.step(t, v_h, &cfg.alert) {
                let meta = &series[idx];
                alerts.push(CongestionAlert {
                    series_idx,
                    series: meta.key.clone(),
                    server: meta.server.clone(),
                    start,
                    end,
                    peak_v_h,
                    events,
                    open: false,
                });
            }
            if st.alert.active != was_active {
                stats.alert_transitions += 1;
            }
            labels.push(HourLabel {
                series_idx,
                time: t,
                local_hour,
                local_day: day,
                value,
                v_h,
                congested,
            });
            stats.labels_emitted += 1;
        }
        st.tally.day(any_event);
    }

    // ------------------------------------------------------------------
    // Read side.

    /// Analyzed series, in first-seen order.
    pub fn series(&self) -> &[SeriesMeta] {
        &self.series
    }

    /// Closed per-(series, day) variability records.
    pub fn day_records(&self) -> &[DayRecord] {
        &self.day_records
    }

    /// Emitted hourly labels.
    pub fn labels(&self) -> &[HourLabel] {
        &self.labels
    }

    /// Alerts closed so far (plus force-closed ones after
    /// [`Self::finalize`]).
    pub fn alerts(&self) -> &[CongestionAlert] {
        &self.alerts
    }

    /// Health and throughput counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Points offered so far. A campaign run refuses an engine where
    /// this is not 0, so no row is counted twice.
    pub fn events_seen(&self) -> u64 {
        self.stats.events_seen
    }

    /// The threshold `H` currently in force.
    pub fn threshold(&self) -> f64 {
        self.current_h
    }

    /// True once [`Self::finalize`] has run.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Fraction of closed s-days with `V(s,d) > h`.
    pub fn fraction_days_above(&self, h: f64) -> f64 {
        if self.day_records.is_empty() {
            return 0.0;
        }
        self.day_records.iter().filter(|d| d.v > h).count() as f64 / self.day_records.len() as f64
    }

    /// Fraction of labelled s-hours with `V_H(s,t) > h`.
    pub fn fraction_hours_above(&self, h: f64) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|l| l.v_h > h).count() as f64 / self.labels.len() as f64
    }

    /// Per-series hourly congestion probability `[events/trials; 24]`
    /// in server-local hours, accumulated at label-time thresholds.
    pub fn hourly_probability(&self) -> Vec<[f64; 24]> {
        self.states
            .iter()
            .map(|st| st.tally.probability())
            .collect()
    }

    /// Per-series congested verdicts: more than `min_day_fraction` of
    /// closed days contain at least one congestion event.
    pub fn congested_series(&self, min_day_fraction: f64) -> Vec<bool> {
        self.states
            .iter()
            .map(|st| st.tally.congested(min_day_fraction))
            .collect()
    }

    /// The streaming elbow curve `(threshold, fraction of days above)`.
    pub fn elbow_curve(&self) -> Vec<(f64, f64)> {
        self.recal.curve()
    }

    /// The current elbow of the streaming sweep, when one exists.
    pub fn elbow(&self) -> Option<f64> {
        self.recal.elbow()
    }

    /// Live trailing-window variability of a series, if it has data in
    /// the window. Advisory (pre-day-close), not part of snapshots.
    pub fn live_variability(&self, series_key: &str) -> Option<f64> {
        let &idx = self.index.get(series_key)?;
        self.states[idx as usize].live.variability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_fixed(h: f64) -> EngineConfig {
        EngineConfig {
            threshold: ThresholdMode::Fixed(h),
            grace_days: 0,
            ..EngineConfig::paper()
        }
    }

    fn point(server: &str, t: u64, down: f64) -> Point {
        Point::new("speedtest", t)
            .tag("region", "us-west1")
            .tag("server", server)
            .tag("tier", "premium")
            .tag("method", "topo")
            .field("download", down)
            .field("upload", down / 10.0)
    }

    fn offsets() -> BTreeMap<String, i32> {
        [("s1".to_string(), 0), ("s2".to_string(), -8)].into()
    }

    #[test]
    fn daily_window_produces_paper_variability() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        // Day 0: throughput 100 every hour except a deep dip at hour 18.
        for h in 0..24u64 {
            let v = if h == 18 { 20.0 } else { 100.0 };
            e.ingest(&point("s1", h * HOUR, v));
        }
        // Day 1 opens: day 0 closes (grace 0).
        e.ingest(&point("s1", SECONDS_PER_DAY, 100.0));
        assert_eq!(e.day_records().len(), 1);
        let d = &e.day_records()[0];
        assert_eq!(d.local_day, 0);
        assert_eq!(d.n, 24);
        assert_eq!(d.t_max, 100.0);
        assert_eq!(d.t_min, 20.0);
        assert_eq!(d.v, 0.8);
        // Exactly one congested hour: V_H = 0.8 > 0.5 at hour 18.
        let congested: Vec<&HourLabel> = e.labels().iter().filter(|l| l.congested).collect();
        assert_eq!(congested.len(), 1);
        assert_eq!(congested[0].local_hour, 18);
        assert_eq!(congested[0].v_h, 0.8);
        assert_eq!(e.stats().labels_emitted, 24);
    }

    #[test]
    fn local_time_uses_server_offset() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        // UTC hour 3 at offset −8 is local hour 19 of the *previous*
        // local day.
        e.ingest(&point("s2", 3 * HOUR, 50.0));
        e.finalize();
        assert_eq!(e.labels().len(), 1);
        assert_eq!(e.labels()[0].local_hour, 19);
        assert_eq!(e.labels()[0].local_day, -1);
        assert_eq!(e.series()[0].utc_offset, -8);
    }

    #[test]
    fn unmatched_points_only_bump_events_seen() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        e.ingest(&Point::new("other", 0).field("download", 1.0));
        e.ingest(&point("s1", 0, 1.0).tag("method", "diff"));
        let mut no_field = point("s1", 0, 1.0);
        no_field.fields.clear();
        no_field = no_field.field("upload", 1.0);
        e.ingest(&no_field);
        assert_eq!(e.stats().events_seen, 3);
        assert_eq!(e.stats().points_matched, 0);
        assert!(e.series().is_empty());
    }

    #[test]
    fn nonpositive_max_days_are_skipped_like_batch() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        e.ingest(&point("s1", 0, 0.0));
        e.ingest(&point("s1", HOUR, 0.0));
        e.finalize();
        assert!(e.day_records().is_empty());
        assert!(e.labels().is_empty());
        assert_eq!(e.stats().days_closed, 1);
        assert_eq!(e.congested_series(0.1), vec![false]);
    }

    #[test]
    fn out_of_order_within_day_is_resorted() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        e.ingest(&point("s1", 2 * HOUR, 90.0));
        e.ingest(&point("s1", HOUR, 100.0)); // late retry
        e.ingest(&point("s1", 3 * HOUR, 80.0));
        e.finalize();
        assert_eq!(e.stats().out_of_order, 1);
        let times: Vec<u64> = e.labels().iter().map(|l| l.time).collect();
        assert_eq!(times, vec![HOUR, 2 * HOUR, 3 * HOUR]);
    }

    #[test]
    fn duplicates_and_gaps_are_counted() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        e.ingest(&point("s1", HOUR, 90.0));
        e.ingest(&point("s1", HOUR, 90.0));
        e.ingest(&point("s1", 5 * HOUR, 90.0)); // hours 2..4 missing
        assert_eq!(e.stats().duplicates, 1);
        assert_eq!(e.stats().gap_hours, 3);
    }

    #[test]
    fn grace_days_delay_day_close() {
        let mut cfg = cfg_fixed(0.5);
        cfg.grace_days = 1;
        let mut e = StreamEngine::new(cfg, offsets());
        e.ingest(&point("s1", 0, 100.0));
        e.ingest(&point("s1", SECONDS_PER_DAY, 100.0));
        // Day 0 still open: watermark is day 1, grace 1.
        assert!(e.day_records().is_empty());
        e.ingest(&point("s1", 2 * SECONDS_PER_DAY, 100.0));
        assert_eq!(e.day_records().len(), 1);
        e.finalize();
        assert_eq!(e.day_records().len(), 3);
    }

    #[test]
    fn late_points_for_closed_days_are_dropped_and_counted() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        e.ingest(&point("s1", 0, 100.0));
        e.ingest(&point("s1", SECONDS_PER_DAY, 100.0)); // closes day 0
        assert_eq!(e.day_records().len(), 1);
        e.ingest(&point("s1", 2 * HOUR, 50.0)); // day 0 is sealed
        assert_eq!(e.stats().late_dropped, 1);
        e.finalize();
        assert_eq!(e.day_records().len(), 2);
        assert_eq!(e.labels().len(), 2);
    }

    #[test]
    fn auto_threshold_tracks_streaming_elbow() {
        let mut cfg = cfg_fixed(0.5);
        cfg.threshold = ThresholdMode::Auto {
            initial: 0.5,
            min_days: 5,
        };
        let mut e = StreamEngine::new(cfg, offsets());
        // 40 days: mostly mild variability with a congested minority.
        for day in 0..40u64 {
            let dip = if day % 5 == 0 { 10.0 } else { 85.0 };
            for h in 0..24u64 {
                let v = if h == 20 { dip } else { 100.0 };
                e.ingest(&point("s1", day * SECONDS_PER_DAY + h * HOUR, v));
            }
        }
        e.finalize();
        assert_eq!(e.threshold(), e.elbow().unwrap());
        // The elbow separates the 0.9-variability days from the 0.15 ones
        // (the sweep's first threshold at or above the mild cluster).
        assert!(
            e.threshold() >= 0.15 && e.threshold() < 0.9,
            "{}",
            e.threshold()
        );
    }

    #[test]
    fn alerts_fire_on_sustained_dips() {
        let mut cfg = cfg_fixed(0.5);
        cfg.alert = AlertPolicy {
            enter: 0.5,
            exit: 0.3,
            min_hours: 2,
        };
        let mut e = StreamEngine::new(cfg, offsets());
        for day in 0..2u64 {
            for h in 0..24u64 {
                // Hours 18–21 of day 0 collapse; day 1 is clean.
                let v = if day == 0 && (18..22).contains(&h) {
                    15.0
                } else {
                    100.0
                };
                e.ingest(&point("s1", day * SECONDS_PER_DAY + h * HOUR, v));
            }
        }
        e.finalize();
        assert_eq!(e.alerts().len(), 1);
        let a = &e.alerts()[0];
        assert_eq!(a.start, 18 * HOUR);
        assert!(!a.open);
        assert_eq!(a.events, 4);
        assert_eq!(a.peak_v_h, 0.85);
        assert_eq!(a.server, "s1");
    }

    #[test]
    fn open_alert_survives_finalize_as_open() {
        let mut cfg = cfg_fixed(0.5);
        cfg.alert.min_hours = 1;
        let mut e = StreamEngine::new(cfg, offsets());
        for h in 0..24u64 {
            let v = if h >= 22 { 10.0 } else { 100.0 };
            e.ingest(&point("s1", h * HOUR, v));
        }
        e.finalize();
        assert_eq!(e.alerts().len(), 1);
        assert!(e.alerts()[0].open);
        assert_eq!(e.alerts()[0].end, 23 * HOUR);
    }

    #[test]
    fn window_recal_and_alert_counters() {
        let mut cfg = cfg_fixed(0.5);
        cfg.threshold = ThresholdMode::Auto {
            initial: 0.5,
            min_days: 2,
        };
        cfg.alert = AlertPolicy {
            enter: 0.5,
            exit: 0.3,
            min_hours: 2,
        };
        let mut e = StreamEngine::new(cfg, offsets());
        for day in 0..3u64 {
            for h in 0..24u64 {
                // Day 1 hours 10–15 collapse: one arm + one clear edge.
                let v = if day == 1 && (10..16).contains(&h) {
                    10.0
                } else {
                    100.0
                };
                e.ingest(&point("s1", day * SECONDS_PER_DAY + h * HOUR, v));
            }
        }
        e.finalize();
        assert_eq!(e.stats().window_updates, 72);
        // Sweep consulted on the 2nd and 3rd day close only (min_days 2).
        assert_eq!(e.stats().recalibrations, 2);
        assert_eq!(e.stats().alert_transitions, 2);
        assert_eq!(e.alerts().len(), 1);
    }

    #[test]
    fn fixed_threshold_never_recalibrates() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        for day in 0..4u64 {
            e.ingest(&point("s1", day * SECONDS_PER_DAY, 100.0));
        }
        e.finalize();
        assert_eq!(e.stats().recalibrations, 0);
        assert_eq!(e.stats().days_closed, 4);
    }

    #[test]
    fn live_variability_tracks_trailing_window() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        e.ingest(&point("s1", 0, 100.0));
        e.ingest(&point("s1", HOUR, 60.0));
        let key = e.series()[0].key.clone();
        assert_eq!(e.live_variability(&key), Some(0.4));
        assert_eq!(e.live_variability("nope"), None);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        e.ingest(&point("s1", 0, 100.0));
        e.finalize();
        let labels = e.labels().len();
        e.finalize();
        assert_eq!(e.labels().len(), labels);
        assert!(e.is_finalized());
    }

    #[test]
    #[should_panic(expected = "after finalize")]
    fn ingest_after_finalize_panics() {
        let mut e = StreamEngine::new(cfg_fixed(0.5), offsets());
        e.finalize();
        e.ingest(&point("s1", 0, 1.0));
    }

    #[test]
    #[should_panic(expected = "exit threshold")]
    fn inverted_hysteresis_rejected() {
        let mut cfg = cfg_fixed(0.5);
        cfg.alert = AlertPolicy {
            enter: 0.3,
            exit: 0.5,
            min_hours: 1,
        };
        StreamEngine::new(cfg, BTreeMap::new());
    }
}
