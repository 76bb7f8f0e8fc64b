//! The `congestion` query verb: §3.3 detection served from a snapshot.
//!
//! A dashboard asking "which servers look congested right now?" should
//! not have to drain the raw point stream and re-implement the paper's
//! detector client-side. This module runs the detection *inside* the
//! server, over the last published generation, and renders the labels
//! through the canonical encoder — so congestion responses participate
//! in the same rendered-response cache, with the same byte-equality
//! guarantee, as plain queries.
//!
//! The per-day fold and the event tally are [`clasp_stats::dayfold`],
//! the same code `clasp-core`'s `CongestionAnalysis` runs, here over the
//! hourly mean series of one field:
//!
//! * per series and server-local day `d`:
//!   `V(s,d) = (Tmax − Tmin) / Tmax`, with days whose `Tmax ≤ 0`
//!   skipped entirely;
//! * per hourly sample: `V_H(s,t) = (Tmax(s,d) − T(s,t)) / Tmax(s,d)`;
//!   hours with `V_H > h` are congestion events;
//! * a series is **congested** when more than `min_day_fraction` of its
//!   days contain at least one event (the paper's Fig. 8 criterion).
//!
//! Server-local time is a fixed UTC offset supplied by the client
//! (`utc_offset_hours`), because the serve layer deliberately knows
//! nothing about the world model — callers that want per-server local
//! days filter to one server per request and pass its offset, exactly
//! as the equivalence tests do.

use clasp_stats::{DayWindow, HourTally};
use serde_json::{Map, Value};
use tsdb::{Aggregate, Query, Snapshot};

/// Detection threshold the paper lands on (H = 0.5).
pub const DEFAULT_H: f64 = 0.5;
/// Fig. 8's "more than 10 % of days" congested-server criterion.
pub const DEFAULT_MIN_DAY_FRACTION: f64 = 0.1;
/// Hourly analysis window, seconds.
const HOUR: u64 = 3600;
/// Seconds per local day.
const DAY: i64 = 86_400;

/// A congestion-detection request in wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionSpec {
    /// Measurement holding the throughput series.
    pub measurement: String,
    /// Field to analyze (usually `"download"`).
    pub field: String,
    /// Required `tag == value` filters.
    pub filters: Vec<(String, String)>,
    /// Event threshold `H` on `V_H(s,t)`.
    pub h: f64,
    /// Congested-series criterion: fraction of days with ≥ 1 event.
    pub min_day_fraction: f64,
    /// Fixed UTC offset, hours, for local-day/-hour reckoning.
    pub utc_offset_hours: i64,
}

impl CongestionSpec {
    /// Analyzes `field` of `measurement` with the paper's defaults
    /// (`H = 0.5`, 10 % of days, UTC local time).
    pub fn analyze(measurement: impl Into<String>, field: impl Into<String>) -> Self {
        Self {
            measurement: measurement.into(),
            field: field.into(),
            filters: Vec::new(),
            h: DEFAULT_H,
            min_day_fraction: DEFAULT_MIN_DAY_FRACTION,
            utc_offset_hours: 0,
        }
    }

    /// Requires `tag == value` on matching series.
    pub fn r#where(mut self, tag: impl Into<String>, value: impl Into<String>) -> Self {
        self.filters.push((tag.into(), value.into()));
        self
    }

    /// Sets the event threshold `H`.
    pub fn threshold(mut self, h: f64) -> Self {
        self.h = h;
        self
    }

    /// Sets the congested-series day-fraction criterion.
    pub fn min_day_fraction(mut self, f: f64) -> Self {
        self.min_day_fraction = f;
        self
    }

    /// Sets the server-local UTC offset in hours.
    pub fn utc_offset_hours(mut self, hours: i64) -> Self {
        self.utc_offset_hours = hours;
        self
    }

    /// The canonical object form. Includes `"op":"congestion"` so the
    /// canonical bytes can never collide with a
    /// [`QuerySpec`](crate::proto::QuerySpec) in the shared
    /// response-cache key space; defaults are omitted so equal meanings
    /// render equal bytes.
    pub fn to_value(&self) -> Value {
        Value::Object(self.to_map())
    }

    /// [`CongestionSpec::to_value`] without the enum wrapper, for
    /// callers that compose the object into a larger response.
    pub fn to_map(&self) -> Map {
        let mut m = Map::new();
        m.insert("op".into(), "congestion".into());
        m.insert("measurement".into(), self.measurement.as_str().into());
        m.insert("field".into(), self.field.as_str().into());
        if !self.filters.is_empty() {
            let mut w = Map::new();
            for (k, v) in &self.filters {
                w.insert(k.clone(), v.as_str().into());
            }
            m.insert("where".into(), Value::Object(w));
        }
        if self.h != DEFAULT_H {
            m.insert("h".into(), self.h.into());
        }
        if self.min_day_fraction != DEFAULT_MIN_DAY_FRACTION {
            m.insert("min_day_fraction".into(), self.min_day_fraction.into());
        }
        if self.utc_offset_hours != 0 {
            m.insert(
                "utc_offset_hours".into(),
                (self.utc_offset_hours as f64).into(),
            );
        }
        m
    }

    /// The canonical bytes of [`CongestionSpec::to_value`]; used
    /// verbatim in the response-cache key.
    pub fn canonical(&self) -> String {
        serde_json::to_string(&self.to_value())
    }

    /// Parses the object form produced by [`CongestionSpec::to_value`].
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let measurement = required_str(v, "measurement")?;
        let field = required_str(v, "field")?;
        let mut filters = Vec::new();
        if let Some(w) = v.get("where") {
            let obj = w.as_object().ok_or("\"where\" must be an object")?;
            for (k, val) in obj {
                let s = val.as_str().ok_or("\"where\" values must be strings")?;
                filters.push((k.clone(), s.to_string()));
            }
        }
        let h = opt_fraction(v, "h")?.unwrap_or(DEFAULT_H);
        let min_day_fraction =
            opt_fraction(v, "min_day_fraction")?.unwrap_or(DEFAULT_MIN_DAY_FRACTION);
        let utc_offset_hours = match v.get("utc_offset_hours") {
            None | Some(Value::Null) => 0,
            Some(x) => {
                let f = x.as_f64().ok_or("\"utc_offset_hours\" must be a number")?;
                if f.fract() != 0.0 || !(-24.0..=24.0).contains(&f) {
                    return Err("\"utc_offset_hours\" must be a whole number in [-24, 24]".into());
                }
                f as i64
            }
        };
        Ok(Self {
            measurement,
            field,
            filters,
            h,
            min_day_fraction,
            utc_offset_hours,
        })
    }

    /// The hourly-mean query the detection runs over.
    fn hourly_query(&self) -> Query {
        let mut q = Query::select(self.measurement.clone(), self.field.clone());
        for (k, v) in &self.filters {
            q = q.r#where(k.clone(), v.clone());
        }
        q.group_by_time(HOUR).aggregate(Aggregate::Mean)
    }

    /// Runs the detection over `snap`. Series come back in the
    /// snapshot's canonical result order.
    pub fn evaluate(&self, snap: &Snapshot) -> CongestionReport {
        let results = self.hourly_query().run_snapshot(snap);
        let mut labels = Vec::with_capacity(results.len());
        let mut pooled = HourTally::default();
        for r in &results {
            // Rows are time-ordered, so each local day is one run.
            let mut tally = HourTally::default();
            for run in r
                .rows
                .chunk_by(|a, b| self.local_day(a.time) == self.local_day(b.time))
            {
                let mut window = DayWindow::default();
                for row in run {
                    window.push(row.time, row.value);
                }
                let Some(day) = window.seal() else { continue };
                let mut had_event = false;
                for (t, _, v_h) in day.hours() {
                    let (hour, event) = (self.local_hour(t), v_h > self.h);
                    tally.hour(hour, event);
                    pooled.hour(hour, event);
                    had_event |= event;
                }
                tally.day(had_event);
            }
            labels.push(SeriesLabel {
                series: r.series_key.clone(),
                server: series_tag(&r.series_key, "server").unwrap_or_default(),
                days: tally.days,
                event_days: tally.event_days,
                events: tally.events.iter().sum(),
                samples: tally.trials.iter().sum(),
                congested: tally.congested(self.min_day_fraction),
            });
        }
        let hours = pooled.probability();
        CongestionReport { labels, hours }
    }

    fn local_day(&self, t: u64) -> i64 {
        (t as i64 + self.utc_offset_hours * HOUR as i64).div_euclid(DAY)
    }

    fn local_hour(&self, t: u64) -> u8 {
        let secs = (t as i64 + self.utc_offset_hours * HOUR as i64).rem_euclid(DAY);
        (secs / HOUR as i64) as u8
    }
}

/// Per-series congestion verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesLabel {
    /// Canonical series key.
    pub series: String,
    /// `server` tag parsed from the key (empty if untagged).
    pub server: String,
    /// Local days with positive throughput.
    pub days: u32,
    /// Days containing at least one congestion event.
    pub event_days: u32,
    /// Total congestion events (`V_H > h` hours).
    pub events: u32,
    /// Hourly samples analyzed.
    pub samples: u32,
    /// Fig. 8 verdict: `event_days / days > min_day_fraction`.
    pub congested: bool,
}

/// The full detection result for one spec over one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionReport {
    /// One verdict per matching series, in canonical result order.
    pub labels: Vec<SeriesLabel>,
    /// Pooled hourly congestion probability (events / trials per
    /// server-local hour, Fig. 6 shaped), zero where no trials.
    pub hours: [f64; 24],
}

impl CongestionReport {
    /// Canonical response body:
    /// `{"generation":G,"series":[..],"hours":[..24],"summary":{..}}`.
    pub fn to_value(&self, generation: u64) -> Value {
        Value::Object(self.to_map(generation))
    }

    /// [`CongestionReport::to_value`] without the enum wrapper, for
    /// callers that feed the object straight into a response envelope.
    pub fn to_map(&self, generation: u64) -> Map {
        let mut m = Map::new();
        m.insert("generation".into(), generation.into());
        m.insert(
            "series".into(),
            Value::Array(
                self.labels
                    .iter()
                    .map(|l| {
                        let mut s = Map::new();
                        s.insert("series".into(), l.series.as_str().into());
                        s.insert("server".into(), l.server.as_str().into());
                        s.insert("days".into(), u64::from(l.days).into());
                        s.insert("event_days".into(), u64::from(l.event_days).into());
                        s.insert("events".into(), u64::from(l.events).into());
                        s.insert("samples".into(), u64::from(l.samples).into());
                        s.insert("congested".into(), l.congested.into());
                        Value::Object(s)
                    })
                    .collect(),
            ),
        );
        m.insert(
            "hours".into(),
            Value::Array(self.hours.iter().map(|&p| p.into()).collect()),
        );
        let mut sm = Map::new();
        sm.insert("series".into(), (self.labels.len() as u64).into());
        sm.insert(
            "congested".into(),
            (self.labels.iter().filter(|l| l.congested).count() as u64).into(),
        );
        sm.insert(
            "events".into(),
            self.labels
                .iter()
                .map(|l| u64::from(l.events))
                .sum::<u64>()
                .into(),
        );
        m.insert("summary".into(), Value::Object(sm));
        m
    }
}

/// Extracts one tag value from a canonical series key
/// (`measurement,tag=value,...`).
fn series_tag(series_key: &str, tag: &str) -> Option<String> {
    series_key
        .split(',')
        .skip(1)
        .find_map(|kv| kv.strip_prefix(tag).and_then(|r| r.strip_prefix('=')))
        .map(str::to_string)
}

fn required_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|x| x.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing string member {key:?}"))
}

fn opt_fraction(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => {
            let f = x
                .as_f64()
                .ok_or_else(|| format!("member {key:?} must be a number"))?;
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err(format!("member {key:?} must be a fraction in [0, 1]"));
            }
            Ok(Some(f))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::QuerySpec;
    use tsdb::{Db, Point};

    /// A series with a diurnal trough (value halves for `dip_hours`
    /// local hours each day) plus a flat control series.
    fn diurnal_db(days: u64, dip_hours: u64) -> Db {
        let mut db = Db::new();
        for d in 0..days {
            for h in 0..24u64 {
                let t = (d * 24 + h) * 3600;
                let dipped = h >= 20 && h < 20 + dip_hours;
                let v = if dipped { 40.0 } else { 100.0 };
                db.insert(
                    Point::new("speedtest", t)
                        .tag("server", "dipper")
                        .field("download", v),
                );
                db.insert(
                    Point::new("speedtest", t)
                        .tag("server", "steady")
                        .field("download", 100.0),
                );
            }
        }
        db
    }

    #[test]
    fn spec_roundtrips_through_canonical_form() {
        let specs = [
            CongestionSpec::analyze("speedtest", "download"),
            CongestionSpec::analyze("speedtest", "upload")
                .r#where("method", "topo")
                .r#where("region", "us-west1")
                .threshold(0.6)
                .min_day_fraction(0.25)
                .utc_offset_hours(-8),
        ];
        for spec in specs {
            let parsed = CongestionSpec::from_value(&spec.to_value()).unwrap();
            assert_eq!(parsed, spec);
            assert_eq!(parsed.canonical(), spec.canonical());
        }
    }

    #[test]
    fn canonical_bytes_cannot_collide_with_query_spec() {
        // Same measurement/field/filters: the "op" member keeps the
        // shared cache-key space partitioned by verb.
        let c = CongestionSpec::analyze("speedtest", "download").r#where("method", "topo");
        let q = QuerySpec::select("speedtest", "download").r#where("method", "topo");
        assert_ne!(c.canonical(), q.canonical());
        assert!(c.canonical().contains("\"op\":\"congestion\""));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "{\"field\":\"f\"}",
            "{\"measurement\":\"m\",\"field\":\"f\",\"h\":1.5}",
            "{\"measurement\":\"m\",\"field\":\"f\",\"h\":-0.1}",
            "{\"measurement\":\"m\",\"field\":\"f\",\"min_day_fraction\":2}",
            "{\"measurement\":\"m\",\"field\":\"f\",\"utc_offset_hours\":0.5}",
            "{\"measurement\":\"m\",\"field\":\"f\",\"utc_offset_hours\":48}",
            "{\"measurement\":\"m\",\"field\":\"f\",\"where\":[]}",
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(CongestionSpec::from_value(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn diurnal_dip_is_labelled_congested_and_steady_is_not() {
        let mut db = diurnal_db(4, 3);
        let snap = db.snapshot();
        let report = CongestionSpec::analyze("speedtest", "download").evaluate(&snap);
        assert_eq!(report.labels.len(), 2);
        let dipper = &report.labels[0];
        let steady = &report.labels[1];
        assert_eq!(dipper.server, "dipper");
        assert_eq!(steady.server, "steady");
        // (100 - 40) / 100 = 0.6 > H: every dipped hour is an event.
        assert!(dipper.congested);
        assert_eq!(dipper.days, 4);
        assert_eq!(dipper.event_days, 4);
        assert_eq!(dipper.events, 4 * 3);
        assert!(!steady.congested);
        assert_eq!(steady.events, 0);
        // Events pool into exactly the dipped local hours.
        for (h, &p) in report.hours.iter().enumerate() {
            let expect = if (20..23).contains(&h) { 0.5 } else { 0.0 };
            assert_eq!(p, expect, "hour {h}");
        }
    }

    #[test]
    fn utc_offset_shifts_event_hours() {
        let mut db = diurnal_db(4, 3);
        let snap = db.snapshot();
        let report = CongestionSpec::analyze("speedtest", "download")
            .utc_offset_hours(-8)
            .evaluate(&snap);
        // 20..23 UTC is 12..15 local at −8; verdicts are unchanged.
        for (h, &p) in report.hours.iter().enumerate() {
            let expect = if (12..15).contains(&h) { 0.5 } else { 0.0 };
            assert_eq!(p, expect, "hour {h}");
        }
        assert!(report.labels[0].congested);
        assert!(!report.labels[1].congested);
    }

    #[test]
    fn zero_throughput_days_are_skipped() {
        let mut db = Db::new();
        for h in 0..24u64 {
            db.insert(
                Point::new("speedtest", h * 3600)
                    .tag("server", "dead")
                    .field("download", 0.0),
            );
        }
        let snap = db.snapshot();
        let report = CongestionSpec::analyze("speedtest", "download").evaluate(&snap);
        assert_eq!(report.labels.len(), 1);
        let l = &report.labels[0];
        assert_eq!((l.days, l.samples, l.events), (0, 0, 0));
        assert!(!l.congested);
    }

    #[test]
    fn report_encoding_is_canonical_and_generation_stamped() {
        let mut db = diurnal_db(2, 2);
        let snap = db.snapshot();
        let report = CongestionSpec::analyze("speedtest", "download").evaluate(&snap);
        let v = report.to_value(7);
        assert_eq!(v.get("generation").and_then(Value::as_u64), Some(7));
        let series = v.get("series").and_then(|s| s.as_array()).unwrap();
        assert_eq!(series.len(), 2);
        let summary = v.get("summary").unwrap();
        assert_eq!(summary.get("series").and_then(Value::as_u64), Some(2));
        assert_eq!(summary.get("congested").and_then(Value::as_u64), Some(1));
        // Two encodings of the same report are the same bytes.
        assert_eq!(
            serde_json::to_string(&report.to_value(7)),
            serde_json::to_string(&v)
        );
    }
}
