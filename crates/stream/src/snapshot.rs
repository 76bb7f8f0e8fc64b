//! Exact snapshot/restore of the engine state.
//!
//! Snapshots are canonical JSON: every object is built through [`Canon`],
//! which sorts keys (and rejects duplicates) before emission, so equal
//! states serialize to equal bytes regardless of how the vendored
//! `serde_json` happens to order its maps. Every float is stored as its
//! 16-hex-digit IEEE-754 bit pattern — the
//! vendored JSON number is an `f64`, which cannot carry a raw `u64` bit
//! pattern losslessly, and a decimal round-trip would not be provably
//! bit-exact. Day indices ride as decimal strings because the open/closed
//! sentinels (`i64::MIN`/`MAX`) overflow the f64-backed JSON number.
//!
//! The advisory live trailing window is deliberately *not* serialized: it
//! influences no label, record or alert, and restoring it empty keeps
//! snapshots of a resumed run byte-identical to an uninterrupted one.
//! The campaign driver uses [`StreamEngine::events_seen`] (in the
//! snapshot's stats) as the replay-skip cursor when resuming.

use crate::alert::AlertState;
use crate::engine::{DayRecord, EngineConfig, HourLabel, SeriesMeta, StreamEngine};
use crate::CongestionAlert;
use clasp_stats::{HourTally, StreamingElbow};
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Canonical JSON-object builder: pairs are collected, sorted by key and
/// checked for duplicates before emission, so the snapshot's byte layout
/// is sorted *by construction* — not by courtesy of the vendored `Map`'s
/// (current) `BTreeMap` backing.
struct Canon(Vec<(String, Value)>);

impl Canon {
    fn new() -> Self {
        Self(Vec::new())
    }

    fn put(&mut self, key: &str, value: impl Into<Value>) {
        self.0.push((key.to_string(), value.into()));
    }

    fn finish(self) -> Value {
        let mut pairs = self.0;
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate snapshot key"
        );
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(k, v);
        }
        Value::Object(m)
    }
}

fn fb(v: f64) -> Value {
    Value::String(format!("{:016x}", v.to_bits()))
}

fn iv(d: i64) -> Value {
    Value::String(d.to_string())
}

fn get<'v>(v: &'v Value, key: &str, what: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing {key:?}"))
}

fn read_fb(v: &Value, what: &str) -> Result<f64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what}: not a bit string"))?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("{what}: bad bit string {s:?}"))
}

fn read_iv(v: &Value, what: &str) -> Result<i64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what}: not a day string"))?;
    s.parse().map_err(|_| format!("{what}: bad day {s:?}"))
}

fn read_u64(v: &Value, what: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("{what}: not an integer"))
}

fn read_u32(v: &Value, what: &str) -> Result<u32, String> {
    u32::try_from(read_u64(v, what)?).map_err(|_| format!("{what}: out of range"))
}

/// A per-local-hour count array: exactly 24 entries, or the resume would
/// silently diverge.
fn read_hours(v: &Value, what: &str) -> Result<[u32; 24], String> {
    let counts = read_array(v, what)?
        .iter()
        .map(|c| read_u32(c, what))
        .collect::<Result<Vec<_>, _>>()?;
    <[u32; 24]>::try_from(counts).map_err(|c| format!("{what}: {} entries, want 24", c.len()))
}

fn hours(counts: &[u32; 24]) -> Value {
    Value::Array(counts.iter().map(|&c| u64::from(c).into()).collect())
}

fn read_offset(v: &Value) -> Result<i32, String> {
    let f = v.as_f64().ok_or("series offset: not a number")?;
    if f.fract() != 0.0 || !(-24.0..=24.0).contains(&f) {
        return Err(format!("series offset {f}: not a whole hour in [-24, 24]"));
    }
    Ok(f as i32)
}

fn read_bool(v: &Value, what: &str) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| format!("{what}: not a bool"))
}

fn read_str(v: &Value, what: &str) -> Result<String, String> {
    Ok(v.as_str()
        .ok_or_else(|| format!("{what}: not a string"))?
        .to_string())
}

fn read_array<'v>(v: &'v Value, what: &str) -> Result<&'v Vec<Value>, String> {
    v.as_array().ok_or_else(|| format!("{what}: not an array"))
}

impl StreamEngine {
    /// Serializes the complete engine state (minus the advisory live
    /// window) to canonical JSON. `clasp-core` embeds this under the
    /// `"stream"` key of campaign checkpoints.
    pub fn snapshot(&self) -> Value {
        let mut m = Canon::new();
        m.put("version", 1u64);
        m.put("measurement", self.cfg.measurement.clone());
        m.put("field", self.cfg.field.clone());
        m.put("finalized", self.finalized);
        m.put("current_h", fb(self.current_h));

        let mut stats = Canon::new();
        stats.put("events_seen", self.stats.events_seen);
        stats.put("points_matched", self.stats.points_matched);
        stats.put("days_closed", self.stats.days_closed);
        stats.put("labels_emitted", self.stats.labels_emitted);
        stats.put("out_of_order", self.stats.out_of_order);
        stats.put("duplicates", self.stats.duplicates);
        stats.put("gap_hours", self.stats.gap_hours);
        stats.put("late_dropped", self.stats.late_dropped);
        stats.put("window_updates", self.stats.window_updates);
        stats.put("recalibrations", self.stats.recalibrations);
        stats.put("alert_transitions", self.stats.alert_transitions);
        m.put("stats", stats.finish());

        let mut recal = Canon::new();
        recal.put(
            "above",
            Value::Array(self.recal.counts().iter().map(|&c| c.into()).collect()),
        );
        recal.put("total", self.recal.total());
        m.put("recal", recal.finish());

        let series: Vec<Value> = self
            .series
            .iter()
            .zip(&self.states)
            .map(|(meta, st)| {
                let mut s = Canon::new();
                s.put("key", meta.key.clone());
                s.put("server", meta.server.clone());
                s.put("region", meta.region.clone());
                s.put("tier", meta.tier.clone());
                s.put("offset", Value::Number(meta.utc_offset as f64));
                s.put("max_day", iv(st.max_day));
                s.put("closed_through", iv(st.closed_through));
                s.put("last_time", st.last_time.map_or(Value::Null, |t| t.into()));
                s.put("hour_events", hours(&st.tally.events));
                s.put("hour_trials", hours(&st.tally.trials));
                s.put("days_total", u64::from(st.tally.days));
                s.put("days_with_event", u64::from(st.tally.event_days));
                s.put("last_label_time", st.last_label_time);
                let mut a = Canon::new();
                a.put("active", st.alert.active);
                a.put("on_streak", u64::from(st.alert.on_streak));
                a.put("off_streak", u64::from(st.alert.off_streak));
                a.put("start", st.alert.start);
                a.put("peak", fb(st.alert.peak));
                a.put("events", u64::from(st.alert.events));
                s.put("alert", a.finish());
                let open: Vec<Value> = st
                    .open
                    .iter()
                    .map(|(&day, w)| {
                        let mut o = Canon::new();
                        o.put("day", iv(day));
                        // In arrival order: sealing folds the extrema and
                        // stable-sorts ties in that order.
                        o.put(
                            "entries",
                            Value::Array(
                                w.entries()
                                    .iter()
                                    .map(|&(t, v)| Value::Array(vec![t.into(), fb(v)]))
                                    .collect(),
                            ),
                        );
                        o.finish()
                    })
                    .collect();
                s.put("open", Value::Array(open));
                s.finish()
            })
            .collect();
        m.put("series", Value::Array(series));

        m.put(
            "day_records",
            Value::Array(
                self.day_records
                    .iter()
                    .map(|d| {
                        Value::Array(vec![
                            u64::from(d.series_idx).into(),
                            iv(d.local_day),
                            fb(d.v),
                            fb(d.t_max),
                            fb(d.t_min),
                            d.n.into(),
                        ])
                    })
                    .collect(),
            ),
        );
        m.put(
            "labels",
            Value::Array(
                self.labels
                    .iter()
                    .map(|l| {
                        Value::Array(vec![
                            u64::from(l.series_idx).into(),
                            l.time.into(),
                            u64::from(l.local_hour).into(),
                            iv(l.local_day),
                            fb(l.value),
                            fb(l.v_h),
                            l.congested.into(),
                        ])
                    })
                    .collect(),
            ),
        );
        m.put(
            "alerts",
            Value::Array(
                self.alerts
                    .iter()
                    .map(|a| {
                        Value::Array(vec![
                            u64::from(a.series_idx).into(),
                            a.start.into(),
                            a.end.into(),
                            fb(a.peak_v_h),
                            u64::from(a.events).into(),
                            a.open.into(),
                        ])
                    })
                    .collect(),
            ),
        );
        m.finish()
    }

    /// Rebuilds an engine from a [`Self::snapshot`]. `cfg` and `offsets`
    /// must be the ones the snapshotted engine ran with (the snapshot
    /// cross-checks measurement and field and the sweep resolution; the
    /// rest is the caller's contract). The advisory live window restarts
    /// empty.
    pub fn restore(
        cfg: EngineConfig,
        offsets: BTreeMap<String, i32>,
        snap: &Value,
    ) -> Result<Self, String> {
        let version = read_u64(get(snap, "version", "snapshot")?, "version")?;
        if version != 1 {
            return Err(format!("unsupported stream snapshot version {version}"));
        }
        if read_str(get(snap, "measurement", "snapshot")?, "measurement")? != cfg.measurement
            || read_str(get(snap, "field", "snapshot")?, "field")? != cfg.field
        {
            return Err("stream snapshot was taken with a different measurement/field".into());
        }
        let mut engine = Self::new(cfg, offsets);
        engine.finalized = read_bool(get(snap, "finalized", "snapshot")?, "finalized")?;
        engine.current_h = read_fb(get(snap, "current_h", "snapshot")?, "current_h")?;

        let stats = get(snap, "stats", "snapshot")?;
        let su = |k: &str| -> Result<u64, String> { read_u64(get(stats, k, "stats")?, k) };
        engine.stats.events_seen = su("events_seen")?;
        engine.stats.points_matched = su("points_matched")?;
        engine.stats.days_closed = su("days_closed")?;
        engine.stats.labels_emitted = su("labels_emitted")?;
        engine.stats.out_of_order = su("out_of_order")?;
        engine.stats.duplicates = su("duplicates")?;
        engine.stats.gap_hours = su("gap_hours")?;
        engine.stats.late_dropped = su("late_dropped")?;
        engine.stats.window_updates = su("window_updates")?;
        engine.stats.recalibrations = su("recalibrations")?;
        engine.stats.alert_transitions = su("alert_transitions")?;

        let recal = get(snap, "recal", "snapshot")?;
        let above: Vec<u64> = read_array(get(recal, "above", "recal")?, "recal.above")?
            .iter()
            .map(|v| read_u64(v, "recal.above"))
            .collect::<Result<_, _>>()?;
        if above.len() != engine.cfg.sweep_steps + 1 {
            return Err(format!(
                "stream snapshot sweep has {} thresholds, config wants {}",
                above.len(),
                engine.cfg.sweep_steps + 1
            ));
        }
        if !above.windows(2).all(|w| w[0] >= w[1]) {
            return Err("stream snapshot sweep counts are not non-increasing".into());
        }
        let total = read_u64(get(recal, "total", "recal")?, "recal.total")?;
        engine.recal = StreamingElbow::from_counts(above, total);

        for s in read_array(get(snap, "series", "snapshot")?, "series")? {
            let key = read_str(get(s, "key", "series")?, "key")?;
            let meta = SeriesMeta {
                key: key.clone(),
                server: read_str(get(s, "server", "series")?, "server")?,
                region: read_str(get(s, "region", "series")?, "region")?,
                tier: read_str(get(s, "tier", "series")?, "tier")?,
                utc_offset: read_offset(get(s, "offset", "series")?)?,
            };
            let idx = engine.register_series(meta);
            let st = &mut engine.states[idx];
            st.max_day = read_iv(get(s, "max_day", "series")?, "max_day")?;
            st.closed_through = read_iv(get(s, "closed_through", "series")?, "closed_through")?;
            st.last_time = match get(s, "last_time", "series")? {
                Value::Null => None,
                v => Some(read_u64(v, "last_time")?),
            };
            st.tally = HourTally {
                events: read_hours(get(s, "hour_events", "series")?, "hour_events")?,
                trials: read_hours(get(s, "hour_trials", "series")?, "hour_trials")?,
                days: read_u32(get(s, "days_total", "series")?, "days_total")?,
                event_days: read_u32(get(s, "days_with_event", "series")?, "days_with_event")?,
            };
            st.last_label_time = read_u64(get(s, "last_label_time", "series")?, "last_label_time")?;
            let a = get(s, "alert", "series")?;
            st.alert = AlertState {
                active: read_bool(get(a, "active", "alert")?, "active")?,
                on_streak: read_u32(get(a, "on_streak", "alert")?, "on_streak")?,
                off_streak: read_u32(get(a, "off_streak", "alert")?, "off_streak")?,
                start: read_u64(get(a, "start", "alert")?, "start")?,
                peak: read_fb(get(a, "peak", "alert")?, "peak")?,
                events: read_u32(get(a, "events", "alert")?, "events")?,
            };
            for o in read_array(get(s, "open", "series")?, "open")? {
                let day = read_iv(get(o, "day", "open window")?, "open day")?;
                for e in read_array(get(o, "entries", "open window")?, "entries")? {
                    let [t, v] = read_array(e, "entry")?.as_slice() else {
                        return Err("open-window entry is not a [time, value] pair".into());
                    };
                    let (t, v) = (read_u64(t, "entry time")?, read_fb(v, "entry value")?);
                    st.open.entry(day).or_default().push(t, v);
                }
            }
        }

        for d in read_array(get(snap, "day_records", "snapshot")?, "day_records")? {
            let row = read_array(d, "day record")?;
            if row.len() != 6 {
                return Err("day record is not a 6-tuple".into());
            }
            engine.day_records.push(DayRecord {
                series_idx: read_u32(&row[0], "day series_idx")?,
                local_day: read_iv(&row[1], "day local_day")?,
                v: read_fb(&row[2], "day v")?,
                t_max: read_fb(&row[3], "day t_max")?,
                t_min: read_fb(&row[4], "day t_min")?,
                n: read_u64(&row[5], "day n")? as usize,
            });
        }
        for l in read_array(get(snap, "labels", "snapshot")?, "labels")? {
            let row = read_array(l, "label")?;
            if row.len() != 7 {
                return Err("label is not a 7-tuple".into());
            }
            engine.labels.push(HourLabel {
                series_idx: read_u32(&row[0], "label series_idx")?,
                time: read_u64(&row[1], "label time")?,
                local_hour: read_u64(&row[2], "label local_hour")? as u8,
                local_day: read_iv(&row[3], "label local_day")?,
                value: read_fb(&row[4], "label value")?,
                v_h: read_fb(&row[5], "label v_h")?,
                congested: read_bool(&row[6], "label congested")?,
            });
        }
        for a in read_array(get(snap, "alerts", "snapshot")?, "alerts")? {
            let row = read_array(a, "alert")?;
            if row.len() != 6 {
                return Err("alert is not a 6-tuple".into());
            }
            let series_idx = read_u32(&row[0], "alert series_idx")?;
            let meta = engine
                .series
                .get(series_idx as usize)
                .ok_or("alert references an unknown series")?;
            engine.alerts.push(CongestionAlert {
                series_idx,
                series: meta.key.clone(),
                server: meta.server.clone(),
                start: read_u64(&row[1], "alert start")?,
                end: read_u64(&row[2], "alert end")?,
                peak_v_h: read_fb(&row[3], "alert peak")?,
                events: read_u32(&row[4], "alert events")?,
                open: read_bool(&row[5], "alert open")?,
            });
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ThresholdMode;
    use simnet::time::{HOUR, SECONDS_PER_DAY};
    use tsdb::Point;

    fn point(server: &str, t: u64, down: f64) -> Point {
        Point::new("speedtest", t)
            .tag("region", "us-west1")
            .tag("server", server)
            .tag("tier", "premium")
            .tag("method", "topo")
            .field("download", down)
    }

    fn stream(seed: u64, n_days: u64) -> Vec<Point> {
        let mut pts = Vec::new();
        for day in 0..n_days {
            for h in 0..24u64 {
                // Deterministic pseudo-random walk with occasional dips.
                let x = (seed ^ (day * 31 + h)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let base = 60.0 + (x % 1000) as f64 / 20.0;
                let v = if (x >> 10).is_multiple_of(11) {
                    base / 6.0
                } else {
                    base
                };
                for server in ["s1", "s2"] {
                    pts.push(point(server, day * SECONDS_PER_DAY + h * HOUR, v));
                }
            }
        }
        pts
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            threshold: ThresholdMode::Auto {
                initial: 0.5,
                min_days: 3,
            },
            ..EngineConfig::paper()
        }
    }

    fn offsets() -> BTreeMap<String, i32> {
        [("s1".to_string(), -5), ("s2".to_string(), 9)].into()
    }

    #[test]
    fn roundtrip_preserves_snapshot_bytes() {
        let mut e = StreamEngine::new(cfg(), offsets());
        for p in stream(7, 5) {
            e.ingest(&p);
        }
        let snap = e.snapshot();
        let back = StreamEngine::restore(cfg(), offsets(), &snap).unwrap();
        assert_eq!(
            serde_json::to_string(&snap),
            serde_json::to_string(&back.snapshot()),
        );
        assert_eq!(back.events_seen(), e.events_seen());
        assert_eq!(back.labels(), e.labels());
        assert_eq!(back.day_records(), e.day_records());
        assert_eq!(back.threshold(), e.threshold());
    }

    #[test]
    fn resumed_engine_finishes_identical_to_uninterrupted() {
        let pts = stream(11, 8);
        let mut full = StreamEngine::new(cfg(), offsets());
        for p in &pts {
            full.ingest(p);
        }

        // Interrupt mid-stream (mid-day, windows open, alerts pending).
        let cut = pts.len() / 2 + 7;
        let mut first = StreamEngine::new(cfg(), offsets());
        for p in &pts[..cut] {
            first.ingest(p);
        }
        let snap = first.snapshot();
        let mut resumed = StreamEngine::restore(cfg(), offsets(), &snap).unwrap();
        assert_eq!(resumed.events_seen(), cut as u64);
        for p in &pts[cut..] {
            resumed.ingest(p);
        }

        full.finalize();
        resumed.finalize();
        assert_eq!(full.labels(), resumed.labels());
        assert_eq!(full.day_records(), resumed.day_records());
        assert_eq!(full.alerts(), resumed.alerts());
        assert_eq!(full.stats(), resumed.stats());
        assert_eq!(
            serde_json::to_string(&full.snapshot()),
            serde_json::to_string(&resumed.snapshot()),
        );
    }

    /// Asserts that every object in `v` iterates (and therefore
    /// serializes) its keys in strictly ascending order.
    fn assert_sorted_objects(v: &Value, path: &str) {
        match v {
            Value::Object(m) => {
                let keys: Vec<&String> = m.keys().collect();
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "unsorted keys at {path}: {keys:?}"
                );
                for (k, child) in m.iter() {
                    assert_sorted_objects(child, &format!("{path}.{k}"));
                }
            }
            Value::Array(items) => {
                for (i, child) in items.iter().enumerate() {
                    assert_sorted_objects(child, &format!("{path}[{i}]"));
                }
            }
            _ => {}
        }
    }

    #[test]
    fn snapshot_bytes_are_key_sorted() {
        let mut e = StreamEngine::new(cfg(), offsets());
        for p in stream(3, 4) {
            e.ingest(&p);
        }
        let snap = e.snapshot();
        assert_sorted_objects(&snap, "snapshot");

        // And in the actual bytes: the top-level keys appear in sorted
        // textual positions (`"alerts"` first, `"version"` last).
        let text = serde_json::to_string(&snap);
        let mut last = 0usize;
        for key in [
            "\"alerts\":",
            "\"current_h\":",
            "\"day_records\":",
            "\"field\":",
            "\"finalized\":",
            "\"labels\":",
            "\"measurement\":",
            "\"recal\":",
            "\"series\":",
            "\"stats\":",
            "\"version\":",
        ] {
            let at = text.find(key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(at > last || last == 0, "{key} out of order");
            last = at;
        }
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let e = StreamEngine::new(cfg(), offsets());
        let snap = e.snapshot();
        let mut other = cfg();
        other.field = "upload".into();
        assert!(StreamEngine::restore(other, offsets(), &snap)
            .unwrap_err()
            .contains("different measurement/field"));
        let mut narrow = cfg();
        narrow.sweep_steps = 10;
        assert!(StreamEngine::restore(narrow, offsets(), &snap)
            .unwrap_err()
            .contains("thresholds"));
    }

    #[test]
    fn restore_rejects_garbage() {
        let bad = serde_json::from_str("{}").unwrap();
        assert!(StreamEngine::restore(cfg(), offsets(), &bad).is_err());
        let wrong_version = serde_json::from_str(r#"{"version": 9}"#).unwrap();
        assert!(StreamEngine::restore(cfg(), offsets(), &wrong_version)
            .unwrap_err()
            .contains("version"));
    }

    /// `snap` re-parsed with the first `from` in its bytes replaced by `to`.
    fn edited(snap: &Value, from: &str, to: &str) -> Value {
        let text = serde_json::to_string(snap);
        assert!(text.contains(from), "snapshot lacks {from}");
        serde_json::from_str(&text.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn restore_rejects_hour_arrays_not_24_long() {
        // One open point: every hour count is still zero.
        let mut e = StreamEngine::new(cfg(), offsets());
        e.ingest(&point("s1", 5 * HOUR, 80.0));
        let snap = e.snapshot();
        for key in ["hour_events", "hour_trials"] {
            let from = format!("\"{key}\":[0,");
            for to in [format!("\"{key}\":["), format!("\"{key}\":[0,0,")] {
                let err = StreamEngine::restore(cfg(), offsets(), &edited(&snap, &from, &to))
                    .unwrap_err();
                assert!(err.contains(key) && err.contains("want 24"), "{err}");
            }
        }
    }

    #[test]
    fn restore_rejects_fractional_or_huge_offsets() {
        let mut e = StreamEngine::new(cfg(), offsets());
        e.ingest(&point("s1", 5 * HOUR, 80.0));
        let snap = e.snapshot();
        for bad in ["5.5", "1e12", "-25", "\"-5\""] {
            let err = StreamEngine::restore(
                cfg(),
                offsets(),
                &edited(&snap, "\"offset\":-5", &format!("\"offset\":{bad}")),
            )
            .unwrap_err();
            assert!(err.contains("offset"), "{bad}: {err}");
        }
        let ok = edited(&snap, "\"offset\":-5", "\"offset\":-24");
        assert!(StreamEngine::restore(cfg(), offsets(), &ok).is_ok());
    }
}
