//! Canonical snapshot of the engine state: the oracle the equivalence
//! suites compare engine states by, byte for byte.
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
//! influences no label, record or alert. Snapshots are never read back:
//! campaign checkpoints carry no engine state, and a resumed streaming
//! run rebuilds it by replaying the completed units into a fresh engine.

use crate::engine::StreamEngine;
use serde_json::{Map, Value};

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
            pairs.is_sorted_by(|a, b| a.0 < b.0),
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

fn hours(counts: &[u32; 24]) -> Value {
    Value::Array(counts.iter().map(|&c| u64::from(c).into()).collect())
}

impl StreamEngine {
    /// Serializes the complete engine state (minus the advisory live
    /// window) to canonical JSON.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ThresholdMode};
    use simnet::time::{HOUR, SECONDS_PER_DAY};
    use std::collections::BTreeMap;
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
}
