//! The query engine: filter → window → aggregate.
//!
//! A [`Query`] selects one field of one measurement, filters by tags and
//! time range, optionally groups into fixed windows (`group_by_time`), and
//! reduces each window (or the whole range) with an [`Aggregate`]. Results
//! come back per matching series, so `SELECT max(mbps) FROM throughput
//! WHERE region='us-west1' GROUP BY time(1d)` is one call.

use crate::db::{Db, Sample};
use crate::snapshot::Snapshot;

/// Reduction applied to the samples of one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregate {
    /// Smallest value.
    Min,
    /// Largest value.
    Max,
    /// Arithmetic mean.
    Mean,
    /// Number of samples.
    Count,
    /// Sum of values.
    Sum,
    /// Last value in time order.
    Last,
    /// Linear-interpolation percentile, `0.0 ..= 100.0`.
    ///
    /// The rank is clamped into `[0, 100]` (a NaN rank yields no row).
    /// Every window edge case is well-defined: an empty window produces
    /// no row (like every other aggregate), a single-point window
    /// returns that point for any rank, and non-finite sample values
    /// are ordered with IEEE total order instead of panicking.
    Percentile(f64),
}

impl Aggregate {
    fn apply(&self, values: &mut [f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        match self {
            Aggregate::Min => values.iter().copied().reduce(f64::min),
            Aggregate::Max => values.iter().copied().reduce(f64::max),
            Aggregate::Mean => Some(values.iter().sum::<f64>() / values.len() as f64),
            Aggregate::Count => Some(values.len() as f64),
            Aggregate::Sum => Some(values.iter().sum()),
            Aggregate::Last => values.last().copied(),
            Aggregate::Percentile(p) => {
                if p.is_nan() {
                    return None;
                }
                if values.len() == 1 {
                    // Any percentile of one sample is that sample; skip
                    // the interpolation entirely so the edge cannot
                    // produce `values[0] + 0 * garbage` artifacts.
                    return Some(values[0]);
                }
                // Total order: NaN/±inf fields (possible via decoded
                // line protocol, which bypasses the builder's finite
                // check) sort deterministically instead of panicking.
                values.sort_by(|a, b| a.total_cmp(b));
                let pos = (p / 100.0).clamp(0.0, 1.0) * (values.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                if lo == hi {
                    // Exact rank: no interpolation, so an infinite value
                    // comes back as itself rather than `inf - inf`.
                    return Some(values[lo]);
                }
                Some(values[lo] + (values[hi] - values[lo]) * (pos - lo as f64))
            }
        }
    }
}

/// One output row: window start time and aggregated value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Window start (or range start for un-grouped queries).
    pub time: u64,
    /// Aggregated value.
    pub value: f64,
}

/// Result for one matching series.
#[derive(Debug, Clone)]
pub struct SeriesResult {
    /// The series' tags rendered as the canonical key.
    pub series_key: String,
    /// One row per non-empty window.
    pub rows: Vec<Row>,
}

/// A query under construction.
#[derive(Debug, Clone)]
pub struct Query {
    measurement: String,
    field: String,
    filters: Vec<(String, String)>,
    start: u64,
    end: u64,
    window: Option<u64>,
    aggregate: Aggregate,
}

impl Query {
    /// Selects `field` from `measurement` with a [`Aggregate::Last`]
    /// reduction over the full time range (override with the builders).
    pub fn select(measurement: impl Into<String>, field: impl Into<String>) -> Self {
        Self {
            measurement: measurement.into(),
            field: field.into(),
            filters: Vec::new(),
            start: 0,
            end: u64::MAX,
            window: None,
            aggregate: Aggregate::Last,
        }
    }

    /// Requires `tag == value` on matching series.
    pub fn r#where(mut self, tag: impl Into<String>, value: impl Into<String>) -> Self {
        self.filters.push((tag.into(), value.into()));
        self
    }

    /// Restricts to samples with `start <= time < end`.
    pub fn time_range(mut self, start: u64, end: u64) -> Self {
        assert!(start <= end, "inverted time range");
        self.start = start;
        self.end = end;
        self
    }

    /// Groups samples into fixed windows of `seconds`.
    pub fn group_by_time(mut self, seconds: u64) -> Self {
        assert!(seconds > 0, "zero window");
        self.window = Some(seconds);
        self
    }

    /// Sets the reduction.
    pub fn aggregate(mut self, agg: Aggregate) -> Self {
        self.aggregate = agg;
        self
    }

    /// Evaluates the query over one series' time-ordered samples. This
    /// single code path backs both [`Query::run`] and
    /// [`Query::run_snapshot`], which is what makes their results
    /// identical by construction.
    fn eval_series(&self, key: &str, samples: &[Sample]) -> Option<SeriesResult> {
        // Binary search the time range bounds.
        let lo = samples.partition_point(|(t, _)| *t < self.start);
        let hi = samples.partition_point(|(t, _)| *t < self.end);
        let in_range = &samples[lo..hi];

        let mut rows = Vec::new();
        match self.window {
            None => {
                let mut values: Vec<f64> = in_range
                    .iter()
                    .filter_map(|(_, f)| f.get(&self.field).copied())
                    .collect();
                if let Some(v) = self.aggregate.apply(&mut values) {
                    rows.push(Row {
                        time: self.start,
                        value: v,
                    });
                }
            }
            Some(w) => {
                let mut i = 0;
                while i < in_range.len() {
                    let window_start = in_range[i].0 / w * w;
                    let window_end = window_start + w;
                    let mut values = Vec::new();
                    while i < in_range.len() && in_range[i].0 < window_end {
                        if let Some(v) = in_range[i].1.get(&self.field) {
                            values.push(*v);
                        }
                        i += 1;
                    }
                    if let Some(v) = self.aggregate.apply(&mut values) {
                        rows.push(Row {
                            time: window_start,
                            value: v,
                        });
                    }
                }
            }
        }
        if rows.is_empty() {
            return None;
        }
        Some(SeriesResult {
            series_key: key.to_string(),
            rows,
        })
    }

    /// Runs the query against a database.
    ///
    /// Needs `&mut` only because reading a [`Db`] may finalize lazy
    /// sorts; pure read-side callers should take a [`Db::snapshot`]
    /// once and use [`Query::run_snapshot`], which borrows immutably
    /// and can serve any number of threads.
    pub fn run(&self, db: &mut Db) -> Vec<SeriesResult> {
        let mut out = Vec::new();
        for series in db.matching_series(&self.measurement, &self.filters) {
            let key = series.key().to_string();
            if let Some(res) = self.eval_series(&key, series.samples()) {
                out.push(res);
            }
        }
        out.sort_by(|a, b| a.series_key.cmp(&b.series_key));
        out
    }

    /// Runs the query against an immutable [`Snapshot`].
    ///
    /// Results are identical to [`Query::run`] over the database the
    /// snapshot was taken from — both paths share the same per-series
    /// evaluation and the same canonical result ordering.
    pub fn run_snapshot(&self, snap: &Snapshot) -> Vec<SeriesResult> {
        let mut out = Vec::new();
        for series in snap.matching_series(&self.measurement, &self.filters) {
            if let Some(res) = self.eval_series(series.key(), series.samples()) {
                out.push(res);
            }
        }
        out.sort_by(|a, b| a.series_key.cmp(&b.series_key));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn db_with_day() -> Db {
        let mut db = Db::new();
        // 24 hourly samples for two servers; server "a" dips at hour 20.
        for h in 0..24u64 {
            let mbps_a = if h == 20 { 100.0 } else { 400.0 + h as f64 };
            db.insert(
                Point::new("throughput", h * 3600)
                    .tag("server", "a")
                    .field("mbps", mbps_a),
            );
            db.insert(
                Point::new("throughput", h * 3600)
                    .tag("server", "b")
                    .field("mbps", 300.0),
            );
        }
        db
    }

    #[test]
    fn ungrouped_max() {
        let mut db = db_with_day();
        let res = Query::select("throughput", "mbps")
            .r#where("server", "a")
            .aggregate(Aggregate::Max)
            .run(&mut db);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].rows[0].value, 423.0);
    }

    #[test]
    fn grouped_by_six_hours() {
        let mut db = db_with_day();
        let res = Query::select("throughput", "mbps")
            .r#where("server", "a")
            .group_by_time(6 * 3600)
            .aggregate(Aggregate::Min)
            .run(&mut db);
        let rows = &res[0].rows;
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].time, 0);
        assert_eq!(rows[3].value, 100.0, "the hour-20 dip");
    }

    #[test]
    fn time_range_excludes_end() {
        let mut db = db_with_day();
        let res = Query::select("throughput", "mbps")
            .r#where("server", "b")
            .time_range(0, 3 * 3600)
            .aggregate(Aggregate::Count)
            .run(&mut db);
        assert_eq!(res[0].rows[0].value, 3.0);
    }

    #[test]
    fn all_series_when_unfiltered() {
        let mut db = db_with_day();
        let res = Query::select("throughput", "mbps")
            .aggregate(Aggregate::Count)
            .run(&mut db);
        assert_eq!(res.len(), 2);
        // Sorted by series key.
        assert!(res[0].series_key < res[1].series_key);
    }

    #[test]
    fn percentile_aggregate() {
        let mut db = Db::new();
        for (i, v) in (0..=100).enumerate() {
            db.insert(Point::new("m", i as u64).tag("s", "x").field("f", v as f64));
        }
        let res = Query::select("m", "f")
            .aggregate(Aggregate::Percentile(95.0))
            .run(&mut db);
        assert_eq!(res[0].rows[0].value, 95.0);
    }

    #[test]
    fn percentile_single_point_window_is_that_point() {
        let mut db = Db::new();
        db.insert(Point::new("m", 10).tag("s", "x").field("f", 7.5));
        for p in [0.0, 37.0, 50.0, 100.0] {
            let res = Query::select("m", "f")
                .aggregate(Aggregate::Percentile(p))
                .run(&mut db);
            assert_eq!(res[0].rows[0].value, 7.5, "p = {p}");
        }
        // Grouped path too: each hourly window holds exactly one point.
        let res = Query::select("m", "f")
            .group_by_time(3600)
            .aggregate(Aggregate::Percentile(95.0))
            .run(&mut db);
        assert_eq!(
            res[0].rows,
            vec![Row {
                time: 0,
                value: 7.5
            }]
        );
    }

    #[test]
    fn percentile_empty_window_yields_no_row() {
        // A series whose samples lack the queried field: the candidate
        // value set is empty in both the grouped and ungrouped paths.
        // The well-defined result is "no row", never a panic.
        let mut db = Db::new();
        db.insert(Point::new("m", 0).tag("s", "x").field("other", 1.0));
        for q in [
            Query::select("m", "f").aggregate(Aggregate::Percentile(50.0)),
            Query::select("m", "f")
                .group_by_time(60)
                .aggregate(Aggregate::Percentile(50.0)),
        ] {
            assert!(q.run(&mut db).is_empty());
        }
    }

    #[test]
    fn percentile_rank_is_clamped_and_nan_rank_yields_no_row() {
        let mut db = Db::new();
        for (t, v) in [(0u64, 1.0), (1, 2.0), (2, 3.0)] {
            db.insert(Point::new("m", t).tag("s", "x").field("f", v));
        }
        let run = |p: f64, db: &mut Db| {
            Query::select("m", "f")
                .aggregate(Aggregate::Percentile(p))
                .run(db)
        };
        assert_eq!(run(-10.0, &mut db)[0].rows[0].value, 1.0);
        assert_eq!(run(500.0, &mut db)[0].rows[0].value, 3.0);
        assert!(run(f64::NAN, &mut db).is_empty());
    }

    #[test]
    fn percentile_tolerates_non_finite_values() {
        // Decoded line protocol cannot carry NaN or ±inf, but a caller
        // can still put them in a Point's `fields` directly; total_cmp
        // orders them deterministically (-inf first, NaN last) instead
        // of panicking mid-sort.
        let mut db = Db::new();
        let mut p = Point::new("m", 0).tag("s", "x").field("f", 1.0);
        p.fields.insert("g".into(), f64::INFINITY);
        db.insert(p);
        let mut q = Point::new("m", 1).tag("s", "x").field("f", 2.0);
        q.fields.insert("g".into(), f64::NAN);
        db.insert(q);
        let res = Query::select("m", "g")
            .aggregate(Aggregate::Percentile(0.0))
            .run(&mut db);
        assert_eq!(res[0].rows[0].value, f64::INFINITY);
    }

    #[test]
    fn missing_field_yields_no_rows() {
        let mut db = db_with_day();
        let res = Query::select("throughput", "nonexistent")
            .aggregate(Aggregate::Mean)
            .run(&mut db);
        assert!(res.is_empty());
    }

    #[test]
    fn mean_and_sum_and_last() {
        let mut db = Db::new();
        for (t, v) in [(0u64, 1.0), (1, 2.0), (2, 6.0)] {
            db.insert(Point::new("m", t).tag("s", "x").field("f", v));
        }
        let mut run = |agg| Query::select("m", "f").aggregate(agg).run(&mut db)[0].rows[0].value;
        assert_eq!(run(Aggregate::Mean), 3.0);
        assert_eq!(run(Aggregate::Sum), 9.0);
        assert_eq!(run(Aggregate::Last), 6.0);
        assert_eq!(run(Aggregate::Min), 1.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        Query::select("m", "f").time_range(10, 5);
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn zero_window_panics() {
        Query::select("m", "f").group_by_time(0);
    }

    #[test]
    fn run_snapshot_is_identical_to_run() {
        let mut db = db_with_day();
        let queries = [
            Query::select("throughput", "mbps").aggregate(Aggregate::Max),
            Query::select("throughput", "mbps")
                .r#where("server", "a")
                .group_by_time(6 * 3600)
                .aggregate(Aggregate::Percentile(95.0)),
            Query::select("throughput", "mbps")
                .time_range(3600, 20 * 3600)
                .aggregate(Aggregate::Mean),
            Query::select("throughput", "nope").aggregate(Aggregate::Sum),
        ];
        let snap = db.snapshot();
        for q in &queries {
            let direct = q.run(&mut db);
            let snapped = q.run_snapshot(&snap);
            assert_eq!(direct.len(), snapped.len());
            for (d, s) in direct.iter().zip(&snapped) {
                assert_eq!(d.series_key, s.series_key);
                assert_eq!(d.rows, s.rows);
            }
        }
    }

    #[test]
    fn every_aggregate_on_a_single_point_is_well_defined() {
        // A serve client can send any aggregate against any series; a
        // one-sample series must answer all of them without artifacts.
        let mut db = Db::new();
        db.insert(Point::new("m", 7).tag("s", "x").field("f", 3.25));
        for (agg, want) in [
            (Aggregate::Min, 3.25),
            (Aggregate::Max, 3.25),
            (Aggregate::Mean, 3.25),
            (Aggregate::Count, 1.0),
            (Aggregate::Sum, 3.25),
            (Aggregate::Last, 3.25),
            (Aggregate::Percentile(0.0), 3.25),
            (Aggregate::Percentile(50.0), 3.25),
            (Aggregate::Percentile(100.0), 3.25),
        ] {
            let res = Query::select("m", "f").aggregate(agg).run(&mut db);
            assert_eq!(res[0].rows[0].value, want, "{agg:?}");
        }
    }

    #[test]
    fn every_aggregate_on_an_empty_value_set_yields_no_row() {
        // The series exists but lacks the queried field: the candidate
        // set is empty for every aggregate, grouped or not.
        let mut db = Db::new();
        db.insert(Point::new("m", 0).tag("s", "x").field("other", 1.0));
        for agg in [
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Mean,
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Last,
            Aggregate::Percentile(95.0),
        ] {
            assert!(
                Query::select("m", "f")
                    .aggregate(agg)
                    .run(&mut db)
                    .is_empty(),
                "{agg:?} ungrouped"
            );
            assert!(
                Query::select("m", "f")
                    .group_by_time(60)
                    .aggregate(agg)
                    .run(&mut db)
                    .is_empty(),
                "{agg:?} grouped"
            );
        }
    }

    #[test]
    fn finite_inputs_guarantee_finite_outputs() {
        // NaN-free guarantee: for finite stored fields, no aggregate at
        // any rank may produce NaN or infinity — serve responses encode
        // through JSON, where non-finite values degrade to null.
        let mut db = Db::new();
        for (t, v) in [(0u64, -5.0), (1, 0.0), (2, 1e300), (3, -1e300), (4, 2.5)] {
            db.insert(Point::new("m", t).tag("s", "x").field("f", v));
        }
        let ranks = [0.0, 0.1, 33.3, 50.0, 66.7, 99.9, 100.0, -3.0, 250.0];
        for agg in [
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Mean,
            Aggregate::Count,
            Aggregate::Last,
        ]
        .into_iter()
        .chain(ranks.into_iter().map(Aggregate::Percentile))
        {
            for q in [
                Query::select("m", "f").aggregate(agg),
                Query::select("m", "f").group_by_time(2).aggregate(agg),
            ] {
                for series in q.run(&mut db) {
                    for row in &series.rows {
                        assert!(row.value.is_finite(), "{agg:?} -> {}", row.value);
                    }
                }
            }
        }
    }

    #[test]
    fn windows_align_to_epoch() {
        let mut db = Db::new();
        db.insert(Point::new("m", 3599).tag("s", "x").field("f", 1.0));
        db.insert(Point::new("m", 3600).tag("s", "x").field("f", 2.0));
        let res = Query::select("m", "f")
            .group_by_time(3600)
            .aggregate(Aggregate::Count)
            .run(&mut db);
        let rows = &res[0].rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].time, 0);
        assert_eq!(rows[1].time, 3600);
    }
}
