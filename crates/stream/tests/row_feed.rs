//! The two ways into a [`StreamEngine`] — stored rows, as a streaming
//! campaign feeds them from `Db::ingest_lines_with`, and standalone
//! points — must leave byte-identical engines on the same stream.

use clasp_stream::{EngineConfig, StreamEngine, ThresholdMode};
use simnet::time::{HOUR, SECONDS_PER_DAY};
use std::collections::BTreeMap;
use tsdb::{line, Db, Point};

fn cfg() -> EngineConfig {
    EngineConfig {
        threshold: ThresholdMode::Fixed(0.5),
        grace_days: 0,
        ..EngineConfig::paper()
    }
}

fn offsets() -> BTreeMap<String, i32> {
    [("s1".to_string(), 0), ("s2".to_string(), -8)].into()
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

/// A point of `server` without the analyzed field.
fn fieldless(server: &str, t: u64) -> Point {
    let mut p = point(server, t, 1.0);
    p.fields.clear();
    p.field("upload", 1.0)
}

fn assert_same(a: &StreamEngine, b: &StreamEngine) {
    assert_eq!(
        serde_json::to_string(&a.snapshot()),
        serde_json::to_string(&b.snapshot())
    );
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.series(), b.series());
    assert_eq!(a.day_records(), b.day_records());
    assert_eq!(a.labels(), b.labels());
    assert_eq!(a.alerts(), b.alerts());
}

#[test]
fn rows_feed_the_engine_exactly_like_points() {
    let other = |t| {
        Point::new("other", t)
            .tag("server", "s1")
            .field("download", 5.0)
    };
    let objects = [
        line::encode_batch(&[
            // s2's first point lacks the field: s1 registers first.
            fieldless("s2", 0),
            point("s1", 0, 100.0),
            other(0),
            point("s1", HOUR, 90.0).tag("method", "diff"), // filter miss
            point("s2", HOUR, 60.0),
            point("s3 x", 0, 70.0), // escaped: read through `decode`
        ]),
        // Rejected as a whole: feeds nothing.
        format!("{}\nnot a line", line::encode(&point("s1", 7, 1.0))),
        line::encode_batch(&[
            point("s1", 3 * HOUR, 80.0),
            point("s1", 2 * HOUR, 85.0), // out of order
            point("s1", 3 * HOUR, 75.0), // duplicate
            point("s1", HOUR, 95.0).tag("method", "diff"),
            point("s1", SECONDS_PER_DAY, 100.0), // closes day 0
            point("s1", 5 * HOUR, 40.0),         // late
            fieldless("s2", SECONDS_PER_DAY),
            point("s2", SECONDS_PER_DAY + HOUR, 30.0),
            other(HOUR),
        ]),
    ];
    let mut by_point = StreamEngine::new(cfg(), offsets());
    let mut by_row = StreamEngine::new(cfg(), offsets());
    let mut db = Db::new();
    for text in &objects {
        let points = line::decode_batch(text);
        let rows = db.ingest_lines_with(text, |id, series, time, fields| {
            by_row.ingest_row(id, series, time, fields)
        });
        assert_eq!(points.is_ok(), rows.is_ok());
        points.iter().flatten().for_each(|p| by_point.ingest(p));
        assert_same(&by_point, &by_row);
    }
    by_point.finalize();
    by_row.finalize();
    assert_same(&by_point, &by_row);

    // The stream exercised every case it is meant to.
    let s = by_row.stats();
    assert_eq!((s.events_seen, s.points_matched), (15, 9));
    assert_eq!((s.out_of_order, s.duplicates, s.late_dropped), (2, 1, 1));
    let servers: Vec<&str> = by_row.series().iter().map(|m| m.server.as_str()).collect();
    assert_eq!(servers, ["s1", "s2", "s3 x"]);
}
