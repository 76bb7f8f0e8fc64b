//! The data pipeline (§3.3): raw bucket objects → time-series database.
//!
//! Measurement VMs upload batches of line protocol to the storage
//! bucket; the analysis VM (same region as the bucket, to avoid
//! inter-region transfer charges) reads them and indexes the points into
//! the time-series store, the role InfluxDB plays in the paper.
//!
//! A VM's batch is uploaded as a typed [`Block`] ([`results_block`]):
//! one series head per server and tier, and per test its time and five
//! values. Its text, which billing meters, is what the paper's VMs
//! would upload, but nothing renders it on the way to the store.
//!
//! There is one ingest path, [`ingest_streaming`], at every job count
//! and on resume: objects go into the store one at a time, in bucket
//! listing order. A block is read by [`Db::ingest_block_with`], which
//! stores exactly what [`Db::ingest_lines_with`] stores from the
//! block's text; an object held as text is read by the latter. Both
//! keep a malformed object out of the store entirely and show each
//! stored row to the caller (a streaming campaign feeds them to its
//! engine).

use cloudsim::bucket::{Bucket, Payload};
use simnet::routing::Tier;
use simnet::time::SimTime;
use speedtest::client::TestResult;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use tsdb::{Block, Db, FieldSet, Point, Series, SeriesId};

/// Converts one test result into its storable point.
pub fn result_to_point(r: &TestResult, region: &str, method: &str) -> Point {
    Point::new("speedtest", r.time.as_secs())
        .tag("region", region)
        .tag("server", &r.server_id)
        .tag(
            "tier",
            if r.tier_premium {
                Tier::Premium.label()
            } else {
                Tier::Standard.label()
            },
        )
        .tag("method", method)
        .field("download", r.download_mbps)
        .field("upload", r.upload_mbps)
        .field("latency", r.latency_ms)
        .field("dloss", r.download_loss)
        .field("uloss", r.upload_loss)
}

/// A test result's fields, in the sorted order line protocol keys them;
/// [`results_block`] writes each row's values in this order.
const RESULT_FIELDS: [&str; 5] = ["dloss", "download", "latency", "uloss", "upload"];

/// A result batch as a typed block, without the per-point `BTreeMap`s
/// of [`result_to_point`]: one head per (server, tier), built once, with
/// the tag keys in their sorted order, and per result its time and
/// values. The block renders exactly the encoding of the points (pinned
/// by `direct_encode_matches_point_encode`).
pub fn results_block(results: &[TestResult], region: &str, method: &str) -> Block {
    let mut block = Block::with_capacity(&RESULT_FIELDS, results.len());
    let mut heads: HashMap<(&str, bool), u32> = HashMap::new();
    let mut head = String::new();
    for r in results {
        let h = match heads.entry((r.server_id.as_str(), r.tier_premium)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                head.clear();
                head.push_str("speedtest,method=");
                tsdb::line::escape_into(method, &mut head);
                head.push_str(",region=");
                tsdb::line::escape_into(region, &mut head);
                head.push_str(",server=");
                tsdb::line::escape_into(&r.server_id, &mut head);
                head.push_str(",tier=");
                head.push_str(if r.tier_premium {
                    Tier::Premium.label()
                } else {
                    Tier::Standard.label()
                });
                *e.insert(block.push_head(&head))
            }
        };
        let values = [
            r.download_loss,
            r.download_mbps,
            r.latency_ms,
            r.upload_loss,
            r.upload_mbps,
        ];
        block.push_row(h, r.time.as_secs(), &values);
    }
    block
}

/// Uploads a batch of results as one bucket object
/// (`raw/<region>/<day>/<vm>.lp`).
pub fn upload_batch(
    bucket: &mut Bucket,
    region: &str,
    method: &str,
    vm: &str,
    results: &[TestResult],
    now: SimTime,
) -> String {
    let body = Payload::Block(results_block(results, region, method));
    let key = format!("raw/{}/{:04}/{}.lp", region, now.day(), vm);
    bucket.put_payload(key.clone(), Arc::new(body), now);
    key
}

/// Fault-aware batch upload with bounded sim-time retries.
///
/// Builds the batch's block once and attempts the upload under the fault plan;
/// failed attempts back off per `policy` (each attempt re-draws
/// independently). Every failure is recorded in `log` under
/// `log_region`: a later success marks the fault recovered, exhausting
/// the budget marks it lost with one server-hour per batched result.
/// Returns the object key on success, `None` when the batch was lost.
/// With an empty plan this is exactly [`upload_batch`].
#[allow(clippy::too_many_arguments)]
pub fn upload_batch_resilient(
    bucket: &mut Bucket,
    region: &str,
    method: &str,
    vm: &str,
    results: &[TestResult],
    now: SimTime,
    plan: &faultsim::FaultPlan,
    policy: &faultsim::RetryPolicy,
    log: &mut faultsim::FaultLog,
    log_region: &str,
) -> Option<String> {
    let key = format!("raw/{}/{:04}/{}.lp", region, now.day(), vm);
    let jitter_key = faultsim::name_key(vm) ^ now.day();
    let mut fault_id = None;
    let body = Arc::new(Payload::Block(results_block(results, region, method)));
    for attempt in 0..policy.max_attempts {
        match bucket.try_put(key.clone(), &body, now, plan, vm, now.day(), attempt) {
            Ok(()) => {
                if let Some(id) = fault_id {
                    let recovered_at = now.as_secs() + policy.total_delay(attempt + 1, jitter_key);
                    log.mark_recovered(id, attempt, recovered_at);
                }
                return Some(key);
            }
            Err(_) if attempt == 0 => {
                fault_id = Some(log.record(
                    now.as_secs(),
                    faultsim::FaultKind::UploadFailure,
                    log_region,
                    vm,
                    format!("day {} batch", now.day()),
                ));
            }
            Err(_) => {}
        }
    }
    if let Some(id) = fault_id {
        log.mark_lost(id, results.len() as u64);
    }
    None
}

/// Ingests every object under `raw/` into the database, returning how
/// many points were indexed. Malformed lines abort the object (counted
/// in `errors`, with the offending key and line recorded in
/// [`IngestStats::error_objects`]) without poisoning the rest.
pub fn ingest(bucket: &Bucket, db: &mut Db) -> IngestStats {
    ingest_streaming(bucket, db, |_, _| {}, |_, _, _, _| {})
}

/// Streaming [`ingest`]: indexes objects one at a time, in bucket
/// listing order, showing each stored row to `on_row` (see
/// [`Db::ingest_lines_with`]) and calling `on_object(key, n_points)`
/// for each successfully parsed object. At most one object's rows are
/// staged at once, and a malformed object leaves the database untouched.
pub fn ingest_streaming(
    bucket: &Bucket,
    db: &mut Db,
    mut on_object: impl FnMut(&str, u64),
    mut on_row: impl FnMut(SeriesId, &Series, u64, &FieldSet),
) -> IngestStats {
    let mut stats = IngestStats::default();
    for key in bucket.list("raw/") {
        let Some(obj) = bucket.get(key) else {
            continue; // listed keys exist
        };
        stats.raw_bytes += obj.data.len() as u64;
        stats.packed_bytes += obj.data.held_bytes() as u64;
        let got = match &*obj.data {
            Payload::Block(block) => db.ingest_block_with(block, &mut on_row),
            Payload::Text(text) => db.ingest_lines_with(text, &mut on_row),
        };
        match got {
            Ok(got) => {
                stats.points += got.points;
                stats.fallback_lines += got.fallback_lines;
                on_object(key, got.points);
                stats.objects += 1;
            }
            Err((line, e)) => {
                stats.errors += 1;
                let detail = format!("{key}: line {line}: {e}");
                #[cfg(debug_assertions)]
                eprintln!("ingest: skipping malformed object {detail}");
                stats.error_objects.push(detail);
            }
        }
    }
    stats
}

/// Ingestion counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IngestStats {
    /// Objects parsed.
    pub objects: u64,
    /// Points indexed.
    pub points: u64,
    /// Objects that failed to parse.
    pub errors: u64,
    /// Text bytes of every object read, parsed or not.
    pub raw_bytes: u64,
    /// Bytes those objects hold in the bucket's memory
    /// ([`Payload::held_bytes`]).
    pub packed_bytes: u64,
    /// Lines of parsed objects that took the general
    /// [`tsdb::line::decode`] path instead of being read in place (see
    /// [`tsdb::LineIngest::fallback_lines`]). Campaign-written objects
    /// have none.
    pub fallback_lines: u64,
    /// One `"<object key>: line <n>: <error>"` entry per malformed
    /// object, in bucket listing order (parallel to `errors`).
    pub error_objects: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(server: &str, t: u64, down: f64) -> TestResult {
        TestResult {
            server_id: server.to_string(),
            time: SimTime(t),
            tier_premium: true,
            latency_ms: 20.0,
            download_mbps: down,
            upload_mbps: 95.0,
            download_loss: 0.001,
            upload_loss: 0.0005,
            duration_s: 35.0,
        }
    }

    #[test]
    fn point_carries_all_fields_and_tags() {
        let p = result_to_point(&result("s1", 3600, 400.0), "us-west1", "topo");
        assert_eq!(p.tags["region"], "us-west1");
        assert_eq!(p.tags["server"], "s1");
        assert_eq!(p.tags["tier"], "premium");
        assert_eq!(p.tags["method"], "topo");
        assert_eq!(p.fields["download"], 400.0);
        assert_eq!(p.fields.len(), 5);
        assert_eq!(p.time, 3600);
    }

    #[test]
    fn direct_encode_matches_point_encode() {
        // The hand-ordered writer must stay byte-identical to encoding
        // result_to_point output — this is what keeps raw bucket objects
        // (and thus every downstream snapshot) stable across the
        // optimization. Exercise escaping, a standard-tier result, and
        // integer-valued floats.
        let mut with_escapes = result("s 1,x=y", 7200, 250.0);
        with_escapes.tier_premium = false;
        with_escapes.download_mbps = 100.0; // integer-valued → ".0" marker
        let results = vec![result("s1", 0, 100.0), with_escapes];
        let mut direct = String::new();
        results_block(&results, "us-west1", "topo").render_into(&mut direct);
        let points: Vec<Point> = results
            .iter()
            .map(|r| result_to_point(r, "us-west1", "topo"))
            .collect();
        assert_eq!(direct, tsdb::line::encode_batch(&points));
    }

    #[test]
    fn upload_then_ingest_roundtrip() {
        let mut bucket = Bucket::new("us-west1");
        let results = vec![result("s1", 0, 100.0), result("s2", 3600, 200.0)];
        let key = upload_batch(
            &mut bucket,
            "us-west1",
            "topo",
            "vm0",
            &results,
            SimTime(3700),
        );
        assert!(key.starts_with("raw/us-west1/0000/"));
        let mut db = Db::new();
        let stats = ingest(&bucket, &mut db);
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.points, 2);
        assert_eq!(stats.errors, 0);
        assert_eq!(db.points_written, 2);
        assert_eq!(db.series_count(), 2);
    }

    #[test]
    fn resilient_upload_matches_plain_with_empty_plan() {
        let results = vec![result("s1", 0, 100.0), result("s2", 3600, 200.0)];
        let mut plain = Bucket::new("us-west1");
        upload_batch(
            &mut plain,
            "us-west1",
            "topo",
            "vm0",
            &results,
            SimTime(3700),
        );
        let mut resilient = Bucket::new("us-west1");
        let mut log = faultsim::FaultLog::new();
        let key = upload_batch_resilient(
            &mut resilient,
            "us-west1",
            "topo",
            "vm0",
            &results,
            SimTime(3700),
            &faultsim::FaultPlan::none(),
            &faultsim::RetryPolicy::upload(),
            &mut log,
            "us-west1",
        )
        .unwrap();
        assert!(log.is_empty());
        let a = plain.get(&key).unwrap();
        let b = resilient.get(&key).unwrap();
        assert_eq!(a.data.unpack(), b.data.unpack());
        assert_eq!(a.uploaded, b.uploaded);
    }

    #[test]
    fn resilient_upload_retries_then_loses() {
        let results = vec![result("s1", 0, 100.0)];
        // Certain failure: budget exhausted, batch lost, loss recorded.
        let mut plan = faultsim::FaultPlan::uniform(1, 0.0);
        plan.rates.upload_failure = 1.0;
        let mut bucket = Bucket::new("r");
        let mut log = faultsim::FaultLog::new();
        let key = upload_batch_resilient(
            &mut bucket,
            "us-east1",
            "topo",
            "vm0",
            &results,
            SimTime(100_000),
            &plan,
            &faultsim::RetryPolicy::upload(),
            &mut log,
            "us-east1",
        );
        assert!(key.is_none());
        assert!(bucket.is_empty());
        assert_eq!(log.summary().lost_s_hours, 1);

        // Moderate rate: over many days, some uploads fail at attempt 0
        // but recover on retry.
        let mut plan = faultsim::FaultPlan::uniform(3, 0.0);
        plan.rates.upload_failure = 0.3;
        let mut bucket = Bucket::new("r");
        let mut log = faultsim::FaultLog::new();
        let mut stored = 0;
        for day in 0..200u64 {
            let ok = upload_batch_resilient(
                &mut bucket,
                "us-east1",
                "topo",
                "vm0",
                &results,
                SimTime(day * 86_400),
                &plan,
                &faultsim::RetryPolicy::upload(),
                &mut log,
                "us-east1",
            );
            if ok.is_some() {
                stored += 1;
            }
        }
        let s = log.summary();
        assert!(s.recovered > 0, "some uploads should recover: {s:?}");
        assert_eq!(stored, 200 - s.lost);
    }

    #[test]
    fn malformed_objects_counted_not_fatal() {
        let mut bucket = Bucket::new("r");
        bucket.put("raw/bad.lp", "this is not line protocol", SimTime(0));
        upload_batch(
            &mut bucket,
            "us-east1",
            "topo",
            "vm0",
            &[result("s1", 0, 1.0)],
            SimTime(10),
        );
        let mut db = Db::new();
        let stats = ingest(&bucket, &mut db);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.objects, 1);
        assert_eq!(db.points_written, 1);
        // The malformed object is named, with the offending line.
        assert_eq!(stats.error_objects.len(), 1);
        assert!(
            stats.error_objects[0].starts_with("raw/bad.lp: line 1:"),
            "{:?}",
            stats.error_objects
        );
    }

    #[test]
    fn each_malformed_object_surfaced_separately() {
        let mut bucket = Bucket::new("r");
        bucket.put("raw/one.lp", "m f=x 0", SimTime(0));
        bucket.put("raw/two.lp", "m f=1 0\nnot a line", SimTime(1));
        let mut db = Db::new();
        let stats = ingest(&bucket, &mut db);
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.error_objects.len(), 2);
        assert!(stats
            .error_objects
            .iter()
            .any(|e| e.contains("raw/one.lp: line 1")));
        assert!(stats
            .error_objects
            .iter()
            .any(|e| e.contains("raw/two.lp: line 2")));
    }

    #[test]
    fn hand_written_lines_fall_back_to_decode() {
        // Escaped, unsorted and duplicate-key lines take the `decode`
        // path and land exactly where decode + insert_batch puts them;
        // campaign-written lines never do.
        let mut bucket = Bucket::new("r");
        let results = [result("s1", 0, 1.0), result("s 2", 3600, 2.0)];
        upload_batch(
            &mut bucket,
            "us-east1",
            "topo",
            "vm0",
            &results,
            SimTime(10),
        );
        bucket.put(
            "raw/us-east1/0000/vm1.lp",
            "speedtest,tier=premium,server=s1,region=us-east1,method=topo download=3,upload=1 7200\n\
             speedtest,method=topo,region=us-east1,server=s1,tier=premium download=4,download=5 9000\n\
             speedtest,method=topo,region=us-east1,server=s1,tier=premium upload=6,download=7 9100\n\
             speedtest,method=topo,region=us-east1,server=s1,tier=premium download=8,upload=9 9200\n",
            SimTime(11),
        );
        bucket.put(
            "raw/us-east1/0000/vm2.lp",
            "m f=1 0\nm f=inf 1",
            SimTime(12),
        );
        let mut db = Db::new();
        let stats = ingest(&bucket, &mut db);
        assert_eq!((stats.objects, stats.points, stats.errors), (2, 6, 1));
        // One escaped server tag ("s 2") and three hand-edited lines.
        assert_eq!(stats.fallback_lines, 4);
        assert!(stats.error_objects[0].ends_with("vm2.lp: line 2: bad numeric value: inf"));

        let mut want = Db::new();
        for key in bucket.list("raw/") {
            let text = bucket.get(key).unwrap().data.unpack();
            if let Ok(points) = tsdb::line::decode_batch_lines(&text) {
                want.insert_batch(points);
            }
        }
        let rows = |db: &mut Db| -> Vec<(String, Vec<(u64, String)>)> {
            db.snapshot()
                .series()
                .map(|s| {
                    let samples = s
                        .samples()
                        .iter()
                        .map(|(t, f)| (*t, format!("{:?}", f.to_map())));
                    (s.key().to_string(), samples.collect())
                })
                .collect()
        };
        assert_eq!(rows(&mut db), rows(&mut want));
        assert_eq!(
            (db.points_written, db.stats),
            (want.points_written, want.stats)
        );
    }

    #[test]
    fn non_raw_objects_ignored() {
        let mut bucket = Bucket::new("r");
        bucket.put("processed/x", "whatever", SimTime(0));
        let mut db = Db::new();
        let stats = ingest(&bucket, &mut db);
        assert_eq!(stats.objects + stats.errors, 0);
    }
}
