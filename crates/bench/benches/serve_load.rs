//! Serve load bench: 64 concurrent readers + 8 tail subscribers + one
//! sequenced campaign feeder against a single `clasp-serve` server.
//!
//! The bench is a correctness gate as much as a speed probe. While the
//! writer streams a bench-scale campaign through the ingest front door
//! (publishing every few batches so readers see the generation advance
//! live), it asserts:
//!
//! * **zero lost points** — the final published snapshot holds exactly
//!   the points fed;
//! * **exact tail accounting** — for every tail subscribed before the
//!   first batch, `drained + overflow == applied`; backpressure may
//!   drop points but never silently. Two tails are smaller than one
//!   batch, so the overflow side of that sum is exercised too;
//! * **byte-stability under concurrency** — any two responses a reader
//!   gets for the same spec at the same generation are identical bytes.
//!
//! Like `campaign_parallel`, this bench times by hand (the vendored
//! criterion stand-in does not expose samples) and writes a JSON
//! summary to `target/BENCH_serve.json` (override with the
//! `CLASP_BENCH_JSON` environment variable), recording query latency
//! percentiles and the machine's available parallelism.
//!
//! ```text
//! cargo bench -p clasp-bench --bench serve_load            # measure
//! cargo bench -p clasp-bench --bench serve_load -- --test  # smoke
//! ```

use analysis::harness::PAPER_SEED;
use clasp_bench::world;
use clasp_serve::{Client, LocalTransport, QuerySpec, Server, ServerConfig};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsdb::{Aggregate, Point};

const READERS: usize = 64;
const TAILS: usize = 8;
const TAIL_CAPACITY: usize = 4096;
/// The first `LOSSY_TAILS` tails hold less than one ingest batch. The
/// publish barrier mirrors one batch at a time and a tail may drain
/// between batches, so only a buffer smaller than a batch overflows
/// whatever the drain timing.
const LOSSY_TAILS: usize = 2;
const LOSSY_TAIL_CAPACITY: usize = 256;
const BATCH: usize = 512;
const PUBLISH_EVERY: usize = 4;
const _: () = assert!(LOSSY_TAIL_CAPACITY < BATCH);

/// The fixed reader query rotation: campaign-shaped specs of varying
/// cost. Indexed by `(reader, iteration)` so the mix is deterministic.
fn spec(i: usize) -> QuerySpec {
    match i % 4 {
        0 => QuerySpec::select("speedtest", "download")
            .r#where("method", "topo")
            .group_by_time(3600)
            .aggregate(Aggregate::Percentile(95.0)),
        1 => QuerySpec::select("speedtest", "upload").aggregate(Aggregate::Mean),
        2 => QuerySpec::select("speedtest", "latency")
            .group_by_time(86400)
            .aggregate(Aggregate::Percentile(5.0)),
        _ => QuerySpec::select("speedtest", "download").aggregate(Aggregate::Count),
    }
}

/// Flattens a campaign database snapshot back into its point stream.
fn campaign_points(days: u64) -> Vec<Point> {
    let mut res = analysis::harness::quick_campaign(world(), days);
    let snap = res.db.snapshot();
    let mut points = Vec::with_capacity(snap.points() as usize);
    for series in snap.series() {
        for (time, fields) in series.samples() {
            points.push(Point::from_parts(
                series.measurement.clone(),
                series.tags.clone(),
                fields.to_map(),
                *time,
            ));
        }
    }
    points
}

struct ReaderReport {
    latencies: Vec<f64>,
    queries: u64,
}

/// One reader: query in rotation until the feeder finishes, timing
/// each call and asserting same-generation responses never diverge.
/// A short pause between queries keeps 64 readers concurrent without
/// starving the single writer of CPU on small machines.
fn reader(server: Arc<Server>, idx: usize, done: Arc<AtomicBool>) -> ReaderReport {
    let mut client = Client::new(format!("reader-{idx:03}"), LocalTransport::new(server));
    let mut seen: BTreeMap<(usize, u64), String> = BTreeMap::new();
    let mut latencies = Vec::new();
    let mut queries = 0u64;
    let mut i = idx; // stagger the rotation start per reader
    while !done.load(Ordering::Acquire) {
        let s = spec(i);
        let t = Instant::now();
        let (v, bytes) = client.query(&s).expect("queries cannot fail under load");
        latencies.push(t.elapsed().as_secs_f64());
        queries += 1;
        let generation = v
            .get("generation")
            .and_then(Value::as_u64)
            .expect("query responses carry a generation");
        match seen.get(&(i % 4, generation)) {
            Some(prev) => assert_eq!(
                prev, &bytes,
                "reader {idx}: same spec, same generation, different bytes"
            ),
            None => {
                seen.insert((i % 4, generation), bytes);
            }
        }
        i += 1;
        std::thread::sleep(Duration::from_micros(500));
    }
    ReaderReport { latencies, queries }
}

struct TailReport {
    drained: u64,
    overflow: u64,
}

/// One tail subscriber: drains continuously. The per-tail overflow
/// counter is cumulative, so only the final poll's value matters.
fn tail(server: Arc<Server>, id: u64, done: Arc<AtomicBool>) -> TailReport {
    let mut drained = 0u64;
    loop {
        let (points, _of, _remaining) = server.poll(id, 8192).expect("tail stays registered");
        drained += points.len() as u64;
        if points.is_empty() {
            if done.load(Ordering::Acquire) {
                // `done` is set after the final publish, so one more
                // empty poll means the buffer is truly dry.
                let (rest, overflow, _) = server.poll(id, 8192).expect("tail stays registered");
                drained += rest.len() as u64;
                if rest.is_empty() {
                    return TailReport { drained, overflow };
                }
            } else {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--test" {
            smoke = true;
        }
    }
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Smoke keeps the full 64+8 thread structure — that is what the
    // gate is about — and shrinks only the fed workload.
    let days = if smoke { 1 } else { clasp_bench::BENCH_DAYS };
    let mut points = campaign_points(days);
    if smoke {
        points.truncate(4 * BATCH * PUBLISH_EVERY);
    }
    let total = points.len() as u64;
    println!("serve_load: {total} campaign points, {READERS} readers, {TAILS} tails");

    let server = Arc::new(Server::new(ServerConfig {
        seed: PAPER_SEED,
        config_hash: days,
        ..ServerConfig::default()
    }));
    let done = Arc::new(AtomicBool::new(false));

    // Tails subscribe before the first batch so their accounting spans
    // the whole stream.
    let tail_ids: Vec<u64> = (0..TAILS)
        .map(|i| {
            let capacity = if i < LOSSY_TAILS {
                LOSSY_TAIL_CAPACITY
            } else {
                TAIL_CAPACITY
            };
            server.subscribe(capacity).expect("subscribe")
        })
        .collect();
    let tail_threads: Vec<_> = tail_ids
        .iter()
        .map(|&id| {
            let srv = Arc::clone(&server);
            let flag = Arc::clone(&done);
            std::thread::spawn(move || tail(srv, id, flag))
        })
        .collect();
    let reader_threads: Vec<_> = (0..READERS)
        .map(|idx| {
            let srv = Arc::clone(&server);
            let flag = Arc::clone(&done);
            std::thread::spawn(move || reader(srv, idx, flag))
        })
        .collect();

    // The single logical writer: sequenced batches, periodic barriers.
    let t0 = Instant::now();
    let mut feeder = Client::new("feeder", LocalTransport::new(Arc::clone(&server)));
    let mut publishes = 0u64;
    for (i, batch) in points.chunks(BATCH).enumerate() {
        feeder.ingest(batch.to_vec()).expect("ingest");
        if (i + 1) % PUBLISH_EVERY == 0 {
            feeder.publish().expect("publish");
            publishes += 1;
        }
    }
    feeder.publish().expect("final publish");
    publishes += 1;
    let ingest_secs = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);

    let mut latencies = Vec::new();
    let mut queries = 0u64;
    for t in reader_threads {
        let r = t.join().expect("reader thread");
        latencies.extend(r.latencies);
        queries += r.queries;
    }
    let mut tails_drained = 0u64;
    let mut tails_overflow = 0u64;
    for t in tail_threads {
        let r = t.join().expect("tail thread");
        // Exact per-tail accounting: delivered or counted, never lost.
        assert_eq!(
            r.drained + r.overflow,
            total,
            "tail saw {} drained + {} overflow of {total} applied",
            r.drained,
            r.overflow
        );
        tails_drained += r.drained;
        tails_overflow += r.overflow;
    }
    assert!(
        tails_overflow > 0,
        "tails smaller than one batch never overflowed"
    );
    for id in tail_ids {
        server.unsubscribe(id).expect("unsubscribe");
    }

    // Zero lost points: the published snapshot is exactly the stream.
    let snap = server.snapshot();
    assert_eq!(snap.points(), total, "published points != fed points");

    let p50 = clasp_stats::percentile(&latencies, 50.0).unwrap_or(0.0);
    let p95 = clasp_stats::percentile(&latencies, 95.0).unwrap_or(0.0);
    let cache = server.cache_stats();
    println!(
        "serve_load: ingest {ingest_secs:.3}s ({publishes} publishes, generation {}), \
         {queries} queries (p50 {:.1}us p95 {:.1}us), cache {}/{} hit/miss, \
         tails drained {tails_drained} overflow {tails_overflow}",
        snap.generation(),
        p50 * 1e6,
        p95 * 1e6,
        cache.hits,
        cache.misses,
    );

    let mut summary = Map::new();
    summary.insert("bench".into(), "serve_load".into());
    summary.insert("seed".into(), PAPER_SEED.into());
    summary.insert("days".into(), days.into());
    summary.insert("smoke".into(), smoke.into());
    summary.insert("available_parallelism".into(), parallelism.into());
    summary.insert(
        "environment".into(),
        Value::Object(clasp_bench::environment(PAPER_SEED, READERS as u64)),
    );
    summary.insert("readers".into(), READERS.into());
    summary.insert("tails".into(), TAILS.into());
    summary.insert("points".into(), total.into());
    summary.insert("publishes".into(), publishes.into());
    summary.insert("generation".into(), snap.generation().into());
    summary.insert("ingest_secs".into(), ingest_secs.into());
    summary.insert("queries".into(), queries.into());
    summary.insert("query_p50_secs".into(), p50.into());
    summary.insert("query_p95_secs".into(), p95.into());
    summary.insert("cache_hits".into(), cache.hits.into());
    summary.insert("cache_misses".into(), cache.misses.into());
    summary.insert("cache_evictions".into(), cache.evictions.into());
    summary.insert("tail_drained".into(), tails_drained.into());
    summary.insert("tail_overflow".into(), tails_overflow.into());
    let summary = Value::Object(summary);
    let path = std::env::var("CLASP_BENCH_JSON").unwrap_or_else(|_| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| {
            format!(
                "{}/../../target",
                std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into())
            )
        });
        format!("{target}/BENCH_serve.json")
    });
    if let Err(e) = std::fs::write(&path, serde_json::to_string_pretty(&summary)) {
        eprintln!("serve_load: could not write {path}: {e}");
    } else {
        println!("serve_load: summary written to {path}");
    }
}
