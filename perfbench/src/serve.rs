//! `serve_mixed`: one closed-loop client replays a fixed, pre-encoded
//! request trace through `Server::handle_line`.
//!
//! The trace interleaves 512-point ingest batches, a publish barrier
//! after every fourth batch, and a rotation of queries between the
//! ingests. Each generation's dashboard queries are asked eight times:
//! the first ask misses the response cache, the repeats hit it. A set
//! of sliding time-range queries misses every time. Responses run from
//! a one-row-per-series `Count` to an hourly p95 over every series of
//! the last 64 hours (about 600 KB). The points are campaign-shaped
//! (`speedtest` with method/region/server/tier tags, hourly) and are
//! synthesised from the seed, so serve numbers do not depend on how
//! fast a campaign runs.

use crate::measure::{derive_seed, fnv, now, peak_rss_mb, timed, Outcome, Samples};
use clasp_serve::proto::{ok_response, results_to_map};
use clasp_serve::{QuerySpec, Request, Server, ServerConfig};
use std::collections::BTreeMap;
use std::time::Duration;
use tsdb::{Aggregate, Point};

/// Topology-method series (one premium-tier server each).
const TOPO_SERIES: usize = 288;
/// Differential-method servers (two tiers each, so 96 series).
const DIFF_SERVERS: usize = 48;
/// Hours of data; every series has one point per hour.
const HOURS: u64 = 256;
/// Points per ingest request.
pub const BATCH: usize = 512;
/// Ingest requests per publish barrier.
const PUBLISH_EVERY: usize = 4;
/// Times each dashboard query is asked per generation (1 miss + hits).
const DASHBOARD_ASKS: usize = 8;
/// Distinct sliding time-range queries per generation (all misses).
const RANGE_QUERIES: usize = 8;
/// Hours covered by the hourly-p95 dashboard and the range queries.
const DASHBOARD_HOURS: u64 = 64;
const RANGE_HOURS: u64 = 6;

const TOPO_REGIONS: [&str; 5] = [
    "us-west1",
    "us-west2",
    "us-east1",
    "us-east4",
    "us-central1",
];
const DIFF_REGIONS: [&str; 3] = ["us-central1", "us-east1", "europe-west1"];

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Minimum trace passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// What one request is, for timing and checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A 512-point ingest batch.
    Ingest,
    /// A publish barrier.
    Publish,
    /// A query; the index names its spec in [`Trace::specs`].
    Query(usize),
}

/// The pre-built request trace.
pub struct Trace {
    /// Wire lines, in send order.
    pub lines: Vec<String>,
    /// What each line is.
    pub kinds: Vec<Kind>,
    /// Query specs referenced by [`Kind::Query`].
    pub specs: Vec<QuerySpec>,
    /// Points the trace ingests in total.
    points: u64,
    /// Server identity for the cache key.
    seed: u64,
}

/// xorshift64*: the synthetic data's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One synthetic series: its tags and per-series throughput scale.
struct SeriesShape {
    tags: [(&'static str, String); 4],
    base_mbps: f64,
    base_rtt_ms: f64,
    /// Local-evening congestion depth (0 for uncongested servers).
    dip: f64,
}

fn series_shapes(rng: &mut Rng) -> Vec<SeriesShape> {
    let mut out = Vec::new();
    let mut shape = |method: &'static str, region: &str, server: String, tier: &str| {
        let congested = rng.unit() < 0.2;
        SeriesShape {
            tags: [
                ("method", method.to_string()),
                ("region", region.to_string()),
                ("server", server),
                ("tier", tier.to_string()),
            ],
            base_mbps: 50.0 + 900.0 * rng.unit(),
            base_rtt_ms: 5.0 + 80.0 * rng.unit(),
            dip: if congested {
                0.3 + 0.5 * rng.unit()
            } else {
                0.0
            },
        }
    };
    for i in 0..TOPO_SERIES {
        out.push(shape(
            "topo",
            TOPO_REGIONS[i % TOPO_REGIONS.len()],
            format!("ookla-{:05}", 10_000 + i * 7),
            "premium",
        ));
    }
    for i in 0..DIFF_SERVERS {
        for tier in ["premium", "standard"] {
            out.push(shape(
                "diff",
                DIFF_REGIONS[i % DIFF_REGIONS.len()],
                format!("ookla-{:05}", 40_000 + i * 11),
                tier,
            ));
        }
    }
    out
}

/// The synthetic points, hour by hour, each hour in series order.
fn points(seed: u64) -> Vec<Point> {
    let mut rng = Rng(seed | 1);
    let shapes = series_shapes(&mut rng);
    let mut pts = Vec::with_capacity(shapes.len() * HOURS as usize);
    for hour in 0..HOURS {
        let evening = matches!(hour % 24, 18..=23);
        for s in &shapes {
            let depth = if evening { s.dip } else { 0.0 };
            let noise = 0.9 + 0.2 * rng.unit();
            let down = s.base_mbps * (1.0 - depth) * noise;
            let mut p = Point::new("speedtest", hour * 3600 + rng.next() % 3600)
                .field("download", down)
                .field("upload", down * (0.3 + 0.2 * rng.unit()))
                .field("latency", s.base_rtt_ms * (1.0 + depth + 0.1 * rng.unit()));
            for (k, v) in &s.tags {
                p = p.tag(*k, v.as_str());
            }
            pts.push(p);
        }
    }
    pts
}

/// The query rotation for the generation whose data ends at `end`
/// (exclusive, seconds): four dashboard specs, then sliding ranges.
fn generation_specs(gen: u64, end: u64) -> Vec<QuerySpec> {
    let dash_start = end.saturating_sub(DASHBOARD_HOURS * 3600);
    let mut specs = vec![
        QuerySpec::select("speedtest", "download")
            .time_range(dash_start, end)
            .group_by_time(3600)
            .aggregate(Aggregate::Percentile(95.0)),
        QuerySpec::select("speedtest", "upload").aggregate(Aggregate::Mean),
        QuerySpec::select("speedtest", "latency")
            .r#where("method", "topo")
            .group_by_time(86_400)
            .aggregate(Aggregate::Percentile(5.0)),
        QuerySpec::select("speedtest", "download").aggregate(Aggregate::Count),
    ];
    let hours = end / 3600;
    for k in 0..RANGE_QUERIES as u64 {
        let region = TOPO_REGIONS[((gen + k) % TOPO_REGIONS.len() as u64) as usize];
        let start_h = (gen * 3 + k * 5) % hours.saturating_sub(RANGE_HOURS).max(1);
        specs.push(
            QuerySpec::select("speedtest", "download")
                .r#where("region", region)
                .time_range(start_h * 3600, (start_h + RANGE_HOURS) * 3600)
                .group_by_time(3600)
                .aggregate(Aggregate::Max),
        );
    }
    specs
}

/// Builds the points and every request line of the trace.
pub fn build_trace(seed: u64) -> Trace {
    let serve_seed = derive_seed(seed, 0x5e7e);
    let pts = points(serve_seed);
    let total = pts.len() as u64;
    let batches: Vec<Vec<Point>> = pts.chunks(BATCH).map(<[Point]>::to_vec).collect();
    let per_hour = (TOPO_SERIES + 2 * DIFF_SERVERS) as u64;

    let mut trace = Trace {
        lines: Vec::new(),
        kinds: Vec::new(),
        specs: Vec::new(),
        points: total,
        seed: serve_seed,
    };
    let mut pending: Vec<usize> = Vec::new();
    let mut per_ingest = 0;
    let mut applied = 0u64;
    let mut gen = 0u64;
    let n_batches = batches.len();
    for (i, batch) in batches.into_iter().enumerate() {
        applied += batch.len() as u64;
        trace.push(
            Request::Ingest {
                client: "probe-0".into(),
                seq: i as u64,
                points: batch,
            },
            Kind::Ingest,
        );
        // The current generation's queries, spread over the ingests
        // that stage the next one.
        let take = per_ingest.min(pending.len());
        for q in pending.drain(..take).collect::<Vec<_>>() {
            trace.push_query(q);
        }
        if (i + 1) % PUBLISH_EVERY == 0 || i + 1 == n_batches {
            for q in std::mem::take(&mut pending) {
                trace.push_query(q);
            }
            trace.push(Request::Publish, Kind::Publish);
            gen += 1;
            // Data is complete through the last full hour applied.
            let end = (applied / per_hour).max(1) * 3600;
            let first = trace.specs.len();
            trace.specs.extend(generation_specs(gen, end));
            for _ in 0..DASHBOARD_ASKS {
                pending.extend(first..first + 4);
            }
            pending.extend(first + 4..trace.specs.len());
            per_ingest = pending.len().div_ceil(PUBLISH_EVERY);
        }
    }
    for q in pending {
        trace.push_query(q);
    }
    trace
}

impl Trace {
    fn push(&mut self, req: Request, kind: Kind) {
        self.lines.push(req.encode());
        self.kinds.push(kind);
    }

    fn push_query(&mut self, spec: usize) {
        let line = Request::Query(self.specs[spec].clone()).encode();
        self.lines.push(line);
        self.kinds.push(Kind::Query(spec));
    }

    /// A fresh server for one pass.
    pub fn server(&self) -> Server {
        Server::new(ServerConfig {
            seed: self.seed,
            ..ServerConfig::default()
        })
    }
}

/// Per-class request timings of one pass.
#[derive(Default)]
struct PassTimes {
    /// Query requests.
    query: Samples,
    /// Ingest requests.
    ingest: Samples,
    /// Publish barriers.
    publish: Samples,
    /// Sum of every request's time.
    total: f64,
}

/// Whether a response reports success.
fn ok(resp: &str) -> bool {
    serde_json::from_str(resp).is_ok_and(|v| v.get("ok").and_then(|o| o.as_bool()) == Some(true))
}

/// Replays the trace once on a fresh server and checks every response.
///
/// A query's first ask in its generation is a cache miss; its
/// response is fingerprinted, and when `verify` is set it is also
/// compared byte for byte with an in-process render of
/// `Query::run_snapshot` over the same generation. Every repeat must
/// return the miss's bytes. Returns the timings and the miss
/// fingerprints, which later passes must reproduce.
fn pass(trace: &Trace, verify: bool, out: &mut Outcome) -> (PassTimes, Vec<u64>) {
    let server = trace.server();
    let mut times = PassTimes::default();
    let mut prints = Vec::new();
    let mut first_asks: BTreeMap<usize, String> = BTreeMap::new();
    for (line, kind) in trace.lines.iter().zip(&trace.kinds) {
        let (resp, d): (String, Duration) = timed(|| server.handle_line(line));
        times.total += d.as_secs_f64();
        let Kind::Query(spec) = *kind else {
            match kind {
                Kind::Ingest => times.ingest.push(d),
                _ => {
                    times.publish.push(d);
                    first_asks.clear();
                }
            }
            out.check(ok(&resp), || format!("{kind:?} request failed: {resp}"));
            continue;
        };
        times.query.push(d);
        if let Some(first) = first_asks.get(&spec) {
            out.check(*first == resp, || {
                format!("query {spec}: a repeat returned different bytes")
            });
            continue;
        }
        if verify {
            let snap = server.snapshot();
            let results = trace.specs[spec].to_query().run_snapshot(&snap);
            let want = ok_response(results_to_map(snap.generation(), &results));
            out.check(resp == want, || {
                format!("query {spec}: response differs from run_snapshot")
            });
        } else {
            out.ran(1);
        }
        prints.push(fnv(&resp));
        first_asks.insert(spec, resp);
    }
    let fed = server.snapshot().points();
    out.check(fed == trace.points, || {
        format!(
            "final snapshot holds {fed} points, {} were fed",
            trace.points
        )
    });
    (times, prints)
}

/// The untraced `serve_mixed` run.
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Samples::new();
    let (mut trace, d) = timed(|| build_trace(seed));
    setup.push(d);
    for _ in 1..SETUP_REPS {
        drop(trace);
        let (t, d) = timed(|| build_trace(seed));
        setup.push(d);
        trace = t;
    }

    let mut query = Samples::new();
    let mut ingest = Samples::new();
    let mut publish = Samples::new();
    let mut totals = Samples::new();
    let mut first_prints: Option<Vec<u64>> = None;
    let start = now();
    while totals.len() < MIN_PASSES || start.elapsed().as_secs() < seconds {
        let (times, prints) = pass(&trace, first_prints.is_none(), &mut out);
        match &first_prints {
            None => first_prints = Some(prints),
            Some(first) => out.check(*first == prints, || {
                "a later pass returned different query responses".to_string()
            }),
        }
        query.extend(&times.query);
        ingest.extend(&times.ingest);
        publish.extend(&times.publish);
        totals.push_secs(times.total);
    }

    out.metric("setup_s", setup.median(), "s");
    out.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    out.metric("main_p50_ms", query.median_ms(), "ms");
    out.detail("query_p50_ms", query.median_ms());
    out.detail("query_p99_ms", query.quantile(0.99) * 1e3);
    out.detail("query_samples", query.len() as f64);
    out.detail("ingest_p50_ms", ingest.median_ms());
    out.detail("publish_p50_ms", publish.median_ms());
    out.detail("pass_s", totals.median());
    out.detail("passes", totals.len() as f64);
    Ok(out)
}
