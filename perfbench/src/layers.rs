//! The traced layer pass: where the time of each workload goes.
//!
//! Every traced run makes the same pass over all layers, since the
//! per-layer metrics are reported together; `--seed` feeds the serve
//! and diag parts exactly as it feeds their untraced workloads. Two
//! sources are used, and every metric names its source in
//! `README.md`:
//!
//! * spans the program already opens, read from an attached
//!   `clasp_obs::Observer` (campaign phases and `diag:*`);
//! * the benchmark's own timing around public calls into a crate.
//!
//! Per-point and per-call figures time whole loops and divide, so a
//! clock read per call does not inflate them.

use crate::diag::build_spec;
use crate::measure::{timed, Outcome, Samples};
use crate::paper::{self, labels_agree, topo_filter, PAPER_SEED};
use crate::serve::{build_trace, Kind, BATCH};
use clasp_core::campaign::{Campaign, CampaignResult};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::crosscloud::{self, MultiWorld};
use clasp_core::diag::run_scenario;
use clasp_core::world::World;
use clasp_diag::DiagReport;
use clasp_obs::Observer;
use clasp_serve::proto::{ok_response, results_to_map};
use clasp_stream::{EngineConfig, StreamEngine};
use simnet::routing::{Direction, Tier};
use simnet::time::SimTime;
use simtcp::flow::{run_flow_in, FlowArena, FlowConfig, PathSpec};
use simtcp::link::LinkSpec;
use std::hint::black_box;
use tsdb::{Db, Point};

/// Days of the 153-day output replayed through the tsdb layer.
const REPLAY_DAYS: u64 = 24;
/// Ingest batches per snapshot in the tsdb replay (a publish's worth).
const BATCHES_PER_SNAPSHOT: usize = 4;
/// Timed congestion builds, after one warm-up.
const BUILD_REPS: usize = 3;
/// Prefix-to-AS lookups timed.
const LPM_LOOKUPS: usize = 2_000_000;
/// Hourly instants each compiled path is evaluated at.
const EVAL_HOURS: u64 = 24 * 14;
/// Diag scenarios run with an observer attached.
const TRACED_SCENARIOS: u64 = 3;
/// Packet-level flows on the mitigation check's path shape.
const FLOWS: u64 = 3;
/// Crosscloud builds and sweeps timed.
const CROSSCLOUD_REPS: usize = 50;

/// Wall seconds of every span called `name`, summed.
fn span_secs(obs: &Observer, name: &str) -> f64 {
    obs.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall_ns as f64 / 1e9)
        .sum()
}

/// Runs the layer pass.
pub fn run(seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    paper_layers(&mut out)?;
    serve_layers(seed, &mut out)?;
    diag_layers(seed, &mut out)?;
    Ok(out)
}

fn traced_campaign(world: &World, days: u64) -> Result<(CampaignResult, Observer, f64), String> {
    let obs = Observer::new();
    let (result, d) = timed(|| {
        Campaign::new(world, paper::config(days))
            .runner()
            .observer(&obs)
            .run()
    });
    Ok((result?, obs, d.as_secs_f64()))
}

/// core, tsdb replay, stream and simnet, on the paper world.
fn paper_layers(out: &mut Outcome) -> Result<(), String> {
    let world = World::new(PAPER_SEED);

    let (result, obs, _) = traced_campaign(&world, 7)?;
    paper::check_pin(out, 7, paper::pin_of(&result));
    drop(result);
    out.metric(
        "core.route_warm_s",
        span_secs(&obs, "phase0:route_warm"),
        "s",
    );
    out.metric("core.unit_prep_s", span_secs(&obs, "phase1:unit_prep"), "s");

    let (mut traced, obs, traced_s) = traced_campaign(&world, 153)?;
    traced.db = Db::new();
    paper::check_pin(out, 153, paper::pin_of(&traced));
    drop(traced);
    let vm_exec = span_secs(&obs, "phase2:vm_exec");
    let merge = span_secs(&obs, "phase3:merge");
    out.metric("core.vm_exec_s", vm_exec, "s");
    out.metric("core.merge_s", merge, "s");
    out.metric("core.day_ms", (vm_exec + merge) / 153.0 * 1e3, "ms");

    let (result, plain) = timed(|| {
        Campaign::new(&world, paper::config(153))
            .runner()
            .run()
            .expect("fresh campaigns cannot fail")
    });
    out.ran(1);
    let plain_s = plain.as_secs_f64();
    out.metric(
        "core.trace_overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        "%",
    );

    let mut db = result.db;
    let mut build = Samples::new();
    let mut batch = None;
    for rep in 0..=BUILD_REPS {
        let (b, d) =
            timed(|| CongestionAnalysis::build(&mut db, &world, "download", &topo_filter()));
        if rep > 0 {
            build.push(d);
        }
        batch = Some(b);
    }
    out.metric("core.congestion_build_s", build.median(), "s");
    let batch = batch.expect("at least one build");

    // Stream replay, series by series; only the ingest calls are timed.
    let mut engine = StreamEngine::new(EngineConfig::paper(), world.server_utc_offsets());
    let mut ingest_s = 0.0;
    let mut fed = 0usize;
    let mut replay_pts = Vec::new();
    for s in db.matching_series("speedtest", &[]) {
        let (m, tags) = (s.measurement.clone(), s.tags.clone());
        let pts: Vec<Point> = s
            .samples()
            .iter()
            .map(|(t, f)| Point::from_parts(m.clone(), tags.clone(), f.to_map(), *t))
            .collect();
        let ((), d) = timed(|| pts.iter().for_each(|p| engine.ingest(p)));
        ingest_s += d.as_secs_f64();
        fed += pts.len();
        replay_pts.extend(pts.into_iter().filter(|p| p.time < REPLAY_DAYS * 86_400));
    }
    engine.finalize();
    let agree = labels_agree(&engine, &batch);
    out.check(agree.is_ok(), || agree.clone().unwrap_err());
    out.metric("stream.ingest_ns", ingest_s / fed as f64 * 1e9, "ns");
    drop((engine, batch));

    tsdb_replay(replay_pts, out);
    simnet_layers(&world, &result.topo_selections, out);
    Ok(())
}

/// Line encode/decode, batch insert and snapshot over the first
/// [`REPLAY_DAYS`] of the 153-day output, in time order.
fn tsdb_replay(mut pts: Vec<Point>, out: &mut Outcome) {
    pts.sort_by_key(|p| p.time);
    let n = pts.len() as f64;
    let (lines, enc) = timed(|| pts.iter().map(tsdb::line::encode).collect::<Vec<_>>());
    let (decoded, dec) = timed(|| {
        lines
            .iter()
            .map(|l| tsdb::line::decode(l))
            .collect::<Result<Vec<Point>, _>>()
    });
    let decoded = decoded.unwrap_or_default();
    out.check(decoded == pts, || {
        "line decode did not round-trip the encoded points".to_string()
    });
    out.metric("tsdb.line_encode_ns", enc.as_secs_f64() / n * 1e9, "ns");
    out.metric("tsdb.line_decode_ns", dec.as_secs_f64() / n * 1e9, "ns");

    let mut db = Db::new();
    let mut insert_s = 0.0;
    let mut snapshot = Samples::new();
    for (i, chunk) in decoded.chunks(BATCH).enumerate() {
        let batch = chunk.to_vec();
        let ((), d) = timed(|| db.insert_batch(batch));
        insert_s += d.as_secs_f64();
        if (i + 1) % BATCHES_PER_SNAPSHOT == 0 {
            let (snap, d) = timed(|| db.snapshot());
            snapshot.push(d);
            black_box(snap);
        }
    }
    let held = db.snapshot().points();
    out.check(held == decoded.len() as u64, || {
        format!(
            "tsdb replay holds {held} points, {} inserted",
            decoded.len()
        )
    });
    out.metric("tsdb.insert_ns", insert_s / n * 1e9, "ns");
    out.metric("tsdb.snapshot_ms", snapshot.median_ms(), "ms");
}

/// Prefix-to-AS lookups and compiled-path evaluation.
fn simnet_layers(
    world: &World,
    selections: &[clasp_core::select::topology::TopologySelection],
    out: &mut Outcome,
) {
    let ips: Vec<_> = world
        .topo
        .links
        .iter()
        .flat_map(|l| [l.near_ip, l.far_ip])
        .collect();
    let (hits, d) = timed(|| {
        (0..LPM_LOOKUPS)
            .filter(|i| world.p2a.lookup(ips[i % ips.len()]).is_some())
            .count()
    });
    out.check(hits > 0, || {
        "no interface address resolved to an AS".to_string()
    });
    out.metric(
        "simnet.lpm_ns",
        d.as_secs_f64() / LPM_LOOKUPS as f64 * 1e9,
        "ns",
    );

    let session = world.session();
    let region = world
        .topo
        .cities
        .by_name("The Dalles")
        .expect("us-west1 is hosted in The Dalles");
    let vm = world.topo.vm_ip(region, 0);
    let paths: Vec<_> = selections
        .iter()
        .filter(|s| s.region == "us-west1")
        .flat_map(|s| &s.servers)
        .filter_map(|id| world.registry.by_id(id))
        .filter_map(|s| {
            session.paths.vm_host_path(
                region,
                vm,
                s.as_id,
                s.city,
                s.ip,
                Tier::Premium,
                Direction::ToCloud,
            )
        })
        .map(|p| session.perf.compile(&p))
        .collect();
    let (sum, d) = timed(|| {
        let mut sum = 0.0;
        for p in &paths {
            for h in 0..EVAL_HOURS {
                sum += session.perf.eval(p, SimTime(h * 3600)).queue_ms;
            }
        }
        sum
    });
    black_box(sum);
    let evals = (paths.len() as u64 * EVAL_HOURS) as f64;
    out.check(!paths.is_empty(), || {
        "no selected us-west1 server path".to_string()
    });
    out.metric(
        "simnet.path_eval_ns",
        d.as_secs_f64() / evals.max(1.0) * 1e9,
        "ns",
    );
}

/// serve dispatch, response cache and rendering, and tsdb query.
fn serve_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let trace = build_trace(seed);
    let server = trace.server();
    let mut hit = Samples::new();
    let mut miss = Samples::new();
    let mut all = Samples::new();
    let mut ingest = Samples::new();
    let mut publish = Samples::new();
    let mut query = Samples::new();
    let mut render = Samples::new();
    let mut bytes = 0usize;
    for (line, kind) in trace.lines.iter().zip(&trace.kinds) {
        let hits_before = server.cache_stats().hits;
        let (resp, d) = timed(|| server.handle_line(line));
        match kind {
            Kind::Ingest => ingest.push(d),
            Kind::Publish => publish.push(d),
            Kind::Query(spec) => {
                all.push(d);
                bytes += resp.len();
                if server.cache_stats().hits > hits_before {
                    hit.push(d);
                    out.ran(1);
                    continue;
                }
                miss.push(d);
                let snap = server.snapshot();
                let q = trace.specs[*spec].to_query();
                let (results, qd) = timed(|| q.run_snapshot(&snap));
                query.push(qd);
                render.push_secs(d.as_secs_f64() - qd.as_secs_f64());
                let want = ok_response(results_to_map(snap.generation(), &results));
                out.check(resp == want, || {
                    format!("query {spec}: response differs from run_snapshot")
                });
            }
        }
    }
    let stats = server.cache_stats();
    out.metric("serve.query_hit_ms_p50", hit.median_ms(), "ms");
    out.metric("serve.query_miss_ms_p50", miss.median_ms(), "ms");
    out.metric("serve.query_ms_p99", all.quantile(0.99) * 1e3, "ms");
    out.metric("serve.render_ms_p50", render.median_ms(), "ms");
    out.metric(
        "serve.cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    out.metric(
        "serve.response_kb_mean",
        bytes as f64 / all.len().max(1) as f64 / 1024.0,
        "KiB",
    );
    out.metric(
        "serve.ingest_ns_per_point",
        ingest.median() / BATCH as f64 * 1e9,
        "ns",
    );
    out.metric("serve.publish_ms_p50", publish.median_ms(), "ms");
    out.metric("tsdb.query_ms_p50", query.median_ms(), "ms");
    out.ran(ingest.len() + publish.len());
    Ok(())
}

/// diag phases, the packet-level flows of the mitigation check, and
/// the crosscloud build and sweep.
fn diag_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let spec = build_spec(seed)?;
    let obs = Observer::new();
    let traced: Vec<_> = (0..TRACED_SCENARIOS)
        .map(|i| run_scenario(&spec.diag, i, Some(&obs)))
        .collect();
    out.ran(traced.len());
    let plain = run_scenario(&spec.diag, 0, None);
    let same = |r: &clasp_diag::ScenarioReport| {
        serde_json::to_string(
            &DiagReport {
                seed: spec.diag.seed,
                scenarios: vec![r.clone()],
            }
            .to_json(),
        )
    };
    out.check(same(&traced[0]) == same(&plain), || {
        "attaching an observer changed a diag scenario report".to_string()
    });
    let spans = obs.spans();
    let phase_ms = |name: &str| {
        let mut s = Samples::new();
        for span in spans.iter().filter(|s| s.name == name) {
            s.push_secs(span.wall_ns as f64 / 1e9);
        }
        s.median_ms()
    };
    out.metric("diag.analyze_ms_p50", phase_ms("diag:analyze"), "ms");
    out.metric("diag.localize_ms_p50", phase_ms("diag:localize"), "ms");
    out.metric("diag.mitigate_ms_p50", phase_ms("diag:mitigate"), "ms");
    let mut campaign = Samples::new();
    for s in &spans {
        let parent = s.parent.and_then(|p| spans.get(p as usize));
        if s.name == "campaign" && parent.is_some_and(|p| p.name == "diag:scenario") {
            campaign.push_secs(s.wall_ns as f64 / 1e9);
        }
    }
    out.metric("diag.campaign_ms_p50", campaign.median_ms(), "ms");

    // The mitigation check's packet-level path: 1 Gbps access links
    // around a bottleneck carrying the path's loss and half its RTT.
    let mut arena = FlowArena::new();
    let mut flow = Samples::new();
    let mut segments = 0.0;
    for k in 0..FLOWS {
        let x = crate::measure::derive_seed(seed, 0xf10 + k);
        let rate = 100.0 + (x % 800) as f64;
        let rtt = 10.0 + ((x >> 16) % 70) as f64;
        let loss = ((x >> 32) % 50) as f64 * 1e-4;
        let bdp_pkts = rate * 1.0e6 * (rtt / 1000.0) / 8.0 / 1448.0;
        let path = PathSpec::symmetric(vec![
            LinkSpec::new(1000.0, 0.1, 512, 0.0),
            LinkSpec::new(
                rate,
                rtt / 2.0,
                (2.0 * bdp_pkts).clamp(512.0, 4096.0) as usize,
                loss,
            ),
            LinkSpec::new(1000.0, 0.1, 512, 0.0),
        ]);
        let cfg = FlowConfig {
            n_connections: 8,
            duration_s: 4.0,
            seed: x,
            ..FlowConfig::default()
        };
        let (r, d) = timed(|| run_flow_in(&mut arena, &path, &cfg));
        out.check(r.delivered_bytes > 0, || {
            format!("flow {k} delivered nothing")
        });
        flow.push(d);
        segments += r.delivered_bytes as f64 / cfg.mss_bytes as f64;
    }
    out.metric("simtcp.flow_ms", flow.median_ms(), "ms");
    out.metric("simtcp.pkts_per_s", segments / flow.total(), "1/s");

    let mut build = Samples::new();
    let mut sweep = Samples::new();
    for _ in 0..CROSSCLOUD_REPS {
        let (mw, d) = timed(|| MultiWorld::build(spec.world.clone(), spec.crosscloud.seed));
        build.push(d);
        black_box(mw?);
        let (r, d) = timed(|| crosscloud::run(&spec.world, &spec.crosscloud));
        sweep.push(d);
        black_box(r?);
    }
    out.ran(2 * CROSSCLOUD_REPS);
    out.metric("crosscloud.build_ms", build.median_ms(), "ms");
    out.metric(
        "crosscloud.sweep_ms",
        sweep.median_ms() - build.median_ms(),
        "ms",
    );
    Ok(())
}
