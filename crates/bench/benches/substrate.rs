//! Micro-benchmarks of the substrate crates: the packet-level TCP flow,
//! routing-table computation, path construction, the fluid TCP model,
//! tsdb ingest/query, and bdrmap inference.
//!
//! ```text
//! cargo bench -p clasp-bench --bench substrate
//! ```

use clasp_bench::world;
use criterion::{criterion_group, criterion_main, Criterion};
use simnet::load::LoadModel;
use simnet::perf::{FlowSpec, PerfModel};
use simnet::routing::{Direction, Paths, Tier};
use simnet::time::SimTime;
use std::hint::black_box;

fn bench_packet_tcp(c: &mut Criterion) {
    let mut g = c.benchmark_group("simtcp");
    g.sample_size(10);
    g.bench_function("bulk_flow_2s_100mbps", |b| {
        let path = simtcp::flow::PathSpec::symmetric(vec![
            simtcp::link::LinkSpec::new(1000.0, 0.1, 256, 0.0),
            simtcp::link::LinkSpec::new(100.0, 10.0, 128, 0.001),
            simtcp::link::LinkSpec::new(1000.0, 0.1, 256, 0.0),
        ]);
        b.iter(|| {
            black_box(simtcp::flow::run_flow(
                &path,
                &simtcp::flow::FlowConfig {
                    duration_s: 2.0,
                    ..Default::default()
                },
            ))
        })
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let w = world();
    c.bench_function("routing/table_one_destination", |b| {
        let dst = w.topo.non_cloud_ases().nth(100).unwrap();
        b.iter(|| {
            // Fresh Routing each iteration so the cache doesn't absorb
            // the work being measured.
            let r = simnet::routing::Routing::new(&w.topo);
            black_box(r.routes_to(dst))
        })
    });
    c.bench_function("routing/router_path_construction", |b| {
        let paths = Paths::new(&w.topo);
        let region = w.topo.cities.by_name("The Dalles").unwrap();
        let servers = w.registry.in_country("US");
        let mut i = 0;
        b.iter(|| {
            let s = servers[i % servers.len()];
            i += 1;
            black_box(paths.vm_host_path(
                region,
                w.topo.vm_ip(region, 0),
                s.as_id,
                s.city,
                s.ip,
                Tier::Premium,
                Direction::ToCloud,
            ))
        })
    });
}

fn bench_fluid_model(c: &mut Criterion) {
    let w = world();
    let paths = Paths::new(&w.topo);
    let perf = PerfModel::new(&w.topo, LoadModel::new(1));
    let region = w.topo.cities.by_name("The Dalles").unwrap();
    let s = w.registry.in_country("US")[10];
    let down = paths
        .vm_host_path(
            region,
            w.topo.vm_ip(region, 0),
            s.as_id,
            s.city,
            s.ip,
            Tier::Premium,
            Direction::ToCloud,
        )
        .unwrap();
    let up = paths
        .vm_host_path(
            region,
            w.topo.vm_ip(region, 0),
            s.as_id,
            s.city,
            s.ip,
            Tier::Premium,
            Direction::ToServer,
        )
        .unwrap();
    c.bench_function("perf/fluid_tcp_throughput", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 3600;
            black_box(perf.tcp_throughput(&down, &up, SimTime(t), &FlowSpec::download()))
        })
    });
}

fn bench_tsdb(c: &mut Criterion) {
    c.bench_function("tsdb/insert_10k_points", |b| {
        b.iter(|| {
            let mut db = tsdb::Db::new();
            for i in 0..10_000u64 {
                db.insert(
                    tsdb::Point::new("speedtest", i * 3600)
                        .tag("server", format!("s{}", i % 50))
                        .field("download", (i % 700) as f64),
                );
            }
            black_box(db.points_written)
        })
    });
    c.bench_function("tsdb/group_by_day_max", |b| {
        let mut db = tsdb::Db::new();
        for i in 0..50_000u64 {
            db.insert(
                tsdb::Point::new("speedtest", i * 3600)
                    .tag("server", format!("s{}", i % 50))
                    .field("download", (i % 700) as f64),
            );
        }
        b.iter(|| {
            black_box(
                tsdb::Query::select("speedtest", "download")
                    .group_by_time(86_400)
                    .aggregate(tsdb::Aggregate::Max)
                    .run(&mut db),
            )
        })
    });
}

fn bench_bdrmap(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("bdrmap");
    g.sample_size(10);
    // Pre-generate a trace corpus once; time the inference.
    let paths = Paths::new(&w.topo);
    let region = w.topo.cities.by_name("The Dalles").unwrap();
    let vm = w.topo.vm_ip(region, 0);
    let targets: Vec<nettools::scamper::Target> = w
        .topo
        .non_cloud_ases()
        .take(800)
        .map(|id| {
            let city = w.topo.as_node(id).home_city;
            nettools::scamper::Target {
                as_id: id,
                city,
                ip: w.topo.host_ip(id, city, 0),
            }
        })
        .collect();
    let traces = nettools::scamper::Scamper::default().trace_many(
        &paths,
        region,
        vm,
        &targets,
        Tier::Premium,
        nettools::traceroute::TraceMode::Paris,
        4,
        1,
    );
    g.bench_function("infer_3200_traces", |b| {
        let aliases = nettools::bdrmap::SimAliasResolver::new(&w.topo, 0.85);
        b.iter(|| {
            black_box(nettools::bdrmap::BdrMap::infer(
                &traces,
                &w.p2a,
                simnet::topology::CLOUD_ASN,
                &aliases,
            ))
        })
    });
    g.finish();
}

fn bench_prefix2as(c: &mut Criterion) {
    let w = world();
    c.bench_function("prefix2as/lookup", |b| {
        let ips: Vec<std::net::Ipv4Addr> =
            w.registry.servers.iter().map(|s| s.ip).take(1000).collect();
        let mut i = 0;
        b.iter(|| {
            let ip = ips[i % ips.len()];
            i += 1;
            black_box(w.p2a.lookup(ip))
        })
    });
}

criterion_group!(
    substrate,
    bench_packet_tcp,
    bench_routing,
    bench_fluid_model,
    bench_tsdb,
    bench_bdrmap,
    bench_prefix2as,
);
criterion_main!(substrate);
