//! The `clasp` command-line tool: drive the platform the way its
//! operators would, one stage at a time.
//!
//! ```text
//! clasp crawl  [--seed N]                      # crawl the server registries
//! clasp select [--seed N] [--region R] [--budget N]
//! clasp run    [--seed N] [--region R] [--budget N] [--days N] [--jobs N]
//!              [--fault-profile P] [--metrics FILE] [--trace FILE]
//! clasp analyze [--seed N] [--region R] [--budget N] [--days N] [--jobs N]
//!              [--threshold H] [--metrics FILE] [--trace FILE]
//! clasp stream [--seed N] [--region R] [--budget N] [--days N] [--jobs N]
//!              [--threshold H] [--auto-threshold] [--fault-profile P]
//!              [--metrics FILE] [--trace FILE]
//! clasp report [--seed N] [--region R] [--budget N] [--days N] [--jobs N]
//!              [--fault-profile P] [--paper]    # observed run + full report
//! clasp bill   [--seed N] [--days N]           # cost forecast for a deployment
//! clasp serve  [--seed N] [--region R] [--budget N] [--days N] [--jobs N]
//!              [--clients N] [--port P] [--metrics FILE]
//! clasp crosscloud [--seed N] [--world <duo|trio|spec.json>] [--days N]
//!              [--jobs N] [--json]              # multi-provider campaign
//! ```
//!
//! Every single-provider command accepts `--provider <name>` (built-ins:
//! `gcp`, `nimbus`, `metalstack`); the default region becomes the
//! provider's first topology region. `crosscloud` instead takes a whole
//! multi-provider world — a built-in spec or a JSON file — and prints
//! CloudCast-style intra/inter-provider latency and throughput matrices,
//! premium-vs-standard asymmetries, interconnect congestion detection
//! scored against simulator ground truth, and per-provider probe billing.
//!
//! Everything is deterministic in `--seed`; `run` prints the line-protocol
//! sample of what lands in the bucket, `analyze` prints the congestion
//! report.
//!
//! `stream` runs the same campaign with the incremental detection engine
//! attached: congestion labels, threshold recalibration and alerts are
//! produced online while results land, then cross-checked element-wise
//! against the batch analysis of the very same database.
//!
//! `--fault-profile` takes a built-in profile name (`none`, `light`,
//! `moderate`, `heavy`, `gcp-2020`) or a path to a JSON plan; the run
//! then injects faults, retries its way through them, and reports the
//! fault summary and per-region data completeness.
//!
//! `--jobs N` runs the campaign on N worker threads; `--jobs 0` (the
//! default) uses the machine's available parallelism, `--jobs 1` runs
//! every phase on the calling thread. Results are bit-identical at every
//! setting.
//!
//! `--metrics FILE` / `--trace FILE` attach a deterministic observer to
//! the run and write its canonical metrics / trace JSON — byte-identical
//! at every `--jobs` setting and across checkpoint resumes. `report`
//! runs an observed campaign and renders the telemetry as one report:
//! per-phase timing, per-VM test budgets, completeness, and billing.
//!
//! `serve` runs a campaign and loads its results into a `clasp-serve`
//! server as `--clients N` concurrent sequenced ingest clients, then
//! self-checks that served query responses are byte-identical to
//! in-process evaluation over the same snapshot generation. With
//! `--port P` it then stays up serving the line-delimited JSON protocol
//! over TCP (`--port 0` picks a free port and prints it).

use clasp_core::campaign::{Campaign, CampaignConfig};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::world::World;
use clasp_core::Observer;

fn arg_u64(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_f64(args: &[String], name: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn arg_opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// FNV-1a over `s`: a stable, dependency-free digest of the campaign
/// knobs, used as the serve response-cache's `config_hash` identity.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn usage() -> ! {
    eprintln!(
        "usage: clasp <crawl|select|run|analyze|stream|report|diag|bill|serve|crosscloud|bench-trend> \
         [--seed N] [--provider P] [--region R] [--budget N] [--days N] [--jobs N] \
         [--world <duo|trio|spec.json>] \
         [--threshold H] [--auto-threshold] [--paper] \
         [--fault-profile <name|path.json>] \
         [--scenarios N] [--min-top1 F] [--min-agreement F] [--json] \
         [--clients N] [--port P] \
         [--metrics FILE] [--trace FILE] \
         [--baseline FILE] [--current FILE] [--trend FILE] \
         [--max-regress F] [--check] [--record] [--label S]"
    );
    std::process::exit(2);
}

/// A bench summary's total p50, NaN when missing.
fn total_p50(v: &serde_json::Value) -> f64 {
    v.get("total")
        .and_then(|t| t.get("p50_secs"))
        .and_then(|x| x.as_f64())
        .unwrap_or(f64::NAN)
}

/// The `--check` verdict on a current bench summary against the
/// baseline. It fails when the total p50 exceeds the baseline's by more
/// than `max_regress`, and when the current run's `checkpoint_fnv` is
/// missing or differs from the baseline's: a run that produced other
/// bytes measured other work, so its time proves nothing.
fn check_verdict(
    baseline: &serde_json::Value,
    current: &serde_json::Value,
    max_regress: f64,
) -> Result<String, String> {
    let fnv = |v: &serde_json::Value| {
        v.get("checkpoint_fnv")
            .and_then(|f| f.as_str())
            .map(str::to_string)
    };
    match (fnv(baseline), fnv(current)) {
        (Some(b), Some(c)) if b == c => {}
        (b, c) => {
            let show = |f: Option<String>| f.unwrap_or_else(|| "(missing)".into());
            return Err(format!(
                "OUTPUT CHANGED: checkpoint_fnv {} differs from baseline {}",
                show(c),
                show(b)
            ));
        }
    }
    let (base, cur) = (total_p50(baseline), total_p50(current));
    let limit = base * (1.0 + max_regress);
    // NaN (missing/corrupt summary) must fail the gate, not pass it.
    if cur.is_nan() || limit.is_nan() || cur > limit {
        return Err(format!(
            "REGRESSION: total p50 {cur:.3}s exceeds baseline {base:.3}s by more \
             than {:.0}% (limit {limit:.3}s)",
            max_regress * 100.0
        ));
    }
    Ok(format!(
        "total p50 {cur:.3}s within {:.0}% of baseline {base:.3}s, same checkpoint_fnv",
        max_regress * 100.0
    ))
}

/// Compares the latest `campaign_single_core` bench summary against the
/// committed baseline and maintains the append-only trend log the perf
/// gate reads. `--check` exits non-zero when the total p50 regresses
/// past `--max-regress` (default 0.15 = 15%) or the checkpoint
/// fingerprint differs from the baseline's; `--record` appends the
/// current summary to the trend log.
fn bench_trend(args: &[String]) -> ! {
    let baseline_path = arg_str(
        args,
        "--baseline",
        "benchdata/BENCH_campaign_single_core.json",
    );
    let current_path = arg_str(args, "--current", "target/BENCH_campaign_single_core.json");
    let trend_path = arg_str(
        args,
        "--trend",
        "benchdata/TREND_campaign_single_core.jsonl",
    );
    let max_regress = arg_f64(args, "--max-regress", 0.15);
    let check = args.iter().any(|a| a == "--check");
    let record = args.iter().any(|a| a == "--record");
    let label = arg_str(args, "--label", "");

    let load = |path: &str| -> serde_json::Value {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()));
        match parsed {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench-trend: cannot load {path}: {e}");
                std::process::exit(2);
            }
        }
    };
    let baseline = load(&baseline_path);
    let current = load(&current_path);
    let stage_p50 = |v: &serde_json::Value, name: &str| -> Option<f64> {
        v.get("stages")?
            .as_array()?
            .iter()
            .find(|s| s.get("stage").and_then(|n| n.as_str()) == Some(name))
            .and_then(|s| s.get("p50_secs"))
            .and_then(|x| x.as_f64())
    };

    println!(
        "{:<26} {:>10} {:>10} {:>8}",
        "stage (p50)", "baseline", "current", "delta"
    );
    let stages = baseline
        .get("stages")
        .and_then(|s| s.as_array())
        .cloned()
        .unwrap_or_default();
    for stage in &stages {
        let Some(name) = stage.get("stage").and_then(|n| n.as_str()) else {
            continue;
        };
        let base = stage
            .get("p50_secs")
            .and_then(|x| x.as_f64())
            .unwrap_or(f64::NAN);
        match stage_p50(&current, name) {
            Some(cur) => println!(
                "{name:<26} {base:>9.3}s {cur:>9.3}s {:>+7.1}%",
                (cur / base - 1.0) * 100.0
            ),
            None => println!("{name:<26} {base:>9.3}s {:>10} {:>8}", "-", "-"),
        }
    }
    let (base, cur) = (total_p50(&baseline), total_p50(&current));
    println!(
        "{:<26} {base:>9.3}s {cur:>9.3}s {:>+7.1}%",
        "total",
        (cur / base - 1.0) * 100.0
    );

    if record {
        let mut row = serde_json::Map::new();
        if !label.is_empty() {
            row.insert("label".into(), label.into());
        }
        row.insert("total_p50_secs".into(), cur.into());
        if let Some(p95) = current.get("total").and_then(|t| t.get("p95_secs")) {
            row.insert("total_p95_secs".into(), p95.clone());
        }
        if let Some(fnv) = current.get("checkpoint_fnv") {
            row.insert("checkpoint_fnv".into(), fnv.clone());
        }
        if let Some(rustc) = current.get("environment").and_then(|e| e.get("rustc")) {
            row.insert("rustc".into(), rustc.clone());
        }
        let line = serde_json::to_string(&serde_json::Value::Object(row));
        let body = match std::fs::read_to_string(&trend_path) {
            Ok(prev) => format!("{prev}{line}\n"),
            Err(_) => format!("{line}\n"),
        };
        if let Err(e) = std::fs::write(&trend_path, body) {
            eprintln!("bench-trend: cannot append to {trend_path}: {e}");
            std::process::exit(1);
        }
        println!("recorded to {trend_path}");
    }

    if let Ok(history) = std::fs::read_to_string(&trend_path) {
        println!("trend ({trend_path}):");
        for line in history.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(v) = serde_json::from_str(line) else {
                continue;
            };
            println!(
                "  {:<28} total p50 {:>8.3}s",
                v.get("label")
                    .and_then(|l| l.as_str())
                    .unwrap_or("(unlabelled)"),
                v.get("total_p50_secs")
                    .and_then(|x| x.as_f64())
                    .unwrap_or(f64::NAN)
            );
        }
    }

    if check {
        match check_verdict(&baseline, &current, max_regress) {
            Ok(msg) => println!("bench-trend: ok: {msg}"),
            Err(msg) => {
                eprintln!("bench-trend: {msg}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// Writes the observer's canonical metrics/trace JSON to the paths
/// given on the command line, if any.
fn write_telemetry(obs: &Observer, metrics: Option<&str>, trace: Option<&str>) {
    for (path, body, what) in [
        (metrics, obs.metrics_string(), "metrics"),
        (trace, obs.trace_string(), "trace"),
    ] {
        let Some(path) = path else { continue };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {what} to {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {what} to {path}");
    }
}

/// Renders the per-VM budget table from the observer's
/// `vm.<unit>/<name>.*` counters.
fn render_vm_table(metrics: &clasp_obs::MetricsRegistry) -> String {
    use std::collections::BTreeMap;
    // vm id → (assigned, expected, executed, collected)
    let mut rows: BTreeMap<String, [u64; 4]> = BTreeMap::new();
    for (name, v) in metrics.counters() {
        let Some(rest) = name.strip_prefix("vm.") else {
            continue;
        };
        let Some((vm, metric)) = rest.rsplit_once('.') else {
            continue;
        };
        let slot = match metric {
            "assigned" => 0,
            "expected_tests" => 1,
            "tests_executed" => 2,
            "tests_collected" => 3,
            _ => continue,
        };
        rows.entry(vm.to_string()).or_default()[slot] += v;
    }
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<48} {:>4} {:>9} {:>9} {:>9} {:>6}\n",
        "vm", "srv", "expected", "executed", "collected", "util%"
    ));
    for (vm, [assigned, expected, executed, collected]) in &rows {
        let util = if *expected > 0 {
            *executed as f64 / *expected as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {vm:<48} {assigned:>4} {expected:>9} {executed:>9} {collected:>9} {util:>5.1}%\n"
        ));
    }
    out
}

/// Resolves `--fault-profile`: a built-in name first, else a JSON file.
fn load_fault_profile(spec: &str) -> faultsim::FaultPlan {
    if let Some(plan) = faultsim::FaultPlan::builtin(spec) {
        return plan;
    }
    match std::fs::read_to_string(spec) {
        Ok(text) => match faultsim::FaultPlan::from_json_str(&text) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("bad fault profile {spec}: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("unknown fault profile {spec} (not a built-in, and not readable: {e})");
            std::process::exit(2);
        }
    }
}

/// Runs the diag suite, which builds its own worlds: localization and
/// mitigation ranking over seeded congestion scenarios, with optional
/// quality floors for CI.
fn diag_cmd(args: &[String], seed: u64, jobs: usize, threshold: f64) -> ! {
    let mut cfg = clasp_core::diag::DiagConfig::new(seed);
    cfg.scenarios = arg_u64(args, "--scenarios", cfg.scenarios);
    cfg.days = arg_u64(args, "--days", cfg.days);
    cfg.budget = arg_u64(args, "--budget", cfg.budget as u64) as usize;
    cfg.jobs = jobs.max(1);
    cfg.threshold = threshold;
    let metrics_path = arg_opt(args, "--metrics");
    let trace_path = arg_opt(args, "--trace");
    let observed = metrics_path.is_some() || trace_path.is_some();
    let obs = Observer::new();
    let report = clasp_core::diag::run_suite(&cfg, observed.then_some(&obs));
    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string(&report.to_json()));
    } else {
        print!("{}", report.render());
    }
    write_telemetry(&obs, metrics_path.as_deref(), trace_path.as_deref());
    // CI regression gates: fail the run when the diagnosis
    // quality drops below the recorded floors.
    let min_top1 = arg_f64(args, "--min-top1", 0.0);
    let min_agreement = arg_f64(args, "--min-agreement", 0.0);
    if report.top1_rate() < min_top1 {
        eprintln!(
            "diag: top-1 localization rate {:.2} below floor {min_top1:.2}",
            report.top1_rate()
        );
        std::process::exit(1);
    }
    if report.mitigation_agreement() < min_agreement {
        eprintln!(
            "diag: mitigation agreement {:.2} below floor {min_agreement:.2}",
            report.mitigation_agreement()
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Prints a billing forecast for `budget` servers over `days` days; it
/// needs no world.
fn bill_cmd(budget: usize, days: u64) -> ! {
    let mut billing = cloudsim::billing::Billing::new();
    let vms = budget.div_ceil(17) as f64;
    billing.record_vm_hours(
        cloudsim::vm::MachineType::N1Standard2,
        vms * days as f64 * 24.0,
    );
    let per_test_up = 100.0 / 8.0 * 15.0 * 1e6;
    let egress = (vms * days as f64 * 24.0 * 17.0 * per_test_up) as u64;
    billing.record_transfer(true, egress, egress * 4);
    println!(
        "forecast for {budget} servers over {days} days: {:.0} USD ({:.0} VM, {:.0} egress)",
        billing.total_usd(),
        billing.vm_usd(),
        billing.egress_usd()
    );
    std::process::exit(0);
}

/// Runs a CloudCast-style cross-cloud campaign over a multi-provider
/// world: `--world` takes a built-in spec name (`duo`, `trio`) or a
/// path to a world JSON (see `WorldSpec::to_json` for the schema).
fn crosscloud_cmd(args: &[String], seed: u64, jobs: usize) -> ! {
    let world_arg = arg_str(args, "--world", "duo");
    let days = arg_u64(args, "--days", 3) as u32;
    let json = args.iter().any(|a| a == "--json");
    let spec = match cloudsim::provider::WorldSpec::builtin(&world_arg) {
        Some(s) => s,
        None => match std::fs::read_to_string(&world_arg) {
            Ok(text) => match cloudsim::provider::WorldSpec::from_json(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
            Err(e) => {
                eprintln!("unknown world {world_arg} (not a built-in, and not readable: {e})");
                std::process::exit(2);
            }
        },
    };
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    };
    let cfg = clasp_core::crosscloud::CrossCloudConfig { seed, days, jobs };
    match clasp_core::crosscloud::run(&spec, &cfg) {
        Ok(report) => {
            if json {
                println!("{}", serde_json::to_string_pretty(&report.to_json()));
            } else {
                print!("{}", report.render_text());
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("crosscloud: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        usage()
    };
    let seed = arg_u64(&args, "--seed", 42);
    let budget = arg_u64(&args, "--budget", 34) as usize;
    let days = arg_u64(&args, "--days", 7);
    let threshold = arg_f64(&args, "--threshold", 0.5);
    let jobs = arg_u64(&args, "--jobs", 0) as usize;
    let provider_name = arg_str(&args, "--provider", "gcp");

    if cmd == "bench-trend" {
        // Pure file comparison: no world construction needed.
        bench_trend(&args);
    }
    if cmd == "crosscloud" {
        // Multi-provider worlds are constructed by the subcommand itself.
        crosscloud_cmd(&args, seed, jobs);
    }
    if cmd == "diag" {
        // The suite builds its own scenario worlds.
        diag_cmd(&args, seed, jobs, threshold);
    }
    if cmd == "bill" {
        bill_cmd(budget, days);
    }

    let provider = cloudsim::provider::ProviderProfile::builtin(&provider_name)
        .unwrap_or_else(|| {
            eprintln!(
                "unknown provider {provider_name} (builtins: {})",
                cloudsim::provider::ProviderProfile::builtin_names().join(", ")
            );
            std::process::exit(2);
        })
        .clone();
    // Default region: the provider's first topology region, so
    // `--provider nimbus` works without an explicit `--region`.
    let default_region = provider.topology_regions[0].clone();
    let region_name = arg_str(&args, "--region", &default_region);
    let region = provider
        .region(&region_name)
        .unwrap_or_else(|| {
            eprintln!(
                "unknown region {region_name} for provider {}",
                provider.name
            );
            std::process::exit(2);
        })
        .clone();
    let world = World::for_provider(
        provider,
        simnet::topology::TopologyConfig {
            seed,
            ..Default::default()
        },
    );

    match cmd.as_str() {
        "crawl" => {
            let us = world.registry.in_country("US");
            println!(
                "{} servers across the three platforms ({} US, {} US ASes)",
                world.registry.servers.len(),
                us.len(),
                speedtest::platform::ServerRegistry::distinct_ases(&us)
            );
            for platform in [
                speedtest::platform::Platform::Ookla,
                speedtest::platform::Platform::MLab,
                speedtest::platform::Platform::Comcast,
            ] {
                let n = world
                    .registry
                    .servers
                    .iter()
                    .filter(|s| s.platform == platform)
                    .count();
                println!("  {:<8} {n}", platform.label());
            }
        }
        "select" => {
            let session = world.session();
            let sel = clasp_core::select::topology::select(
                &world,
                &session.paths,
                &region.name,
                region.city_id(&world.topo.cities),
                budget,
                &clasp_core::select::topology::PilotConfig::default(),
            );
            println!(
                "{}: bdrmap {} links, {} traversed, {} selected ({:.1}% coverage)",
                sel.region,
                sel.bdrmap_links,
                sel.links_traversed,
                sel.servers.len(),
                sel.coverage() * 100.0
            );
            for sid in &sel.servers {
                let s = world.registry.by_id(sid).expect("selected exists");
                println!("  {:<14} {} [{}]", sid, s.sponsor, sel.server_link[sid]);
            }
        }
        "run" | "analyze" => {
            let mut config = CampaignConfig::small(seed);
            config.days = days;
            config.topo_regions = vec![(region.name.clone(), budget)];
            config.diff_regions.clear();
            config.keep_raw = true;
            config.jobs = jobs;
            let fault_spec = arg_str(&args, "--fault-profile", "none");
            config.fault_plan = load_fault_profile(&fault_spec);
            let metrics_path = arg_opt(&args, "--metrics");
            let trace_path = arg_opt(&args, "--trace");
            let obs = Observer::new();
            let campaign = Campaign::new(&world, config);
            let mut runner = campaign.runner();
            if metrics_path.is_some() || trace_path.is_some() {
                runner = runner.observer(&obs);
            }
            let result = runner.run().expect("fresh runs cannot fail");
            write_telemetry(&obs, metrics_path.as_deref(), trace_path.as_deref());
            println!(
                "campaign: {} tests, {} VMs, {} raw objects, ${:.2}",
                result.tests_run,
                result.vm_count,
                result.raw_objects,
                result.billing.total_usd()
            );
            if !result.fault_log.is_empty() {
                let s = result.fault_log.summary();
                println!(
                    "faults: {} injected, {} recovered ({} retries), {} lost ({} s-hours)",
                    s.total, s.recovered, s.retries, s.lost, s.lost_s_hours
                );
                for (kind, n) in &s.by_kind {
                    println!("  {kind:<16} {n}");
                }
                println!(
                    "\ncompleteness ({}):\n{}",
                    if result.completeness.reconciles() {
                        "reconciles with fault log"
                    } else {
                        "DOES NOT RECONCILE"
                    },
                    result.completeness.render()
                );
            }
            if cmd == "run" {
                // Show a sample of what landed in the bucket.
                let bucket = &result.buckets[0];
                if let Some(key) = bucket.list("raw/").first() {
                    println!("\nfirst object {key}:");
                    for line in bucket.get(key).unwrap().data.unpack().lines().take(5) {
                        println!("  {line}");
                    }
                }
                return;
            }
            let mut db = result.db;
            let analysis = CongestionAnalysis::build(
                &mut db,
                &world,
                "download",
                &[("method".to_string(), "topo".to_string())],
            );
            let (_, elbow) = analysis.elbow_threshold(20);
            println!(
                "\ncongestion @ H={threshold}: {:.1}% of s-days, {:.2}% of s-hours (elbow suggests {:?})",
                analysis.fraction_days_above(threshold) * 100.0,
                analysis.fraction_hours_above(threshold) * 100.0,
                elbow
            );
            let congested = analysis.congested_series(threshold, 0.10);
            let n_congested = congested.iter().filter(|c| **c).count();
            println!(
                "{n_congested}/{} servers congested (>10% of days with an event)",
                congested.len()
            );
        }
        "stream" => {
            let mut config = CampaignConfig::small(seed);
            config.days = days;
            config.topo_regions = vec![(region.name.clone(), budget)];
            config.diff_regions.clear();
            config.keep_raw = true;
            config.jobs = jobs;
            let fault_spec = arg_str(&args, "--fault-profile", "none");
            config.fault_plan = load_fault_profile(&fault_spec);

            let mut engine_cfg = clasp_stream::EngineConfig::paper();
            engine_cfg.threshold = if args.iter().any(|a| a == "--auto-threshold") {
                clasp_stream::ThresholdMode::Auto {
                    initial: threshold,
                    min_days: 30,
                }
            } else {
                clasp_stream::ThresholdMode::Fixed(threshold)
            };

            let metrics_path = arg_opt(&args, "--metrics");
            let trace_path = arg_opt(&args, "--trace");
            let obs = Observer::new();
            let campaign = Campaign::new(&world, config);
            let mut engine = campaign.stream_engine(engine_cfg);
            let mut runner = campaign.runner().streaming(&mut engine);
            if metrics_path.is_some() || trace_path.is_some() {
                runner = runner.observer(&obs);
            }
            let result = runner.run().expect("fresh runs cannot fail");
            write_telemetry(&obs, metrics_path.as_deref(), trace_path.as_deref());
            println!(
                "campaign: {} tests, {} VMs, ${:.2}",
                result.tests_run,
                result.vm_count,
                result.billing.total_usd()
            );
            if !result.fault_log.is_empty() {
                let s = result.fault_log.summary();
                println!(
                    "faults: {} injected, {} recovered ({} retries), {} lost ({} s-hours)",
                    s.total, s.recovered, s.retries, s.lost, s.lost_s_hours
                );
            }
            let s = engine.stats();
            println!(
                "stream: {} events, {} matched, {} days closed, {} labels",
                s.events_seen, s.points_matched, s.days_closed, s.labels_emitted
            );
            println!(
                "health: {} out-of-order, {} duplicates, {} gap-hours, {} late-dropped",
                s.out_of_order, s.duplicates, s.gap_hours, s.late_dropped
            );
            let h = engine.threshold();
            println!(
                "congestion @ H={h}: {:.1}% of s-days, {:.2}% of s-hours \
                 (streaming elbow suggests {:?})",
                engine.fraction_days_above(h) * 100.0,
                engine.fraction_hours_above(h) * 100.0,
                engine.elbow()
            );
            let congested = engine.congested_series(0.10);
            println!(
                "{}/{} servers congested (>10% of days with an event)",
                congested.iter().filter(|c| **c).count(),
                congested.len()
            );
            if !engine.alerts().is_empty() {
                println!("alerts ({}):", engine.alerts().len());
                for a in engine.alerts().iter().take(8) {
                    println!(
                        "  {:<14} {:>7}s..{:>7}s peak V_H {:.2} ({} events{})",
                        a.server,
                        a.start,
                        a.end,
                        a.peak_v_h,
                        a.events,
                        if a.open { ", still open" } else { "" }
                    );
                }
            }

            // Differential check: the batch analysis over the same Db must
            // agree element-wise with what the engine computed online.
            let mut db = result.db;
            let analysis = CongestionAnalysis::build(
                &mut db,
                &world,
                "download",
                &[("method".to_string(), "topo".to_string())],
            );
            let days_ok = analysis.day_vars.len() == engine.day_records().len()
                && analysis
                    .day_vars
                    .iter()
                    .zip(engine.day_records())
                    .all(|(b, d)| {
                        b.local_day == d.local_day
                            && b.v == d.v
                            && b.t_max == d.t_max
                            && b.t_min == d.t_min
                            && b.n == d.n
                    });
            let hours_ok = analysis.samples.len() == engine.labels().len()
                && analysis.samples.iter().zip(engine.labels()).all(|(b, l)| {
                    b.series_idx == l.series_idx
                        && b.time == l.time
                        && b.local_hour == l.local_hour
                        && b.value == l.value
                        && b.v_h == l.v_h
                });
            println!(
                "\ndifferential vs batch: day records {}, hourly samples {}",
                if days_ok { "identical" } else { "MISMATCH" },
                if hours_ok { "identical" } else { "MISMATCH" }
            );
            if !days_ok || !hours_ok {
                std::process::exit(1);
            }
        }
        "report" => {
            let config = if args.iter().any(|a| a == "--paper") {
                let mut c = CampaignConfig::paper(seed);
                c.jobs = jobs;
                c.fault_plan = load_fault_profile(&arg_str(&args, "--fault-profile", "gcp-2020"));
                c
            } else {
                let mut c = CampaignConfig::small(seed);
                c.days = days;
                c.topo_regions = vec![(region.name.clone(), budget)];
                c.jobs = jobs;
                c.fault_plan = load_fault_profile(&arg_str(&args, "--fault-profile", "none"));
                c
            };
            let obs = Observer::new();
            let result = Campaign::new(&world, config)
                .runner()
                .observer(&obs)
                .run()
                .expect("fresh runs cannot fail");
            write_telemetry(
                &obs,
                arg_opt(&args, "--metrics").as_deref(),
                arg_opt(&args, "--trace").as_deref(),
            );
            let m = obs.metrics();
            println!("phases (wall time is informational; logical time is replayable):");
            println!("{}", obs.render_span_table());
            println!("stage wall-time distribution (p50/p95 across occurrences):");
            println!("{}", obs.render_span_stats());
            println!("per-VM test budgets:");
            println!("{}", render_vm_table(&m));
            println!(
                "completeness: {:.2}% ({} server-hours missing{})",
                result.completeness.overall_completeness() * 100.0,
                result.completeness.total_missing(),
                if result.completeness.reconciles() {
                    ", reconciles with fault log"
                } else {
                    "; DOES NOT RECONCILE"
                }
            );
            if !result.fault_log.is_empty() {
                let s = result.fault_log.summary();
                println!(
                    "faults: {} injected, {} recovered ({} retries), {} lost ({} s-hours)",
                    s.total, s.recovered, s.retries, s.lost, s.lost_s_hours
                );
            }
            println!(
                "ingest: {} objects, {} points, {} malformed",
                m.counter("ingest.objects"),
                m.counter("ingest.points"),
                m.counter("ingest.errors"),
            );
            println!(
                "billing: ${:.2} total (${:.2} VM, ${:.2} egress, ${:.2} storage) \
                 for {} VMs, {} tests",
                result.billing.total_usd(),
                result.billing.vm_usd(),
                result.billing.egress_usd(),
                result.billing.storage_usd(),
                result.vm_count,
                result.tests_run
            );
        }
        "serve" => {
            let clients = arg_u64(&args, "--clients", 4).max(1);
            let mut config = CampaignConfig::small(seed);
            config.days = days;
            config.topo_regions = vec![(region.name.clone(), budget)];
            config.diff_regions.clear();
            config.jobs = jobs;
            let campaign = Campaign::new(&world, config);
            let result = campaign.runner().run().expect("fresh runs cannot fail");
            let mut db = result.db;
            let source = db.snapshot();
            println!(
                "campaign: {} tests across {} series",
                result.tests_run,
                source.series_count()
            );

            // Identity for the cache key: the campaign seed plus a hash
            // of the knobs that shape its data.
            let config_hash = fnv1a(&format!("{}:{budget}:{days}:{seed}", region.name));
            let server = std::sync::Arc::new(clasp_serve::Server::new(clasp_serve::ServerConfig {
                seed,
                config_hash,
                ..clasp_serve::ServerConfig::default()
            }));

            // Shard the campaign's points round-robin across N ingest
            // clients and feed them as sequenced batches — the arrival
            // interleaving cannot change the published bytes.
            let mut shards: Vec<Vec<tsdb::Point>> = vec![Vec::new(); clients as usize];
            let mut idx = 0usize;
            for series in source.series() {
                for (t, fields) in series.samples() {
                    shards[idx % clients as usize].push(tsdb::Point::from_parts(
                        series.measurement.clone(),
                        series.tags.clone(),
                        fields.to_map(),
                        *t,
                    ));
                    idx += 1;
                }
            }
            let mut feeders: Vec<clasp_serve::Client<clasp_serve::LocalTransport>> = (0..clients)
                .map(|k| {
                    clasp_serve::Client::new(
                        format!("ingest-{k:03}"),
                        clasp_serve::LocalTransport::new(std::sync::Arc::clone(&server)),
                    )
                })
                .collect();
            const BATCH: usize = 512;
            let mut pending: Vec<Vec<tsdb::Point>> = shards;
            let mut fed = 0u64;
            while pending.iter().any(|s| !s.is_empty()) {
                for (k, shard) in pending.iter_mut().enumerate() {
                    if shard.is_empty() {
                        continue;
                    }
                    let take = shard.len().min(BATCH);
                    let batch: Vec<tsdb::Point> = shard.drain(..take).collect();
                    fed += batch.len() as u64;
                    feeders[k].ingest(batch).expect("ingest batch");
                }
            }
            let generation = feeders[0].publish().expect("publish");
            println!(
                "serve: {fed} points via {clients} sequenced clients, generation {generation}"
            );

            // Self-check: served bytes vs in-process evaluation over
            // the server's own snapshot, twice (miss then cache hit).
            let snap = server.snapshot();
            let specs = [
                clasp_serve::QuerySpec::select("speedtest", "download")
                    .aggregate(tsdb::Aggregate::Percentile(95.0))
                    .group_by_time(86400),
                clasp_serve::QuerySpec::select("speedtest", "upload")
                    .aggregate(tsdb::Aggregate::Mean),
                clasp_serve::QuerySpec::select("speedtest", "latency")
                    .aggregate(tsdb::Aggregate::Percentile(5.0)),
            ];
            let mut reader = clasp_serve::Client::new(
                "reader",
                clasp_serve::LocalTransport::new(std::sync::Arc::clone(&server)),
            );
            for spec in &specs {
                let direct = spec.to_query().run_snapshot(&snap);
                let body = clasp_serve::proto::results_to_value(snap.generation(), &direct);
                let serde_json::Value::Object(m) = body else {
                    unreachable!("results_to_value returns an object")
                };
                let expect = clasp_serve::proto::ok_response(m);
                for pass in ["miss", "hit"] {
                    let (_, raw) = reader.query(spec).expect("query");
                    if raw != expect {
                        eprintln!("serve equivalence MISMATCH ({pass}): {}", spec.canonical());
                        std::process::exit(1);
                    }
                }
            }
            let cache = server.cache_stats();
            println!(
                "serve equivalence: identical across {} queries ({} cache hits, {} misses)",
                specs.len() * 2,
                cache.hits,
                cache.misses
            );
            if let Some(path) = arg_opt(&args, "--metrics") {
                let obs = Observer::new();
                server.record_metrics(&obs);
                write_telemetry(&obs, Some(&path), None);
            }

            if let Some(port) = arg_opt(&args, "--port") {
                let port: u16 = port.parse().unwrap_or_else(|_| {
                    eprintln!("bad port {port}");
                    std::process::exit(2);
                });
                let listener =
                    std::net::TcpListener::bind(("127.0.0.1", port)).unwrap_or_else(|e| {
                        eprintln!("cannot bind 127.0.0.1:{port}: {e}");
                        std::process::exit(1);
                    });
                let addr = listener.local_addr().expect("bound socket has an address");
                println!("serving line-delimited JSON on {addr} (Ctrl-C to stop)");
                if let Err(e) = clasp_serve::wire::serve_listener(&server, &listener) {
                    eprintln!("accept loop failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::check_verdict;

    fn summary(fnv: Option<&str>, p50: f64) -> serde_json::Value {
        let fnv = fnv.map_or(String::new(), |f| format!(r#""checkpoint_fnv":"{f}","#));
        serde_json::from_str(&format!(r#"{{{fnv}"total":{{"p50_secs":{p50}}}}}"#)).unwrap()
    }

    #[test]
    fn check_passes_on_same_output_within_the_limit() {
        let base = summary(Some("33c0b3621c5ec753"), 0.280);
        assert!(check_verdict(&base, &summary(Some("33c0b3621c5ec753"), 0.300), 0.15).is_ok());
        assert!(check_verdict(&base, &summary(Some("33c0b3621c5ec753"), 0.330), 0.15).is_err());
    }

    #[test]
    fn check_fails_when_the_checkpoint_fingerprint_differs() {
        let base = summary(Some("33c0b3621c5ec753"), 0.280);
        let err = check_verdict(&base, &summary(Some("0000000000000001"), 0.100), 0.15);
        assert!(err.unwrap_err().contains("0000000000000001"));
    }

    #[test]
    fn check_fails_when_the_checkpoint_fingerprint_is_missing() {
        let fast = summary(None, 0.100);
        let base = summary(Some("33c0b3621c5ec753"), 0.280);
        assert!(check_verdict(&base, &fast, 0.15).is_err());
        assert!(check_verdict(&fast, &base, 0.15).is_err());
        assert!(check_verdict(&fast, &fast, 0.15).is_err());
    }
}
