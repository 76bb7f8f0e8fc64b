//! Differential tests for the observability layer: an attached
//! [`Observer`] must produce *byte-identical* metrics and trace JSON
//! across `--jobs N`, across checkpoint resumes (batch and streaming),
//! and must never perturb the campaign result itself.

use clasp_core::campaign::{Campaign, CampaignConfig, CampaignResult};
use clasp_core::world::World;
use clasp_core::Observer;
use clasp_stream::{EngineConfig, StreamEngine, ThresholdMode};
use faultsim::FaultPlan;

fn config(seed: u64) -> CampaignConfig {
    let mut c = CampaignConfig::small(seed);
    c.days = 3;
    c.diff_days = 1;
    c
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        threshold: ThresholdMode::Fixed(0.5),
        ..EngineConfig::paper()
    }
}

/// Runs one observed campaign and returns the result plus the final
/// telemetry serializations.
fn observed_run(
    world: &World,
    cfg: CampaignConfig,
    jobs: usize,
    resume: Option<&serde_json::Value>,
) -> (CampaignResult, String, String) {
    let obs = Observer::new();
    let campaign = Campaign::new(world, cfg);
    let mut runner = campaign.runner().jobs(jobs).observer(&obs);
    if let Some(ckpt) = resume {
        runner = runner.resume_from(ckpt);
    }
    let result = runner.run().expect("observed run succeeds");
    (result, obs.metrics_string(), obs.trace_string())
}

/// Result fields that must not shift when telemetry is attached or the
/// job count changes.
fn assert_results_identical(a: &CampaignResult, b: &CampaignResult, label: &str) {
    assert_eq!(a.tests_run, b.tests_run, "{label}");
    assert_eq!(a.tainted_tests, b.tainted_tests, "{label}");
    assert_eq!(a.vm_count, b.vm_count, "{label}");
    assert_eq!(a.raw_objects, b.raw_objects, "{label}");
    assert_eq!(a.db.points_written, b.db.points_written, "{label}");
    assert_eq!(a.fault_log, b.fault_log, "{label}");
    assert_eq!(a.completeness, b.completeness, "{label}");
    assert_eq!(
        a.billing.total_usd().to_bits(),
        b.billing.total_usd().to_bits(),
        "{label}"
    );
    assert_eq!(a.checkpoints.len(), b.checkpoints.len(), "{label}");
    for (x, y) in a.checkpoints.iter().zip(&b.checkpoints) {
        assert_eq!(
            serde_json::to_string(x),
            serde_json::to_string(y),
            "{label}"
        );
    }
}

/// Telemetry is byte-identical at every job count, with and without
/// fault injection.
#[test]
fn telemetry_identical_across_job_counts() {
    for (seed, faults) in [(61, false), (62, true)] {
        let world = World::new(seed);
        let mut cfg = config(seed);
        if faults {
            cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
        }
        let (base, base_metrics, base_trace) = observed_run(&world, cfg.clone(), 1, None);
        if faults {
            assert!(!base.fault_log.is_empty(), "profile injected no faults");
        }
        for jobs in [4, 8] {
            let (result, metrics, trace) = observed_run(&world, cfg.clone(), jobs, None);
            let label = format!("seed={seed} jobs={jobs}");
            assert_results_identical(&base, &result, &label);
            assert_eq!(base_metrics, metrics, "{label}");
            assert_eq!(base_trace, trace, "{label}");
        }
    }
}

/// A resumed observed run re-derives the exact telemetry of the
/// uninterrupted one: exec-phase shard metrics ride in the checkpoint,
/// everything else is recomputed from the durable bucket snapshots.
#[test]
fn telemetry_identical_across_checkpoint_resume() {
    let world = World::new(63);
    let mut cfg = config(63);
    cfg.fault_plan = FaultPlan::builtin("moderate").expect("built-in profile");
    let (full, full_metrics, full_trace) = observed_run(&world, cfg.clone(), 1, None);
    assert!(full.checkpoints.len() >= 2, "need a mid-run checkpoint");

    let mut pcfg = cfg;
    pcfg.jobs = 8;
    let (resumed, metrics, trace) = observed_run(&world, pcfg, 8, Some(&full.checkpoints[0]));
    assert_results_identical(&full, &resumed, "observed resume");
    assert_eq!(full_metrics, metrics, "metrics across resume");
    assert_eq!(full_trace, trace, "trace across resume");
}

/// Streaming runs: engine state, campaign result, and telemetry all
/// survive a checkpoint cut with an observer attached on both sides.
#[test]
fn streaming_telemetry_identical_across_resume() {
    let world = World::new(64);
    let cfg = config(64);
    let obs = Observer::new();
    let campaign = Campaign::new(&world, cfg.clone());
    let mut full_engine: StreamEngine = campaign.stream_engine(engine_cfg());
    let full = campaign
        .runner()
        .streaming(&mut full_engine)
        .observer(&obs)
        .run()
        .expect("fresh runs cannot fail");
    let ckpt = &full.checkpoints[0];
    assert!(ckpt.get("stream").is_some());
    assert!(ckpt.get("obs").is_some(), "observed checkpoint carries obs");

    let robs = Observer::new();
    let mut pcfg = cfg;
    pcfg.jobs = 4;
    let pcampaign = Campaign::new(&world, pcfg);
    let mut resumed_engine = pcampaign
        .restore_stream_engine(engine_cfg(), ckpt)
        .expect("snapshot restores");
    let resumed = pcampaign
        .runner()
        .resume_from(ckpt)
        .streaming(&mut resumed_engine)
        .observer(&robs)
        .run()
        .expect("resume succeeds");

    assert_results_identical(&full, &resumed, "streaming observed resume");
    assert_eq!(full_engine.stats(), resumed_engine.stats());
    assert_eq!(
        serde_json::to_string(&full_engine.snapshot()),
        serde_json::to_string(&resumed_engine.snapshot())
    );
    assert_eq!(obs.metrics_string(), robs.metrics_string());
    assert_eq!(obs.trace_string(), robs.trace_string());
}

/// The observer never changes what the campaign computes: results and
/// checkpoints match an unobserved run byte-for-byte once the
/// checkpoint-only `"obs"` carrier key is stripped.
#[test]
fn observer_is_invisible_to_campaign_results() {
    let world = World::new(65);
    let mut cfg = config(65);
    cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
    let plain = Campaign::new(&world, cfg.clone())
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    let (observed, metrics, _trace) = observed_run(&world, cfg, 4, None);

    assert_eq!(plain.tests_run, observed.tests_run);
    assert_eq!(plain.fault_log, observed.fault_log);
    assert_eq!(plain.completeness, observed.completeness);
    assert_eq!(plain.checkpoints.len(), observed.checkpoints.len());
    for (x, y) in plain.checkpoints.iter().zip(&observed.checkpoints) {
        let mut y = y.clone();
        if let serde_json::Value::Object(map) = &mut y {
            map.remove("obs");
        }
        assert_eq!(serde_json::to_string(x), serde_json::to_string(&y));
    }
    // And the scrape agrees with the result it describes.
    let parsed: serde_json::Value = serde_json::from_str(&metrics).expect("metrics parse");
    let counters = parsed.get("counters").expect("counters section");
    assert_eq!(
        counters.get("exec.tests_executed").and_then(|v| v.as_u64()),
        Some(observed.tests_run)
    );
    assert_eq!(
        counters.get("ingest.points").and_then(|v| v.as_u64()),
        Some(observed.db.points_written)
    );
}
