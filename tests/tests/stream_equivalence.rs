//! Differential tests for the streaming congestion engine: the online
//! labels must be *element-wise identical* to the batch analysis of the
//! very same campaign database — same series order, same day records
//! (bit-equal floats), same hourly samples and verdicts — with and
//! without fault injection, and across a checkpoint/resume cut.

use clasp_core::campaign::{Campaign, CampaignConfig};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::world::World;
use clasp_stream::{EngineConfig, StreamEngine, ThresholdMode};
use faultsim::FaultPlan;

fn config(seed: u64) -> CampaignConfig {
    let mut c = CampaignConfig::small(seed);
    c.days = 3;
    c.diff_days = 1;
    c
}

fn engine_cfg(h: f64) -> EngineConfig {
    EngineConfig {
        threshold: ThresholdMode::Fixed(h),
        ..EngineConfig::paper()
    }
}

fn batch_filters() -> Vec<(String, String)> {
    vec![("method".to_string(), "topo".to_string())]
}

/// Asserts the engine's output is element-wise identical to the batch
/// analysis built from the same database, at threshold `h`.
fn assert_equivalent(engine: &StreamEngine, analysis: &CongestionAnalysis, h: f64) {
    // Series enumeration: same keys, same order, same metadata.
    assert_eq!(engine.series().len(), analysis.series.len());
    for (s, b) in engine.series().iter().zip(&analysis.series) {
        assert_eq!(s.key, b.key);
        assert_eq!(s.server, b.server);
        assert_eq!(s.region, b.region);
        assert_eq!(s.tier, b.tier);
        assert_eq!(s.utc_offset, b.utc_offset);
    }
    // Day records: bit-equal extrema and variability, same order.
    assert_eq!(engine.day_records().len(), analysis.day_vars.len());
    for (d, b) in engine.day_records().iter().zip(&analysis.day_vars) {
        assert_eq!(engine.series()[d.series_idx as usize].key, b.series);
        assert_eq!(d.local_day, b.local_day);
        assert_eq!(d.v.to_bits(), b.v.to_bits());
        assert_eq!(d.t_max.to_bits(), b.t_max.to_bits());
        assert_eq!(d.t_min.to_bits(), b.t_min.to_bits());
        assert_eq!(d.n, b.n);
    }
    // Hourly labels: bit-equal values and the same congestion verdicts.
    assert_eq!(engine.labels().len(), analysis.samples.len());
    for (l, b) in engine.labels().iter().zip(&analysis.samples) {
        assert_eq!(l.series_idx, b.series_idx);
        assert_eq!(l.time, b.time);
        assert_eq!(l.local_hour, b.local_hour);
        assert_eq!(l.local_day, b.local_day);
        assert_eq!(l.value.to_bits(), b.value.to_bits());
        assert_eq!(l.v_h.to_bits(), b.v_h.to_bits());
        assert_eq!(l.congested, b.v_h > h);
    }
    // Aggregates follow from the element-wise identity.
    assert_eq!(
        engine.fraction_days_above(h).to_bits(),
        analysis.fraction_days_above(h).to_bits()
    );
    assert_eq!(
        engine.fraction_hours_above(h).to_bits(),
        analysis.fraction_hours_above(h).to_bits()
    );
    assert_eq!(engine.hourly_probability(), analysis.hourly_probability(h));
    assert_eq!(
        engine.congested_series(0.10),
        analysis.congested_series(h, 0.10)
    );
}

#[test]
fn streaming_equals_batch_without_faults() {
    let world = World::new(77);
    let campaign = Campaign::new(&world, config(77));
    let mut engine = campaign.stream_engine(engine_cfg(0.5));
    let mut result = campaign
        .runner()
        .streaming(&mut engine)
        .run()
        .expect("fresh runs cannot fail");
    let analysis = CongestionAnalysis::build(&mut result.db, &world, "download", &batch_filters());

    assert_equivalent(&engine, &analysis, 0.5);
    assert!(engine.stats().points_matched > 0);
    assert_eq!(
        engine.stats().late_dropped,
        0,
        "campaign streams never seal early"
    );
}

#[test]
fn streaming_equals_batch_under_gcp_2020_faults() {
    let world = World::new(78);
    let mut cfg = config(78);
    cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
    let campaign = Campaign::new(&world, cfg);
    let mut engine = campaign.stream_engine(engine_cfg(0.5));
    let mut result = campaign
        .runner()
        .streaming(&mut engine)
        .run()
        .expect("fresh runs cannot fail");

    // The profile must actually do something for this to mean anything.
    assert!(!result.fault_log.is_empty(), "gcp-2020 injected no faults");
    let analysis = CongestionAnalysis::build(&mut result.db, &world, "download", &batch_filters());
    assert_equivalent(&engine, &analysis, 0.5);
    assert_eq!(engine.stats().late_dropped, 0);
}

/// The streaming elbow sweep must agree with the batch sweep over the
/// same closed days, so online recalibration lands on the same `H`.
#[test]
fn streaming_elbow_matches_batch_sweep() {
    let world = World::new(79);
    let campaign = Campaign::new(&world, config(79));
    let mut engine = campaign.stream_engine(engine_cfg(0.5));
    let mut result = campaign
        .runner()
        .streaming(&mut engine)
        .run()
        .expect("fresh runs cannot fail");
    let analysis = CongestionAnalysis::build(&mut result.db, &world, "download", &batch_filters());

    let (batch_curve, batch_elbow) = analysis.elbow_threshold(20);
    let stream_curve = engine.elbow_curve();
    assert_eq!(stream_curve.len(), batch_curve.len());
    for ((ht, fs), (hb, fb)) in stream_curve.iter().zip(&batch_curve) {
        assert_eq!(ht.to_bits(), hb.to_bits());
        assert_eq!(fs.to_bits(), fb.to_bits());
    }
    assert_eq!(engine.elbow(), batch_elbow);
}

/// A streaming run interrupted at the first unit checkpoint and resumed
/// finishes with state *byte-identical* (snapshot JSON) to the
/// uninterrupted run — labels, alerts, thresholds, health counters.
#[test]
fn resumed_streaming_run_is_byte_identical() {
    let world = World::new(80);
    let mut cfg = config(80);
    cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");

    let campaign = Campaign::new(&world, cfg);
    let mut full_engine = campaign.stream_engine(engine_cfg(0.5));
    let full = campaign
        .runner()
        .streaming(&mut full_engine)
        .run()
        .expect("fresh runs cannot fail");
    assert!(full.checkpoints.len() >= 2, "need a mid-run checkpoint");

    // Cut after the first completed unit.
    let ckpt = &full.checkpoints[0];
    assert!(
        ckpt.get("stream").is_some(),
        "streaming checkpoints embed the engine"
    );
    let mut resumed_engine = campaign
        .restore_stream_engine(engine_cfg(0.5), ckpt)
        .expect("snapshot restores");
    let resumed = campaign
        .runner()
        .resume_from(ckpt)
        .streaming(&mut resumed_engine)
        .run()
        .expect("resume succeeds");

    assert_eq!(full.tests_run, resumed.tests_run);
    assert_eq!(
        serde_json::to_string(&full_engine.snapshot()),
        serde_json::to_string(&resumed_engine.snapshot())
    );
    assert_eq!(full_engine.stats(), resumed_engine.stats());
}

/// A checkpoint from a *non-streaming* run resumes into streaming: the
/// fresh engine catches up by replaying the completed units' data, and
/// still matches the batch analysis.
#[test]
fn plain_checkpoint_resumes_into_streaming() {
    let world = World::new(81);
    let campaign = Campaign::new(&world, config(81));
    let plain = campaign.runner().run().expect("fresh runs cannot fail");
    let ckpt = &plain.checkpoints[0];
    assert!(ckpt.get("stream").is_none());

    let mut engine = campaign
        .restore_stream_engine(engine_cfg(0.5), ckpt)
        .expect("fresh engine for plain checkpoints");
    let mut result = campaign
        .runner()
        .resume_from(ckpt)
        .streaming(&mut engine)
        .run()
        .expect("resume succeeds");
    let analysis = CongestionAnalysis::build(&mut result.db, &world, "download", &batch_filters());
    assert_equivalent(&engine, &analysis, 0.5);
}

/// Attaching a stream engine must not perturb the campaign itself:
/// checkpoints are identical to the plain run's once the embedded
/// `"stream"` snapshot is removed.
#[test]
fn streaming_leaves_campaign_checkpoints_untouched() {
    let world = World::new(82);
    let campaign = Campaign::new(&world, config(82));
    let plain = campaign.runner().run().expect("fresh runs cannot fail");
    let mut engine = campaign.stream_engine(engine_cfg(0.5));
    let streamed = campaign
        .runner()
        .streaming(&mut engine)
        .run()
        .expect("fresh runs cannot fail");

    assert_eq!(plain.checkpoints.len(), streamed.checkpoints.len());
    for (p, s) in plain.checkpoints.iter().zip(&streamed.checkpoints) {
        let mut s = s.clone();
        if let serde_json::Value::Object(m) = &mut s {
            assert!(m.remove("stream").is_some());
        }
        assert_eq!(serde_json::to_string(p), serde_json::to_string(&s));
    }
}
