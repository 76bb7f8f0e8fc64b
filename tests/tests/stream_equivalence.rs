//! Differential tests for the streaming congestion engine: the online
//! labels must be *element-wise identical* to the batch analysis of the
//! very same campaign database — same series order, same day records
//! (bit-equal floats), same hourly samples and verdicts — with and
//! without fault injection, and across checkpoint/resume cuts: a resumed
//! run replays the completed units into a fresh engine, and that replay
//! is exact at every cut.

use analysis::harness::PAPER_SEED;
use clasp_core::campaign::{Campaign, CampaignConfig, CampaignResult};
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
/// into a fresh engine finishes with state *byte-identical* (snapshot
/// JSON) to the uninterrupted run — labels, alerts, thresholds, health
/// counters.
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
        ckpt.get("stream").is_none(),
        "streaming checkpoints carry no engine state"
    );
    let mut resumed_engine = campaign.stream_engine(engine_cfg(0.5));
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

    let mut engine = campaign.stream_engine(engine_cfg(0.5));
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
/// checkpoints are byte-identical to the plain run's.
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
        assert_eq!(serde_json::to_string(p), serde_json::to_string(s));
    }
}

fn auto_cfg(min_days: u64) -> EngineConfig {
    EngineConfig {
        threshold: ThresholdMode::Auto {
            initial: 0.5,
            min_days,
        },
        ..EngineConfig::paper()
    }
}

/// A small campaign of four units (two topology, two differential
/// regions), so it has three mid-run cuts.
fn four_unit_config(seed: u64) -> CampaignConfig {
    let mut c = config(seed);
    c.topo_regions.push(("us-east1".into(), 12));
    c.diff_regions.push("us-central1".into());
    c
}

/// Every checkpoint a run wrote, as bytes.
fn checkpoint_bytes(r: &CampaignResult) -> Vec<String> {
    r.checkpoints.iter().map(serde_json::to_string).collect()
}

/// Runs `cfg` streaming, then resumes it from every checkpoint (the last
/// one included: a pure replay) into a fresh engine. Each resumed run
/// must write the uninterrupted run's checkpoints from the cut on (a
/// replayed unit's checkpoint holds the totals as of the cut) and end
/// with its `EngineStats` and `snapshot()` bytes. Returns the
/// uninterrupted engine.
fn assert_every_cut_resumes_exactly(
    world: &World,
    cfg: CampaignConfig,
    ecfg: &EngineConfig,
) -> StreamEngine {
    let campaign = Campaign::new(world, cfg);
    let mut full_engine = campaign.stream_engine(ecfg.clone());
    let full = campaign
        .runner()
        .streaming(&mut full_engine)
        .run()
        .expect("fresh runs cannot fail");
    assert!(full.checkpoints.len() >= 2, "need a mid-run checkpoint");
    let want_ckpts = checkpoint_bytes(&full);
    let want_snap = serde_json::to_string(&full_engine.snapshot());

    for (cut, ckpt) in full.checkpoints.iter().enumerate() {
        assert!(ckpt.get("stream").is_none(), "cut {cut}: engine state");
        let mut engine = campaign.stream_engine(ecfg.clone());
        let resumed = campaign
            .runner()
            .resume_from(ckpt)
            .streaming(&mut engine)
            .run()
            .expect("resume succeeds");
        assert_eq!(resumed.tests_run, full.tests_run, "cut {cut}");
        assert!(
            checkpoint_bytes(&resumed)[cut..] == want_ckpts[cut..],
            "cut {cut}: checkpoints differ"
        );
        assert_eq!(engine.stats(), full_engine.stats(), "cut {cut}");
        assert!(
            serde_json::to_string(&engine.snapshot()) == want_snap,
            "cut {cut}: engine snapshot differs"
        );
    }
    full_engine
}

/// The paper's five topology and three differential regions over 12
/// days, under gcp-2020 faults, with the threshold recalibrating online
/// and alerts opening and closing: replay into a fresh engine is exact
/// at every cut.
#[test]
fn paper_shaped_campaign_resumes_exactly_at_every_cut() {
    let world = World::new(PAPER_SEED);
    let mut cfg = CampaignConfig::paper(PAPER_SEED);
    cfg.days = 12;
    cfg.diff_days = 5;
    cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
    let engine = assert_every_cut_resumes_exactly(&world, cfg, &auto_cfg(3));
    let s = engine.stats();
    assert!(s.recalibrations > 0, "the threshold never recalibrated");
    assert!(s.alert_transitions > 0, "no alert ever opened");
    assert!(
        s.out_of_order + s.duplicates + s.gap_hours > 0,
        "faults left no trace"
    );
}

/// Fixed and auto thresholds, with and without faults, on small
/// four-unit campaigns.
#[test]
fn small_campaigns_resume_exactly_at_every_cut() {
    for (seed, faults) in [(83, false), (84, true)] {
        let world = World::new(seed);
        for ecfg in [engine_cfg(0.5), auto_cfg(1)] {
            let mut cfg = four_unit_config(seed);
            if faults {
                cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
            }
            let engine = assert_every_cut_resumes_exactly(&world, cfg, &ecfg);
            assert!(engine.stats().labels_emitted > 0);
        }
    }
}

/// A checkpoint written before checkpoints stopped carrying engine state
/// may hold a `"stream"` key. It is ignored, whatever it holds: the
/// resume ends with the same result and engine bytes as without it.
#[test]
fn legacy_stream_key_is_ignored_on_resume() {
    let world = World::new(85);
    let mut cfg = config(85);
    cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
    let campaign = Campaign::new(&world, cfg);
    let mut full_engine = campaign.stream_engine(auto_cfg(1));
    let full = campaign
        .runner()
        .streaming(&mut full_engine)
        .run()
        .expect("fresh runs cannot fail");
    let ckpt = &full.checkpoints[0];

    let resume = |ckpt: &serde_json::Value| {
        let mut engine = campaign.stream_engine(auto_cfg(1));
        let result = campaign
            .runner()
            .resume_from(ckpt)
            .streaming(&mut engine)
            .run()
            .expect("resume succeeds");
        (
            checkpoint_bytes(&result),
            result.tests_run,
            result.db.points_written,
            serde_json::to_string(&engine.snapshot()),
        )
    };
    let want = resume(ckpt);
    assert_eq!(want.3, serde_json::to_string(&full_engine.snapshot()));

    let legacy = [
        full_engine.snapshot(),
        serde_json::Value::Null,
        serde_json::Value::String("garbage".into()),
        serde_json::from_str(r#"{"version": 9, "series": 7}"#).unwrap(),
        serde_json::from_str("[1, 2, 3]").unwrap(),
    ];
    for value in legacy {
        let mut old = ckpt.clone();
        let serde_json::Value::Object(m) = &mut old else {
            panic!("checkpoints are objects");
        };
        m.insert("stream".into(), value);
        assert!(
            resume(&old) == want,
            "a legacy \"stream\" key changed the resume"
        );
    }
}
