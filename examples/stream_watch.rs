//! Stream watch: run a fault-injected campaign with the online
//! congestion engine attached, watch alerts fire with hysteresis while
//! the data streams in, let the threshold recalibrate itself — then
//! cross-check every label against the batch analysis and resume the
//! run from a mid-campaign checkpoint into a fresh engine.
//!
//! ```text
//! cargo run --release -p clasp-examples --bin stream_watch [--seed N] [--days N]
//! ```

use clasp_core::campaign::{Campaign, CampaignConfig};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::world::World;
use clasp_examples::arg_u64;
use clasp_stream::{EngineConfig, ThresholdMode};
use faultsim::FaultPlan;

fn main() {
    let seed = arg_u64("--seed", 42);
    let days = arg_u64("--days", 5);

    println!("== CLASP stream watch: seed {seed}, {days} days, gcp-2020 faults ==\n");
    let world = World::new(seed);
    let mut config = CampaignConfig::small(seed);
    config.days = days;
    config.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");

    // 1. Stream the campaign through the engine: labels, alerts and the
    //    threshold all update online as each result lands.
    let mut engine_cfg = EngineConfig::paper();
    engine_cfg.threshold = ThresholdMode::Auto {
        initial: 0.5,
        min_days: 20,
    };
    let campaign = Campaign::new(&world, config);
    let mut engine = campaign.stream_engine(engine_cfg.clone());
    let mut result = campaign
        .runner()
        .streaming(&mut engine)
        .run()
        .expect("fresh runs cannot fail");

    let s = engine.stats();
    println!(
        "stream   : {} events → {} matched → {} days closed → {} labels",
        s.events_seen, s.points_matched, s.days_closed, s.labels_emitted
    );
    println!(
        "health   : {} out-of-order, {} duplicates, {} gap-hours, {} late",
        s.out_of_order, s.duplicates, s.gap_hours, s.late_dropped
    );
    let fs = result.fault_log.summary();
    println!(
        "faults   : {} injected, {} recovered ({} retries), {} lost",
        fs.total, fs.recovered, fs.retries, fs.lost
    );
    println!(
        "threshold: recalibrated online to H = {:.2} (elbow of the streaming sweep)",
        engine.threshold()
    );

    // 2. The alert timeline: hysteresis (enter 0.5 / exit 0.3, 2-hour
    //    debounce) turns noisy hourly verdicts into sustained episodes.
    println!("\nalerts ({}):", engine.alerts().len());
    for a in engine.alerts().iter().take(10) {
        println!(
            "  {:<14} hours {:>4}–{:<4} peak V_H {:.2} ({} congested hours{})",
            a.server,
            a.start / 3600,
            a.end / 3600,
            a.peak_v_h,
            a.events,
            if a.open { ", still open" } else { "" }
        );
    }
    if engine.alerts().len() > 10 {
        println!("  … and {} more", engine.alerts().len() - 10);
    }

    // 3. The equivalence guarantee: the online view is element-wise
    //    identical to the batch analysis of the same database.
    let analysis = CongestionAnalysis::build(
        &mut result.db,
        &world,
        "download",
        &[("method".to_string(), "topo".to_string())],
    );
    assert_eq!(engine.day_records().len(), analysis.day_vars.len());
    assert!(engine
        .day_records()
        .iter()
        .zip(&analysis.day_vars)
        .all(|(d, b)| d.v.to_bits() == b.v.to_bits() && d.local_day == b.local_day));
    assert_eq!(engine.labels().len(), analysis.samples.len());
    assert!(engine
        .labels()
        .iter()
        .zip(&analysis.samples)
        .all(|(l, b)| l.time == b.time && l.v_h.to_bits() == b.v_h.to_bits()));
    println!(
        "\nequivalence: {} day records and {} labels bit-identical to batch",
        engine.day_records().len(),
        engine.labels().len()
    );

    // 4. Crash/resume: checkpoints carry no engine state, so resume
    //    from the first one with a fresh engine. Replaying the completed
    //    unit catches it up, and the final engine state matches the
    //    uninterrupted one byte for byte.
    let ckpt = &result.checkpoints[0];
    let mut resumed_engine = campaign.stream_engine(engine_cfg);
    campaign
        .runner()
        .resume_from(ckpt)
        .streaming(&mut resumed_engine)
        .run()
        .expect("checkpoint resumes");
    assert_eq!(
        serde_json::to_string(&engine.snapshot()),
        serde_json::to_string(&resumed_engine.snapshot())
    );
    println!(
        "resume: fresh engine replayed to checkpoint 1/{} and caught up — snapshots byte-identical",
        result.checkpoints.len()
    );
}
