//! Property test for the streaming engine's central guarantee: for
//! arbitrary world seeds, a campaign run under the `gcp-2020` fault
//! profile (and under arbitrary uniform fault rates) yields streaming
//! hourly labels *element-wise identical* to the batch analysis of the
//! same database — the fault machinery (retries, gaps, reordering) must
//! never open daylight between the online and offline views.

use clasp_core::campaign::{Campaign, CampaignConfig};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::world::World;
use clasp_stream::{EngineConfig, ThresholdMode};
use faultsim::FaultPlan;
use proptest::prelude::*;

/// Two days crosses a day boundary (day close, upload batching) while
/// keeping each case fast.
fn config(seed: u64) -> CampaignConfig {
    let mut c = CampaignConfig::small(seed);
    c.days = 2;
    c.diff_days = 1;
    c
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        threshold: ThresholdMode::Fixed(0.5),
        ..EngineConfig::paper()
    }
}

fn assert_labels_match(world_seed: u64, plan: FaultPlan) -> Result<(), TestCaseError> {
    let world = World::new(world_seed);
    let mut cfg = config(world_seed);
    cfg.fault_plan = plan;
    let campaign = Campaign::new(&world, cfg);
    let mut engine = campaign.stream_engine(engine_cfg());
    let mut result = campaign
        .runner()
        .streaming(&mut engine)
        .run()
        .expect("fresh runs cannot fail");
    let analysis = CongestionAnalysis::build(
        &mut result.db,
        &world,
        "download",
        &[("method".to_string(), "topo".to_string())],
    );

    prop_assert_eq!(engine.stats().late_dropped, 0);
    prop_assert_eq!(engine.day_records().len(), analysis.day_vars.len());
    for (d, b) in engine.day_records().iter().zip(&analysis.day_vars) {
        prop_assert_eq!(d.local_day, b.local_day);
        prop_assert_eq!(d.v.to_bits(), b.v.to_bits());
        prop_assert_eq!(d.n, b.n);
    }
    prop_assert_eq!(engine.labels().len(), analysis.samples.len());
    for (l, b) in engine.labels().iter().zip(&analysis.samples) {
        prop_assert_eq!(l.series_idx, b.series_idx);
        prop_assert_eq!(l.time, b.time);
        prop_assert_eq!(l.local_hour, b.local_hour);
        prop_assert_eq!(l.value.to_bits(), b.value.to_bits());
        prop_assert_eq!(l.v_h.to_bits(), b.v_h.to_bits());
        prop_assert_eq!(l.congested, b.v_h > 0.5);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The paper-calibrated fault profile: streaming == batch labels.
    #[test]
    fn gcp_2020_campaign_streams_batch_identical_labels(world_seed in 0u64..200) {
        let plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
        assert_labels_match(world_seed, plan)?;
    }

    /// Arbitrary uniform fault rates: the equivalence is not an artifact
    /// of one profile's rate mix.
    #[test]
    fn uniform_fault_campaign_streams_batch_identical_labels(
        world_seed in 0u64..200,
        plan_seed in 0u64..1_000_000,
        rate in 0.002f64..0.08,
    ) {
        assert_labels_match(world_seed, FaultPlan::uniform(plan_seed, rate))?;
    }
}
