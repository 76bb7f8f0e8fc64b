//! End-to-end integration: the full CLASP loop on a small world —
//! selection → planning → campaign → bucket → pipeline → detection —
//! with cross-crate invariants the unit tests cannot see.

use clasp_core::campaign::{Campaign, CampaignConfig, CampaignResult};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::world::World;
use faultsim::FaultPlan;
use tsdb::{Aggregate, Query};

fn run(seed: u64) -> (World, CampaignResult) {
    let world = World::tiny(seed);
    let result = Campaign::new(&world, CampaignConfig::small(seed))
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    (world, result)
}

#[test]
fn every_test_lands_in_the_database_via_the_bucket() {
    let (_, res) = run(301);
    // All points travelled through line protocol in bucket objects.
    assert_eq!(res.db.points_written, res.tests_run);
    assert!(res.raw_objects > 0);
    // Raw retention was requested by the small config.
    let bucket_points: usize = res.buckets.iter().flat_map(|b| b.list("raw/")).count();
    assert_eq!(bucket_points as u64, res.raw_objects);
}

#[test]
fn selection_servers_are_the_measured_servers() {
    let (_, res) = run(302);
    let selected: std::collections::BTreeSet<String> = res
        .topo_selections
        .iter()
        .flat_map(|s| s.servers.iter().cloned())
        .collect();
    let measured = res.db.tag_values("speedtest", "server");
    // Every topo-selected server has measurements.
    for s in &selected {
        assert!(measured.contains(s), "{s} selected but never measured");
    }
}

#[test]
fn hourly_granularity_holds_for_every_topo_server() {
    let (_, mut res) = run(303);
    let days = 4; // CampaignConfig::small
                  // Pure reads: one snapshot serves the whole per-server sweep.
    let snap = res.db.snapshot();
    for sid in res.topo_selections[0].servers.clone() {
        let counts = Query::select("speedtest", "download")
            .r#where("server", &sid)
            .r#where("method", "topo")
            .group_by_time(3600)
            .aggregate(Aggregate::Count)
            .run_snapshot(&snap);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].rows.len(), days * 24, "{sid}");
        assert!(counts[0].rows.iter().all(|r| r.value == 1.0));
    }
}

#[test]
fn detection_ground_truth_alignment() {
    // Servers in PeakCongested/AllDay ASes should account for the bulk of
    // congestion events — the check the real paper could never run.
    let world = World::tiny(304);
    let mut config = CampaignConfig::small(304);
    config.days = 10;
    config.topo_regions = vec![("us-west1".into(), 40)];
    let res = Campaign::new(&world, config)
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    let mut db = res.db;
    let analysis = CongestionAnalysis::build(
        &mut db,
        &world,
        "download",
        &[("method".to_string(), "topo".to_string())],
    );
    let events = analysis.events_per_series(0.5);
    let mut congested_class_events = 0u32;
    let mut clean_class_events = 0u32;
    for (i, info) in analysis.series.iter().enumerate() {
        let Some(srv) = world.registry.by_id(&info.server) else {
            continue;
        };
        match world.topo.as_node(srv.as_id).congestion {
            simnet::topology::CongestionClass::PeakCongested
            | simnet::topology::CongestionClass::DaytimeCongested
            | simnet::topology::CongestionClass::AllDayCongested => {
                congested_class_events += events[i];
            }
            _ => clean_class_events += events[i],
        }
    }
    assert!(
        congested_class_events > clean_class_events,
        "events should concentrate on ground-truth congested ASes \
         ({congested_class_events} vs {clean_class_events})"
    );
}

#[test]
fn evening_peak_shows_in_event_hours() {
    let world = World::tiny(305);
    let mut config = CampaignConfig::small(305);
    config.days = 10;
    config.topo_regions = vec![("us-west1".into(), 40)];
    let res = Campaign::new(&world, config)
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    let mut db = res.db;
    let analysis = CongestionAnalysis::build(
        &mut db,
        &world,
        "download",
        &[("method".to_string(), "topo".to_string())],
    );
    let events = analysis.events(0.5);
    if events.len() < 20 {
        return; // tiny worlds occasionally draw few congested ISPs
    }
    let evening = events
        .iter()
        .filter(|e| (18..=23).contains(&e.local_hour))
        .count();
    assert!(
        evening * 2 > events.len(),
        "most events in local evening: {evening}/{}",
        events.len()
    );
}

#[test]
fn billing_scales_with_tests() {
    let (_, small) = run(306);
    let world = World::tiny(306);
    let mut big_cfg = CampaignConfig::small(306);
    big_cfg.days *= 2;
    let big = Campaign::new(&world, big_cfg)
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    assert!(big.tests_run > small.tests_run);
    assert!(big.billing.egress_usd() > small.billing.egress_usd());
    assert!(big.billing.vm_usd() > small.billing.vm_usd());
}

#[test]
fn paired_tier_samples_align_hourly() {
    let (_, mut res) = run(307);
    let sel = res.diff_selections[0].clone();
    let cmp = clasp_core::tiercmp::TierComparison::build(&mut res.db, &sel);
    for (sid, _, d) in &cmp.servers {
        // Every paired hour produced one delta (2 days × 24 h).
        assert_eq!(d.download.len(), 48, "{sid}");
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let (_, a) = run(308);
    let (_, b) = run(308);
    assert_eq!(a.tests_run, b.tests_run);
    assert_eq!(a.raw_objects, b.raw_objects);
    assert_eq!(a.topo_selections[0].servers, b.topo_selections[0].servers);
    let pa: Vec<String> = a.diff_selections[0]
        .picks
        .iter()
        .map(|p| p.server_id.clone())
        .collect();
    let pb: Vec<String> = b.diff_selections[0]
        .picks
        .iter()
        .map(|p| p.server_id.clone())
        .collect();
    assert_eq!(pa, pb);
}

#[test]
fn outages_leave_gaps_the_analysis_tolerates() {
    let world = World::tiny(309);
    let mut with_gaps = CampaignConfig::small(309);
    with_gaps.fault_plan = FaultPlan::legacy_outage(0.10);
    with_gaps.diff_regions.clear();
    let gapped = Campaign::new(&world, with_gaps.clone())
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    let mut pristine_cfg = with_gaps;
    pristine_cfg.fault_plan = FaultPlan::none();
    let pristine = Campaign::new(&world, pristine_cfg)
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    assert!(
        gapped.tests_run < pristine.tests_run,
        "10% outages must lose tests ({} vs {})",
        gapped.tests_run,
        pristine.tests_run
    );
    // Detection still runs and stays bounded on gapped data.
    let mut db = gapped.db;
    let analysis = CongestionAnalysis::build(
        &mut db,
        &world,
        "download",
        &[("method".to_string(), "topo".to_string())],
    );
    assert!(!analysis.day_vars.is_empty());
    let f = analysis.fraction_days_above(0.5);
    assert!((0.0..=1.0).contains(&f));
}
