//! Determinism of the diagnosis subsystem: localization verdicts and
//! mitigation rankings must be *byte-identical* across `--jobs` counts
//! and across checkpoint resumes. The diag layer is a pure function of
//! the campaign result, and the campaign result is already bit-stable
//! under both knobs — these tests close the loop end to end on the
//! rendered report JSON, where any float divergence anywhere in the
//! stack would surface.

use clasp_core::campaign::Campaign;
use clasp_core::diag::{
    diagnose, plan_faults, run_suite, scenario_campaign_config, scenario_seed, DiagConfig,
};
use clasp_core::world::World;
use clasp_diag::DiagReport;
use proptest::prelude::*;

fn quick_config(seed: u64) -> DiagConfig {
    let mut cfg = DiagConfig::new(seed);
    cfg.scenarios = 1;
    cfg
}

/// Renders the canonical report JSON for a suite run at `jobs` workers.
fn suite_json(seed: u64, jobs: usize) -> String {
    let mut cfg = quick_config(seed);
    cfg.jobs = jobs;
    serde_json::to_string(&run_suite(&cfg, None).to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The full diag report is byte-identical at 1, 4, and 8 workers
    /// for arbitrary suite seeds.
    #[test]
    fn diag_report_is_bit_identical_across_jobs(seed in 0u64..500) {
        let serial = suite_json(seed, 1);
        prop_assert_eq!(&serial, &suite_json(seed, 4));
        prop_assert_eq!(&serial, &suite_json(seed, 8));
    }
}

/// A scenario campaign cut at its first checkpoint and resumed (at a
/// different worker count, for good measure) diagnoses to the same
/// bytes as the uninterrupted run.
#[test]
fn diag_report_survives_checkpoint_resume() {
    let cfg = quick_config(42);
    let seed = scenario_seed(cfg.seed, 0);
    let world = World::tiny(seed);
    let faults = plan_faults(&cfg, &world, seed, 0);

    let ccfg = scenario_campaign_config(&cfg, seed, faults.clone());
    let mut full = Campaign::new(&world, ccfg.clone())
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    assert!(
        !full.checkpoints.is_empty(),
        "campaign must checkpoint per unit"
    );

    let mut resumed = Campaign::new(&world, ccfg)
        .runner()
        .jobs(4)
        .resume_from(&full.checkpoints[0])
        .run()
        .expect("resume succeeds");

    let report = |result: &mut clasp_core::campaign::CampaignResult| {
        let scenario = diagnose(&cfg, 0, seed, &world, result, &faults, None);
        serde_json::to_string(
            &DiagReport {
                seed: cfg.seed,
                scenarios: vec![scenario],
            }
            .to_json(),
        )
    };
    assert_eq!(report(&mut full), report(&mut resumed));
}

/// FNV-1a 64 over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The default-seed suite report is pinned byte for byte, packet-level
/// cross-check (`packet_check_mbps`) included, so a change anywhere from
/// the campaign to the TCP simulator that moves a single output bit
/// fails here rather than only in the benchmark.
#[test]
fn diag_suite_report_is_pinned() {
    let json = serde_json::to_string(&run_suite(&DiagConfig::new(42), None).to_json());
    let h = fnv1a(json.as_bytes());
    assert_eq!(
        h, 0xa233_44ec_3874_f458,
        "diag report bytes changed: {h:#018x}"
    );
}

/// The injected link really is localized: the acceptance bar for the
/// scenario suite (top-1 hit rate ≥ 0.8, mitigation ranking agreeing
/// with the replay) holds on the default seed.
#[test]
fn diag_suite_meets_quality_floors() {
    let report = run_suite(&DiagConfig::new(42), None);
    assert_eq!(report.scenarios.len(), 5);
    assert!(
        report.top1_rate() >= 0.8,
        "top-1 rate {:.2}",
        report.top1_rate()
    );
    assert!(
        report.mitigation_agreement() >= 0.6,
        "mitigation agreement {:.2}",
        report.mitigation_agreement()
    );
    for s in &report.scenarios {
        // Every scenario evaluates at least the two fault windows and
        // ranks at least two candidate actions.
        assert!(s.localization.evaluated >= 2, "scenario {}", s.scenario);
        assert!(s.mitigation.evals.len() >= 2, "scenario {}", s.scenario);
        assert!(s.packet_check_mbps > 0.0, "scenario {}", s.scenario);
    }
}
