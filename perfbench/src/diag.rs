//! `diag_crosscloud`: the default `clasp diag` scenario suite, run
//! scenario by scenario, then repeated `crosscloud::run` sweeps over
//! the `trio` world at a seed derived from `--seed`.
//!
//! The mitigation ranking's packet-level check dominates diag time,
//! so this is the workload where simtcp does most of the work; it is
//! also the only one that uses the inter-cloud fabric. Selection and
//! tsdb ingest do little here.

use crate::measure::{derive_seed, fnv, now, peak_rss_mb, timed, Outcome, Samples};
use clasp_core::crosscloud::{self, CrossCloudConfig};
use clasp_core::diag::{run_scenario, DiagConfig};
use clasp_diag::DiagReport;
use cloudsim::provider::WorldSpec;

/// The `clasp diag` default suite seed. The suite is timed at this
/// fixed seed: scenario cost depends on the seed's worlds (the median
/// scenario time ranged 170-540 ms across suite seeds), so a
/// seed-derived suite would make run-to-run spread measure the seed
/// rather than the code.
const SUITE_SEED: u64 = 42;
/// FNV-1a of the suite's `DiagReport::to_json`.
const PIN_SUITE: u64 = 0x7b28_a98c_3874_f458;
/// The diag quality floors `clasp diag` is gated on in CI.
const MIN_TOP1: f64 = 0.8;
const MIN_AGREEMENT: f64 = 0.6;
/// Seed of the pinned crosscloud sweep, checked on every run whatever
/// `--seed` is, and FNV-1a of its `CrossCloudReport::to_json`.
const REFERENCE_SEED: u64 = 42;
const PIN_CROSSCLOUD: u64 = 0x9120_2a67_e031_1bad;

/// Campaign days per crosscloud sweep (the `clasp crosscloud` default).
const SWEEP_DAYS: u32 = 3;
/// Minimum suite passes per run, whatever `--seconds` says: enough
/// passes that the scenario median spans more than one of the shared
/// host's slow spells.
const MIN_PASSES: usize = 6;
/// Minimum crosscloud sweeps per run.
const MIN_SWEEPS: usize = 200;
/// Share of `--seconds` given to crosscloud sweeps, after the suite.
const SWEEP_SHARE: f64 = 0.25;
/// Spec builds timed per batch for `setup_s`.
const SETUP_BATCH: usize = 100;

/// The inputs built before timing.
pub struct Spec {
    /// The diag suite configuration.
    pub diag: DiagConfig,
    /// The three-provider world.
    pub world: WorldSpec,
    /// The crosscloud configuration.
    pub crosscloud: CrossCloudConfig,
}

/// Builds the suite and world specs for `seed`. The world spec goes
/// through its JSON form, as `clasp crosscloud --world spec.json` does.
pub fn build_spec(seed: u64) -> Result<Spec, String> {
    let trio = WorldSpec::builtin("trio").ok_or("no builtin trio world")?;
    let world = WorldSpec::from_json(&serde_json::to_string(&trio.to_json()))?;
    world.validate()?;
    Ok(Spec {
        diag: DiagConfig::new(SUITE_SEED),
        world,
        crosscloud: CrossCloudConfig {
            seed: derive_seed(seed, 0xc10d),
            days: SWEEP_DAYS,
            jobs: 1,
        },
    })
}

/// Builds the spec [`SETUP_BATCH`] times, timing each build.
fn timed_builds(seed: u64, setup: &mut Samples) -> Result<Spec, String> {
    let mut spec = build_spec(seed)?;
    for _ in 0..SETUP_BATCH {
        let (s, d) = timed(|| build_spec(seed));
        setup.push(d);
        spec = s?;
    }
    Ok(spec)
}

/// Fingerprint of a one-sweep crosscloud report.
fn sweep_print(spec: &WorldSpec, cfg: &CrossCloudConfig) -> Result<u64, String> {
    let report = crosscloud::run(spec, cfg)?;
    Ok(fnv(&serde_json::to_string(&report.to_json())))
}

/// Checks a suite report against its pin and the quality floors.
fn check_suite(report: &DiagReport, out: &mut Outcome) {
    let got = fnv(&serde_json::to_string(&report.to_json()));
    out.check(got == PIN_SUITE, || {
        format!("diag suite fingerprint {got:016x}, pinned {PIN_SUITE:016x}")
    });
    let (top1, agree) = (report.top1_rate(), report.mitigation_agreement());
    out.check(top1 >= MIN_TOP1 && agree >= MIN_AGREEMENT, || {
        format!(
            "diag quality below floors: top-1 {top1:.2} (min {MIN_TOP1}), \
             agreement {agree:.2} (min {MIN_AGREEMENT})"
        )
    });
}

/// The untraced `diag_crosscloud` run.
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up is timed in batches spread over the run, so its median does
    // not hang on the host's speed in one fraction of a second.
    let mut setup = Samples::new();
    let spec = timed_builds(seed, &mut setup)?;

    let mut scenario = Samples::new();
    let mut passes = Samples::new();
    let start = now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs() < seconds {
        timed_builds(seed, &mut setup)?;
        let mut pass = Samples::new();
        let mut scenarios = Vec::new();
        for i in 0..spec.diag.scenarios {
            let (r, d) = timed(|| run_scenario(&spec.diag, i, None));
            pass.push(d);
            scenarios.push(r);
        }
        let report = DiagReport {
            seed: spec.diag.seed,
            scenarios,
        };
        out.ran(pass.len());
        check_suite(&report, &mut out);
        scenario.extend(&pass);
        passes.push_secs(pass.total());
    }

    let mut sweep = Samples::new();
    let mut sweep_first = None;
    let start = now();
    while sweep.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < seconds as f64 * SWEEP_SHARE {
        let (r, d) = timed(|| crosscloud::run(&spec.world, &spec.crosscloud));
        sweep.push(d);
        let print = fnv(&serde_json::to_string(&r?.to_json()));
        match sweep_first {
            None => {
                sweep_first = Some(print);
                out.ran(1);
            }
            Some(f) => out.check(f == print, || {
                "crosscloud report differs between sweeps".to_string()
            }),
        }
    }
    let cc = CrossCloudConfig {
        seed: REFERENCE_SEED,
        ..spec.crosscloud
    };
    let got = sweep_print(&spec.world, &cc)?;
    out.check(got == PIN_CROSSCLOUD, || {
        format!("reference crosscloud fingerprint {got:016x}, pinned {PIN_CROSSCLOUD:016x}")
    });

    out.metric("setup_s", setup.median(), "s");
    out.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    out.metric("main_p50_ms", scenario.median_ms(), "ms");
    out.detail("scenario_p50_ms", scenario.median_ms());
    out.detail("crosscloud_p50_ms", sweep.median_ms());
    out.detail("suite_pass_s", passes.median());
    out.detail("suite_passes", passes.len() as f64);
    out.detail("sweeps", sweep.len() as f64);
    Ok(out)
}
