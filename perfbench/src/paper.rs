//! `paper`: the paper's five-region campaign at `PAPER_SEED`, at two
//! lengths, then the §3.3 congestion labels derived both ways.
//!
//! The 7-day campaign is mostly fixed selection cost (route warm and
//! unit prep); the 153-day campaign is mostly per-day cost (speed
//! tests, line encode/decode, tsdb ingest). Timing both separates the
//! two. Both run untraced at `jobs = 1`, the path plain `clasp run`
//! takes.

use crate::measure::{fnv, now, peak_rss_mb, timed, Outcome, Samples};
use clasp_core::campaign::{Campaign, CampaignConfig, CampaignResult};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::world::World;
use clasp_stream::{EngineConfig, StreamEngine};
use tsdb::{Db, Point};

/// The paper world's seed (`analysis::harness::PAPER_SEED`).
pub const PAPER_SEED: u64 = 0x5EED_CA1D;

/// Pinned outputs of the paper configuration at [`PAPER_SEED`]: speed
/// tests run and an FNV-1a fingerprint of the final checkpoint's JSON.
const PIN_7D: (u64, u64) = (86_184, 0x2851_c10c_ce0b_3480);
const PIN_153D: (u64, u64) = (1_658_520, 0x102d_536b_5e7a_c369);

/// World builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Minimum 7-day campaigns per run, whatever `--seconds` says.
const MIN_7D_REPS: usize = 5;
/// Timed label derivations per run, after one untimed warm-up.
const ANALYSIS_REPS: usize = 3;

/// The paper configuration at `days`, serial.
pub fn config(days: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::paper(PAPER_SEED);
    cfg.days = days;
    cfg.diff_days = cfg.diff_days.min(days);
    cfg.jobs = 1;
    cfg
}

/// Tests run and final-checkpoint fingerprint of a finished campaign.
/// An observed run's checkpoint also carries its telemetry under
/// `"obs"`; that section is left out, so observed and unobserved runs
/// must pin the same.
pub fn pin_of(result: &CampaignResult) -> (u64, u64) {
    let ckpt = match result.checkpoints.last() {
        Some(serde_json::Value::Object(m)) => {
            let mut m = m.clone();
            m.remove("obs");
            serde_json::to_string(&serde_json::Value::Object(m))
        }
        Some(other) => serde_json::to_string(other),
        None => String::new(),
    };
    (result.tests_run, fnv(&ckpt))
}

/// Checks a campaign's pin against the committed one.
pub fn check_pin(out: &mut Outcome, days: u64, got: (u64, u64)) {
    let want = if days == 7 { PIN_7D } else { PIN_153D };
    out.check(got == want, || {
        format!(
            "{days}-day campaign: tests/fingerprint {}/{:016x}, pinned {}/{:016x}",
            got.0, got.1, want.0, want.1
        )
    });
}

/// Feeds every `speedtest` sample of `db` to `engine`, series by
/// series in time order, reusing one point per series.
fn replay(db: &mut Db, engine: &mut StreamEngine) {
    for s in db.matching_series("speedtest", &[]) {
        let mut p = Point::from_parts(s.measurement.clone(), s.tags.clone(), Default::default(), 0);
        for (t, fields) in s.samples() {
            p.time = *t;
            p.fields = fields.to_map();
            engine.ingest(&p);
        }
    }
}

/// The batch filter of the paper's Fig. 2 analysis.
pub fn topo_filter() -> Vec<(String, String)> {
    vec![("method".to_string(), "topo".to_string())]
}

/// Compares streaming labels with the batch analysis, label for label
/// (the check `clasp stream` makes).
pub fn labels_agree(engine: &StreamEngine, batch: &CongestionAnalysis) -> Result<(), String> {
    let h = engine.threshold();
    let series_ok = engine.series().len() == batch.series.len()
        && engine
            .series()
            .iter()
            .zip(&batch.series)
            .all(|(s, b)| s.key == b.key && s.utc_offset == b.utc_offset);
    let days_ok = engine.day_records().len() == batch.day_vars.len()
        && engine
            .day_records()
            .iter()
            .zip(&batch.day_vars)
            .all(|(d, b)| {
                engine.series()[d.series_idx as usize].key == b.series
                    && d.local_day == b.local_day
                    && d.v.to_bits() == b.v.to_bits()
                    && d.t_max.to_bits() == b.t_max.to_bits()
                    && d.t_min.to_bits() == b.t_min.to_bits()
                    && d.n == b.n
            });
    let labels_ok = engine.labels().len() == batch.samples.len()
        && engine.labels().iter().zip(&batch.samples).all(|(l, b)| {
            l.series_idx == b.series_idx
                && l.time == b.time
                && l.local_hour == b.local_hour
                && l.local_day == b.local_day
                && l.value.to_bits() == b.value.to_bits()
                && l.v_h.to_bits() == b.v_h.to_bits()
                && l.congested == (b.v_h > h)
        });
    if series_ok && days_ok && labels_ok && !batch.samples.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "stream vs batch labels differ: series {series_ok}, days {days_ok}, labels {labels_ok} \
             ({} batch samples)",
            batch.samples.len()
        ))
    }
}

/// Derives the §3.3 labels in batch and by stream replay, and checks
/// that they agree.
fn labels_both_ways(db: &mut Db, world: &World) -> Result<(), String> {
    let batch = CongestionAnalysis::build(db, world, "download", &topo_filter());
    let mut engine = StreamEngine::new(EngineConfig::paper(), world.server_utc_offsets());
    replay(db, &mut engine);
    engine.finalize();
    labels_agree(&engine, &batch)
}

/// Runs one untraced campaign, returning the result and its wall time.
fn campaign(world: &World, days: u64) -> (CampaignResult, std::time::Duration) {
    timed(|| {
        Campaign::new(world, config(days))
            .runner()
            .run()
            .expect("fresh campaigns cannot fail")
    })
}

/// Checks a 153-day result's pin. The fingerprint serializes a large
/// JSON string, so the database is dropped first, keeping the string
/// from raising the peak RSS.
fn check_153d(out: &mut Outcome, result: &mut CampaignResult) {
    result.db = Db::new();
    check_pin(out, 153, pin_of(result));
}

/// The untraced `paper` run.
pub fn run(seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let mut setup = Samples::new();
    let (mut world, d) = timed(|| World::new(PAPER_SEED));
    setup.push(d);
    for _ in 1..SETUP_REPS {
        drop(world);
        let (w, d) = timed(|| World::new(PAPER_SEED));
        setup.push(d);
        world = w;
    }

    let mut c7 = Samples::new();
    let start = now();
    while c7.len() < MIN_7D_REPS || start.elapsed().as_secs() < seconds {
        let (result, d) = campaign(&world, 7);
        c7.push(d);
        check_pin(&mut out, 7, pin_of(&result));
    }

    let (mut result, d153) = campaign(&world, 153);

    let mut analysis = Samples::new();
    for rep in 0..=ANALYSIS_REPS {
        let (agree, d) = timed(|| labels_both_ways(&mut result.db, &world));
        if rep > 0 {
            analysis.push(d);
        }
        out.check(agree.is_ok(), || agree.clone().unwrap_err());
    }
    check_153d(&mut out, &mut result);
    drop(result);

    let d153 = d153.as_secs_f64();
    out.metric("setup_s", setup.median(), "s");
    out.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    out.metric("main_p50_ms", c7.median_ms(), "ms");
    out.detail("campaign_7d_s", c7.median());
    out.detail("campaign_7d_reps", c7.len() as f64);
    out.detail("campaign_153d_s", d153);
    out.detail("analysis_s", analysis.median());
    Ok(out)
}
