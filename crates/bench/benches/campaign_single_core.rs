//! Single-core campaign speed gate: wall-clock for the pinned 7-day
//! paper config at `--jobs 1`, broken down per campaign phase from the
//! clasp-obs span tree.
//!
//! This is the bench the CI perf gate pins: fixed seed, fixed days,
//! serial execution, release build. It runs the observed campaign
//! `reps` times (default 3, `CLASP_BENCH_REPS` overrides), reports
//! p50/p95 wall time per `phaseN:*` span plus the total, and writes a
//! JSON summary to `target/BENCH_campaign_single_core.json`
//! (`CLASP_BENCH_JSON` overrides). Compare runs against the committed
//! baseline in `benchdata/` with `clasp bench-trend`.
//!
//! Determinism tripwire: the final checkpoint must be byte-identical
//! across reps and is fingerprinted into the summary, and `clasp
//! bench-trend --check` fails when that fingerprint differs from the
//! baseline's, so a perf change that perturbs campaign output fails the
//! gate before the equivalence suites even run.
//!
//! ```text
//! cargo bench -p clasp-bench --bench campaign_single_core            # measure
//! cargo bench -p clasp-bench --bench campaign_single_core -- --test  # smoke
//! ```

use analysis::harness::PAPER_SEED;
use clasp_bench::{world, BENCH_DAYS};
use clasp_core::campaign::{Campaign, CampaignConfig};
use clasp_obs::Observer;
use serde_json::{Map, Value};
use std::hint::black_box;
use std::time::Instant;

fn pinned_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::paper(PAPER_SEED);
    cfg.days = BENCH_DAYS;
    cfg.diff_days = cfg.diff_days.min(BENCH_DAYS);
    cfg.jobs = 1;
    cfg
}

/// One rep's measurements: total wall seconds plus per-phase wall
/// seconds in span-open order.
struct Rep {
    total: f64,
    phases: Vec<(String, f64)>,
    checkpoint: String,
}

fn run_rep() -> Rep {
    let obs = Observer::new();
    // The shared world is built on first use; build it before the timer
    // so that rep 0 times the campaign alone.
    let world = world();
    let t = Instant::now();
    let result = black_box(
        Campaign::new(world, pinned_cfg())
            .runner()
            .observer(&obs)
            .run()
            .expect("fresh runs cannot fail"),
    );
    let total = t.elapsed().as_secs_f64();
    let phases = obs
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("phase"))
        .map(|s| (s.name.clone(), s.wall_ns as f64 / 1e9))
        .collect();
    let checkpoint = serde_json::to_string(result.checkpoints.last().expect("checkpoints"));
    Rep {
        total,
        phases,
        checkpoint,
    }
}

/// Nearest-rank percentile of an unsorted sample (q in [0,1]).
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// FNV-1a over the checkpoint bytes: a cheap stable fingerprint for the
/// summary (full byte equality is asserted across reps separately).
fn fingerprint(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--test");
    let reps = if smoke {
        1
    } else {
        std::env::var("CLASP_BENCH_REPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3)
            .max(1)
    };

    let mut totals = Vec::new();
    let mut phase_samples: Vec<(String, Vec<f64>)> = Vec::new();
    let mut checkpoint = None;
    for rep in 0..reps {
        let r = run_rep();
        match &checkpoint {
            None => checkpoint = Some(r.checkpoint),
            Some(first) => assert_eq!(
                first, &r.checkpoint,
                "rep {rep}: final checkpoint diverged — campaign is not deterministic"
            ),
        }
        totals.push(r.total);
        for (name, secs) in r.phases {
            match phase_samples.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(secs),
                None => phase_samples.push((name, vec![secs])),
            }
        }
    }

    let checkpoint = checkpoint.expect("at least one rep");
    let mut stages = Vec::new();
    for (name, mut samples) in phase_samples {
        let p50 = percentile(&mut samples, 0.50);
        let p95 = percentile(&mut samples, 0.95);
        if smoke {
            println!("campaign_single_core/{name}: ok (smoke)");
        } else {
            println!("campaign_single_core/{name:<24} p50 {p50:>8.3}s  p95 {p95:>8.3}s");
        }
        let mut row = Map::new();
        row.insert("stage".into(), name.into());
        row.insert("p50_secs".into(), p50.into());
        row.insert("p95_secs".into(), p95.into());
        stages.push(Value::Object(row));
    }
    let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
    let p50 = percentile(&mut totals.clone(), 0.50);
    let p95 = percentile(&mut totals.clone(), 0.95);
    if !smoke {
        println!(
            "campaign_single_core/total            min {min:>8.3}s  p50 {p50:>8.3}s  p95 {p95:>8.3}s"
        );
    }

    let mut summary = Map::new();
    summary.insert("bench".into(), "campaign_single_core".into());
    summary.insert("seed".into(), PAPER_SEED.into());
    summary.insert("bench_days".into(), BENCH_DAYS.into());
    summary.insert("jobs".into(), 1u64.into());
    summary.insert("reps".into(), (reps as u64).into());
    summary.insert(
        "environment".into(),
        Value::Object(clasp_bench::environment(PAPER_SEED, 1)),
    );
    summary.insert("smoke".into(), smoke.into());
    let mut t = Map::new();
    t.insert("min_secs".into(), min.into());
    t.insert("p50_secs".into(), p50.into());
    t.insert("p95_secs".into(), p95.into());
    summary.insert("total".into(), Value::Object(t));
    summary.insert("stages".into(), Value::Array(stages));
    summary.insert("checkpoint_fnv".into(), fingerprint(&checkpoint).into());
    let summary = Value::Object(summary);

    let path = std::env::var("CLASP_BENCH_JSON").unwrap_or_else(|_| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| {
            format!(
                "{}/../../target",
                std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into())
            )
        });
        format!("{target}/BENCH_campaign_single_core.json")
    });
    if let Err(e) = std::fs::write(&path, serde_json::to_string_pretty(&summary)) {
        eprintln!("campaign_single_core: could not write {path}: {e}");
    } else {
        println!("campaign_single_core: summary written to {path}");
    }
}
