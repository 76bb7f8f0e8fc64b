//! The CLASP benchmark: three workloads driven through the crates'
//! public functions from one thread.
//!
//! ```text
//! clasp-perfbench --workload <paper|serve_mixed|diag_crosscloud> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports its end-to-end
//! metrics; `--trace 1` runs the layer pass and reports the per-layer
//! metrics. The last stdout line is the result record; the line before
//! it records the environment and the workload's named figures. See
//! `README.md` next to this crate for every metric's definition.

#![forbid(unsafe_code)]

mod diag;
mod layers;
mod measure;
mod paper;
mod serve;

use measure::Outcome;
use serde_json::{Map, Value};

/// Workloads, and the threads each one runs on.
const WORKLOADS: [(&str, usize); 3] = [("paper", 1), ("serve_mixed", 1), ("diag_crosscloud", 1)];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clasp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(_, threads)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) else {
        eprintln!(
            "clasp-perfbench: unknown workload {:?} (one of: {})",
            args.workload,
            WORKLOADS.map(|(w, _)| w).join(", ")
        );
        std::process::exit(2);
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads > cores {
        eprintln!(
            "clasp-perfbench: {} needs {threads} threads but only {cores} are available",
            args.workload
        );
        std::process::exit(2);
    }

    let result = match (args.trace, args.workload.as_str()) {
        (true, _) => layers::run(args.seed),
        (false, "paper") => paper::run(args.seconds),
        (false, "serve_mixed") => serve::run(args.seed, args.seconds),
        (false, _) => diag::run(args.seed, args.seconds),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("clasp-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }

    let mut env = Map::new();
    env.insert("workload".into(), args.workload.as_str().into());
    env.insert("seed".into(), args.seed.into());
    env.insert("seconds".into(), args.seconds.into());
    env.insert("trace".into(), args.trace.into());
    env.insert("threads".into(), (threads as u64).into());
    env.insert("available_parallelism".into(), (cores as u64).into());
    env.insert("rustc".into(), rustc_version().into());
    env.insert(
        "revision".into(),
        std::env::var("CLASP_BENCH_REVISION")
            .unwrap_or_else(|_| "unknown".into())
            .into(),
    );
    let mut detail = Map::new();
    for (k, v) in &out.detail {
        detail.insert(k.clone(), (*v).into());
    }
    let mut info = Map::new();
    info.insert("env".into(), Value::Object(env));
    info.insert("detail".into(), Value::Object(detail));
    println!("{}", serde_json::to_string(&Value::Object(info)));
    println!("{}", serde_json::to_string(&result_record(&out)));
}

/// The result record, with exactly these four keys.
fn result_record(out: &Outcome) -> Value {
    let mut metrics = Map::new();
    for (name, (value, unit)) in &out.metrics {
        let mut m = Map::new();
        m.insert("value".into(), (*value).into());
        m.insert("unit".into(), (*unit).into());
        metrics.insert(name.clone(), Value::Object(m));
    }
    let mut rec = Map::new();
    rec.insert("correct".into(), (out.failed == 0).into());
    rec.insert("attempted".into(), out.attempted.into());
    rec.insert("failed".into(), out.failed.into());
    rec.insert("metrics".into(), Value::Object(metrics));
    Value::Object(rec)
}
