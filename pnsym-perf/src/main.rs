//! The pnsym benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pnsym-perf/Cargo.toml -- \
//!     --workload reach|ctl|serve --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path pnsym-perf/Cargo.toml -- --self-test
//! cargo run --release --manifest-path pnsym-perf/Cargo.toml -- --print-reference
//! ```
//!
//! Run from the repository root. Each run prints, as the last line of its
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! metrics of the named workload; with `--trace 1` every workload runs once
//! more with spans around each public call and the metrics are the
//! per-layer ones of all three. `README.md` maps every metric to its layer.

mod calib;
mod ctl;
mod determinism;
mod reach;
mod reference;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use util::{Metrics, Outcome};

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Self-test size: a few small nets and a short request stream.
    pub tiny: bool,
}

/// Scratch space for the run (fingerprints, snapshot dirs, span logs).
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// The repository the benchmark measures.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Writes a traced run's spans as JSON lines into the work directory.
pub fn write_spans(workload: &str, seed: u64, tracer: &trace::Tracer) {
    let dir = work_dir().join("spans");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{workload}-{seed}.jsonl"));
    if let Err(err) = std::fs::write(&path, tracer.to_json_lines(workload)) {
        eprintln!("cannot write {}: {err}", path.display());
    }
}

/// The end-to-end metrics every workload reports, each with its
/// workload's definition (see `README.md`).
pub fn end_to_end(
    m: &mut Metrics,
    setup_s: f64,
    pass_s: f64,
    geomean_op_ms: f64,
    (p50_ms, p99_ms): (f64, f64),
    qps: f64,
    rss_mb: f64,
) {
    m.push("setup_s", setup_s, "s");
    m.push("pass_s", pass_s, "s");
    m.push("geomean_op_ms", geomean_op_ms, "ms");
    m.push("p50_ms", p50_ms, "ms");
    m.push("p99_ms", p99_ms, "ms");
    m.push("qps", qps, "1/s");
    m.push("rss_mb", rss_mb, "MB");
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pnsym-perf --workload reach|ctl|serve --seed N --seconds S --trace 0|1\n       pnsym-perf --self-test\n       pnsym-perf --print-reference"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: 10.0,
        tiny: false,
    };
    let mut traced = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--self-test", _) => return self_test(),
            ("--print-reference", _) => {
                reference::print_reference();
                return ExitCode::SUCCESS;
            }
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => match v.parse() {
                Ok(seed) => config.seed = seed,
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s > 0.0 => config.seconds = s,
                _ => return usage(),
            },
            ("--trace", Some(v)) => traced = v == "1",
            _ => return usage(),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage();
    };
    let outcome = match run(&workload, &config, traced) {
        Some(outcome) => outcome,
        None => return usage(),
    };
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

fn run(workload: &str, config: &Config, traced: bool) -> Option<Outcome> {
    if !["reach", "ctl", "serve"].contains(&workload) {
        return None;
    }
    // Every run builds the daemon first, so a checkout's first run does all
    // the building whichever workload it names.
    let daemon = serve::daemon_binary();
    if traced {
        // Every per-layer metric comes from one traced pass of each
        // workload, whichever workload was named.
        let mut out = reach::run_traced_workload(config);
        out.merge(ctl::run_traced_workload(config));
        out.merge(serve::run(config, &daemon, true));
        return Some(out);
    }
    Some(match workload {
        "reach" => reach::run(config),
        "ctl" => ctl::run(config),
        _ => serve::run(config, &daemon, false),
    })
}

/// Runs every workload once at a tiny size, traced and untraced, and
/// checks that every metric `BENCHMARK.json` declares is printed with its
/// declared unit.
fn self_test() -> ExitCode {
    let declared = match std::fs::read_to_string(repo_root().join("BENCHMARK.json")) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("self-test: cannot read BENCHMARK.json: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Ok(spec) = pnsym_core::server::Json::parse(&declared) else {
        eprintln!("self-test: BENCHMARK.json does not parse");
        return ExitCode::FAILURE;
    };
    let metric_list = |key: &str| -> Vec<(String, String)> {
        match spec.get(key) {
            Some(pnsym_core::server::Json::Arr(items)) => items
                .iter()
                .filter_map(|m| match (m.get("name"), m.get("unit")) {
                    (
                        Some(pnsym_core::server::Json::Str(n)),
                        Some(pnsym_core::server::Json::Str(u)),
                    ) => Some((n.clone(), u.clone())),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let end_to_end = metric_list("end_to_end");
    let per_layer = metric_list("per_layer");
    let config = Config {
        seed: 7,
        seconds: 1.0,
        tiny: true,
    };
    let mut ok = !end_to_end.is_empty() && !per_layer.is_empty();
    let mut check = |label: &str, out: &Outcome, want: &[(String, String)]| {
        let got = out.metrics.entries();
        for (name, unit) in want {
            match got.iter().find(|(n, _, _)| n == name) {
                Some((_, value, u)) if u == unit && value.is_finite() => {}
                Some((_, value, u)) => {
                    eprintln!("self-test {label}: {name} = {value} {u}, declared unit {unit}");
                    ok = false;
                }
                None => {
                    eprintln!("self-test {label}: {name} missing");
                    ok = false;
                }
            }
        }
        for (name, _, _) in got {
            if !want.iter().any(|(n, _)| n == name) {
                eprintln!("self-test {label}: {name} printed but not declared");
                ok = false;
            }
        }
        eprintln!(
            "self-test {label}: {} metrics, {} of {} op executions failed: {:?}",
            got.len(),
            out.failed,
            out.attempted,
            out.failures
        );
    };
    for workload in ["reach", "ctl", "serve"] {
        let out = run(workload, &config, false).expect("known workload");
        check(workload, &out, &end_to_end);
    }
    let out = run("reach", &config, true).expect("known workload");
    check("traced", &out, &per_layer);
    if ok {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED");
        ExitCode::FAILURE
    }
}
