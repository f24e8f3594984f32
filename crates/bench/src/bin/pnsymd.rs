//! `pnsymd` — the warm-context analysis daemon and its load generator.
//!
//! Two subcommands:
//!
//! * `pnsymd serve [--addr HOST:PORT] [--pool N] [--strategy S]` binds a
//!   listener and serves portfolio CTL queries over the line-JSON protocol
//!   until a client sends `{"op":"shutdown"}`.
//! * `pnsymd load [--addr HOST:PORT | --spawn] [--nets a,b,...]
//!   [--requests N] [--clients C] [--rate R] [--seed S] [--json[=PATH]]
//!   [--shutdown]` drives a deterministic splitmix64-driven open-loop
//!   burst against a daemon and reports a `serving` table: per family,
//!   queries/sec, p50/p99 latency, and the warm-vs-cold speedup of the
//!   context pool. Exit status is non-zero when any protocol error came
//!   back or the table would be empty, so CI can assert a clean run.
//!
//! The load generator is open-loop: each client thread derives a schedule
//! of arrival times from its own splitmix64 stream and sends at those
//! instants regardless of response latency (sends lag behind schedule
//! only when the socket itself is still busy with the previous exchange),
//! so a slow server accumulates queueing delay in the measured latency
//! instead of silently throttling the offered load.

use pnsym_bench::net_by_spec;
use pnsym_core::server::{
    serve, Client, Json, NetResolver, PoolOutcome, Request, Response, ServerConfig, ServerHandle,
};
use pnsym_net::nets::property_suite;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage:\n  pnsymd serve [--addr HOST:PORT] [--pool N] [--strategy S]\n               [--snapshot-dir DIR] [--checkpoint-every N]\n               [--max-inflight N] [--max-queue N]\n  pnsymd load [--addr HOST:PORT | --spawn] [--nets a,b,...] [--requests N]\n              [--clients C] [--rate R] [--seed S] [--json[=PATH]] [--shutdown]"
    );
    std::process::exit(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        _ => usage(),
    }
}

/// Splits `--flag=value` / `--flag value` argument forms.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Option<&'a str> {
    let arg = &args[*i];
    if let Some(rest) = arg.strip_prefix(&format!("{flag}=")) {
        return Some(rest);
    }
    if arg == flag {
        *i += 1;
        return args.get(*i).map(String::as_str);
    }
    None
}

fn resolver() -> NetResolver {
    Box::new(net_by_spec)
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7464".to_string(); // "PN" on a phone pad
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = flag_value(args, &mut i, "--addr") {
            addr = v.to_string();
        } else if let Some(v) = flag_value(args, &mut i, "--pool") {
            config.pool_capacity = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = flag_value(args, &mut i, "--strategy") {
            config.default_strategy = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = flag_value(args, &mut i, "--snapshot-dir") {
            config.snapshot_dir = Some(v.into());
        } else if let Some(v) = flag_value(args, &mut i, "--checkpoint-every") {
            config.checkpoint_every = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = flag_value(args, &mut i, "--max-inflight") {
            config.max_inflight = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = flag_value(args, &mut i, "--max-queue") {
            config.max_queue = v.parse().unwrap_or_else(|_| usage());
        } else {
            usage();
        }
        i += 1;
    }
    match serve(addr.as_str(), config, resolver()) {
        Ok(handle) => {
            println!("pnsymd listening on {}", handle.addr());
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("pnsymd: cannot bind {addr}: {err}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// The repo-standard splitmix64 stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Default load mix: every bundled family that ships a property suite, at
/// sizes small enough for a CI burst.
const DEFAULT_NETS: &[&str] = &[
    "figure1",
    "phil-4",
    "muller-6",
    "slot-3",
    "dme-spec-2",
    "dme-cir-2",
];

struct FamilyStats {
    latencies_ms: Vec<f64>,
    cold_ms: f64,
    warm_ms: f64,
    /// Pool outcome of the family's first query: `"miss"` on a cold
    /// build, `"restored"` when the daemon rehydrated it from an on-disk
    /// snapshot — the recovery CI job asserts on this.
    cold_pool: &'static str,
    errors: u64,
}

fn pool_outcome_str(outcome: Option<PoolOutcome>) -> &'static str {
    match outcome {
        Some(PoolOutcome::Hit) => "hit",
        Some(PoolOutcome::Miss) => "miss",
        Some(PoolOutcome::Restored) => "restored",
        None => "unknown",
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// The full bundled portfolio of a net spec as a `check` request.
fn portfolio_request(id: u64, spec: &str) -> Option<Request> {
    let net = net_by_spec(spec)?;
    let suite = property_suite(&net);
    if suite.is_empty() {
        return None;
    }
    let props: Vec<(&str, &str)> = suite
        .iter()
        .map(|p| (p.name.as_str(), p.formula.as_str()))
        .collect();
    Some(Request::check_text(id, spec, &props))
}

fn count_errors(responses: &[Response]) -> u64 {
    responses
        .iter()
        .filter(|r| matches!(r, Response::Error { .. }))
        .count() as u64
}

fn cmd_load(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut spawn = false;
    let mut nets: Vec<String> = DEFAULT_NETS.iter().map(|s| s.to_string()).collect();
    let mut requests = 60usize;
    let mut clients = 4usize;
    let mut rate = 200.0f64; // offered arrivals per second per client
    let mut seed = 0x5eed_u64;
    let mut json_out: Option<Option<String>> = None;
    let mut shutdown = false;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = flag_value(args, &mut i, "--addr") {
            addr = Some(v.to_string());
        } else if args[i] == "--spawn" {
            spawn = true;
        } else if args[i] == "--shutdown" {
            shutdown = true;
        } else if args[i] == "--json" {
            json_out = Some(None);
        } else if let Some(v) = flag_value(args, &mut i, "--json") {
            json_out = Some(Some(v.to_string()));
        } else if let Some(v) = flag_value(args, &mut i, "--nets") {
            nets = v.split(',').map(|s| s.trim().to_string()).collect();
        } else if let Some(v) = flag_value(args, &mut i, "--requests") {
            requests = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = flag_value(args, &mut i, "--clients") {
            clients = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = flag_value(args, &mut i, "--rate") {
            rate = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = flag_value(args, &mut i, "--seed") {
            seed = v.parse().unwrap_or_else(|_| usage());
        } else {
            usage();
        }
        i += 1;
    }

    let spawned: Option<ServerHandle> = if spawn {
        match serve("127.0.0.1:0", ServerConfig::default(), resolver()) {
            Ok(handle) => {
                addr = Some(handle.addr().to_string());
                Some(handle)
            }
            Err(err) => {
                eprintln!("pnsymd load: cannot spawn server: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let Some(addr) = addr else {
        eprintln!("pnsymd load: need --addr or --spawn");
        return ExitCode::FAILURE;
    };

    for spec in &nets {
        if portfolio_request(1, spec).is_none() {
            eprintln!("pnsymd load: {spec:?} is not a bundled net with a property suite");
            return ExitCode::FAILURE;
        }
    }

    let mut stats: BTreeMap<String, FamilyStats> = BTreeMap::new();

    // Phase 1: per family, one cold query then one warm repeat on a fresh
    // connection — the cold/warm ratio is the pool's amortization win.
    for spec in &nets {
        let mut client = match Client::connect(addr.as_str()) {
            Ok(client) => client,
            Err(err) => {
                eprintln!("pnsymd load: cannot connect to {addr}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let request = portfolio_request(1, spec).expect("validated above");
        let mut errors = 0u64;
        let mut timed = |client: &mut Client,
                         expect_pool: Option<PoolOutcome>|
         -> (f64, Option<PoolOutcome>) {
            let start = Instant::now();
            let responses = client.request(&request).unwrap_or_default();
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            errors += count_errors(&responses);
            let outcome = responses.iter().rev().find_map(|r| match r {
                Response::Done { pool, .. } => Some(*pool),
                _ => None,
            });
            if let (Some(expected), Some(actual)) = (expect_pool, outcome) {
                if actual != expected {
                    eprintln!("pnsymd load: {spec}: expected pool {expected:?}, got {actual:?}");
                    errors += 1;
                }
            }
            (elapsed, outcome)
        };
        // The "cold" query is a miss on a fresh daemon but comes back
        // `restored` when a snapshot directory rehydrated the family.
        let (cold_ms, cold_pool) = timed(&mut client, None);
        let (warm_ms, _) = timed(&mut client, Some(PoolOutcome::Hit));
        stats.insert(
            spec.clone(),
            FamilyStats {
                latencies_ms: Vec::new(),
                cold_ms,
                warm_ms,
                cold_pool: pool_outcome_str(cold_pool),
                errors,
            },
        );
    }

    // Phase 2: the open-loop burst. Each client thread owns a splitmix64
    // stream seeded from (seed, thread id); arrivals are scheduled ahead
    // of time and the thread sends at those instants, so offered load does
    // not adapt to server latency.
    let per_client = requests.div_ceil(clients.max(1));
    let mut handles = Vec::new();
    for c in 0..clients.max(1) {
        let addr = addr.clone();
        let nets = nets.clone();
        let mut rng = SplitMix64(seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        handles.push(thread::spawn(move || {
            let mut out: Vec<(String, f64, u64)> = Vec::new();
            let Ok(mut client) = Client::connect(addr.as_str()) else {
                return out;
            };
            let start = Instant::now();
            for r in 0..per_client {
                // Uniform arrival jitter around the configured rate keeps
                // the schedule deterministic per seed.
                let mean_gap_us = 1e6 / rate.max(1.0);
                let jitter = (rng.next() % 2001) as f64 / 1000.0; // 0..2
                let due = Duration::from_micros((mean_gap_us * jitter) as u64 * r as u64);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    thread::sleep(wait);
                }
                let spec = nets[(rng.next() as usize) % nets.len()].clone();
                let Some(request) = portfolio_request(r as u64 + 2, &spec) else {
                    continue;
                };
                let sent = Instant::now();
                match client.request(&request) {
                    Ok(responses) => out.push((
                        spec,
                        sent.elapsed().as_secs_f64() * 1e3,
                        count_errors(&responses),
                    )),
                    Err(_) => out.push((spec, sent.elapsed().as_secs_f64() * 1e3, 1)),
                }
            }
            out
        }));
    }
    let burst_start = Instant::now();
    let mut burst_total = 0usize;
    for handle in handles {
        let Ok(results) = handle.join() else {
            eprintln!("pnsymd load: client thread panicked");
            return ExitCode::FAILURE;
        };
        for (spec, latency_ms, errors) in results {
            burst_total += 1;
            if let Some(family) = stats.get_mut(&spec) {
                family.latencies_ms.push(latency_ms);
                family.errors += errors;
            }
        }
    }
    let burst_secs = burst_start.elapsed().as_secs_f64().max(1e-9);

    // Daemon-side pool counters — fetched before any shutdown so the
    // spill/restore totals cover the whole run.
    let pool_counters = Client::connect(addr.as_str())
        .ok()
        .and_then(|mut client| client.request(&Request::Stats { id: 0 }).ok())
        .and_then(|responses| {
            responses.into_iter().find_map(|r| match r {
                Response::Stats {
                    contexts,
                    hits,
                    misses,
                    evictions,
                    spills,
                    restores,
                    queries,
                    ..
                } => Some([contexts, hits, misses, evictions, spills, restores, queries]),
                _ => None,
            })
        });

    if shutdown && spawned.is_none() {
        if let Ok(mut client) = Client::connect(addr.as_str()) {
            let _ = client.request(&Request::Shutdown { id: 0 });
        }
    }
    if let Some(handle) = spawned {
        handle.shutdown();
    }

    // Report.
    let mut total_errors = 0u64;
    let mut table: Vec<(String, Json)> = Vec::new();
    for (spec, family) in &mut stats {
        family
            .latencies_ms
            .sort_by(|a, b| a.partial_cmp(b).unwrap());
        total_errors += family.errors;
        let n = family.latencies_ms.len();
        let qps = n as f64 / burst_secs;
        let speedup = if family.warm_ms > 0.0 {
            family.cold_ms / family.warm_ms
        } else {
            0.0
        };
        table.push((
            spec.clone(),
            Json::object(vec![
                ("requests", Json::Int(n as i64)),
                ("qps", Json::Float(qps)),
                (
                    "p50_ms",
                    Json::Float(percentile(&family.latencies_ms, 0.50)),
                ),
                (
                    "p99_ms",
                    Json::Float(percentile(&family.latencies_ms, 0.99)),
                ),
                ("cold_ms", Json::Float(family.cold_ms)),
                ("warm_ms", Json::Float(family.warm_ms)),
                ("warm_speedup", Json::Float(speedup)),
                ("cold_pool", Json::Str(family.cold_pool.to_string())),
                ("errors", Json::Int(family.errors as i64)),
            ]),
        ));
        println!(
            "{spec:>12}  n={n:<4} qps={qps:8.1}  p50={:7.2}ms  p99={:7.2}ms  cold={:8.2}ms ({})  warm={:7.2}ms  speedup={speedup:6.1}x  errors={}",
            percentile(&family.latencies_ms, 0.50),
            percentile(&family.latencies_ms, 0.99),
            family.cold_ms,
            family.cold_pool,
            family.warm_ms,
            family.errors,
        );
    }
    if let Some([contexts, hits, misses, evictions, spills, restores, queries]) = pool_counters {
        println!(
            "pool: contexts={contexts} hits={hits} misses={misses} evictions={evictions} spills={spills} restores={restores} queries={queries}"
        );
    }
    println!(
        "burst: {burst_total} requests over {clients} clients in {burst_secs:.2}s ({:.1} qps aggregate), {total_errors} protocol errors",
        burst_total as f64 / burst_secs
    );

    if let Some(path) = &json_out {
        let doc = Json::object(vec![
            ("schema", Json::Str("pnsym-bench-snapshot-v1".to_string())),
            (
                "description",
                Json::Str(
                    "pnsymd serving benchmark: open-loop portfolio load against the warm-context daemon"
                        .to_string(),
                ),
            ),
            ("serving", Json::Obj(table.clone())),
            (
                "pool",
                match pool_counters {
                    Some([contexts, hits, misses, evictions, spills, restores, queries]) => {
                        Json::object(vec![
                            ("contexts", Json::Int(contexts as i64)),
                            ("hits", Json::Int(hits as i64)),
                            ("misses", Json::Int(misses as i64)),
                            ("evictions", Json::Int(evictions as i64)),
                            ("spills", Json::Int(spills as i64)),
                            ("restores", Json::Int(restores as i64)),
                            ("queries", Json::Int(queries as i64)),
                        ])
                    }
                    None => Json::Obj(Vec::new()),
                },
            ),
        ]);
        let mut text = String::new();
        doc.write(&mut text);
        match path {
            Some(path) => {
                if let Err(err) = std::fs::write(path, text + "\n") {
                    eprintln!("pnsymd load: cannot write {path}: {err}");
                    return ExitCode::FAILURE;
                }
            }
            None => println!("{text}"),
        }
    }

    if total_errors > 0 || table.is_empty() {
        eprintln!(
            "pnsymd load: FAILED ({total_errors} protocol errors, {} families)",
            table.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
