//! `serve`: `pnsymd` traffic.
//!
//! The daemon is the repository's `pnsymd serve` binary in its own process,
//! with a snapshot directory and otherwise its default configuration
//! (pool of 4, default strategy). An untimed first life seeds the snapshot
//! directory with the most popular specs; every timed life starts from a
//! fresh copy of it, so pool outcomes repeat exactly for a seed.
//!
//! Requests follow a Zipf-like popularity over [`SPECS`]; each asks for a
//! seeded non-empty subset of the family's suite, a seeded share asks for
//! witnesses, none carries a budget or a strategy. Two timed phases, each on
//! one connection: a closed loop over a fixed request list with two
//! requests in flight (capacity), then open-loop lives with exponential
//! gaps at a fixed rate, each request timed from the instant it was due.
//! Every verdict line is checked against the pinned reference.

use crate::calib::Calibrator;
use crate::determinism::Fingerprints;
use crate::reference;
use crate::trace::Tracer;
use crate::util::{count_matches, geomean, median, quantile, ratio, tail, vm_hwm_mb, Outcome, Rng};
use crate::Config;
use pnsym_core::server::{
    CheckRequest, Client, ErrorCode, NamedFormula, PoolOutcome, Request, Response,
};
use pnsym_net::nets::{property_suite, PropertySpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The family specs requested, most popular first.
pub const SPECS: &[&str] = &[
    "phil-4",
    "muller-8",
    "slot-5",
    "dme-spec-4",
    "figure1",
    "phil-5",
    "dme-cir-3",
    "slot-4",
    "muller-6",
    "dme-spec-3",
];

/// How many of the most popular specs the first life leaves on disk; the
/// others are cold misses the first time a timed life sees them.
const SEEDED: usize = 5;
/// Zipf exponent of the popularity: the 4 hottest specs take 98% of the
/// requests and fit the pool of 4; the other 6 miss, spill and restore.
/// With exponent 2 (90%) every tenth request paid a synchronous snapshot
/// `fsync`, whose latency on a shared disk moved the capacity by 25%
/// between runs of one build.
const ZIPF_S: f64 = 3.0;
/// Share of requests that ask for witnesses.
const WITNESS_SHARE: f64 = 0.25;
/// Requests in the closed-loop list, and in each open-loop life's stream.
const CLOSED_REQUESTS: usize = 1000;
const OPEN_REQUESTS: usize = 1000;
/// Open-loop daemon lives, each on a fresh copy of the seeded directory,
/// so each pays the cold misses of the specs the first life did not seed.
/// A life's 99th percentile is set by its worst one or two snapshot
/// `fsync` stalls, so `p99_ms`, the median over lives, needs many lives.
const OPEN_LIVES: usize = 12;
/// Share of `--seconds` the closed loop runs for. Its metric is the
/// median pass, which a score of passes already pins down.
const CLOSED_SHARE: f64 = 0.2;
/// Requests in flight on the closed-loop connection. The daemon serves one
/// connection's requests in order; with the next one already sent it
/// starts it without waiting for the client's round trip, so the loop
/// measures the daemon's capacity, not the client's wake-up latency.
const WINDOW: usize = 2;
/// Open-loop arrival rate: about a sixth of the closed-loop capacity
/// (2800-3100/s on a 2-vCPU host). At half the capacity, queueing behind
/// snapshot `fsync` stalls made the p99 move from 34 to 54 ms between runs
/// of one build.
const OPEN_RATE: f64 = 500.0;

/// Probes per probe point. A point brackets a whole pass or life, so it
/// can afford several probes, and their median is steadier than one.
const PROBE_BURST: usize = 5;

/// A request of the stream and what its answer must contain.
struct Planned {
    request: Request,
    spec: &'static str,
    asked: Vec<PropertySpec>,
}

/// The seeded request stream. Each spec gets its exact Zipf share of the
/// requests (largest remainder), so every seed offers the same mix; the
/// seed picks the order, each request's suite subset and its witness flag.
fn plan(rng: &mut Rng, count: usize, first_id: u64, specs: &[&'static str]) -> Vec<Planned> {
    let weights: Vec<f64> = (0..specs.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..specs.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let missing = count - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(missing) {
        counts[rank] += 1;
    }
    let mut ranks: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &n)| std::iter::repeat_n(rank, n))
        .collect();
    rng.shuffle(&mut ranks);
    ranks
        .into_iter()
        .enumerate()
        .map(|(i, rank)| {
            let spec = specs[rank];
            let suite = property_suite(&pnsym_bench::net_by_spec(spec).expect("bundled spec"));
            let mut asked: Vec<PropertySpec> = suite
                .iter()
                .filter(|_| rng.next_u64() & 1 == 1)
                .cloned()
                .collect();
            if asked.is_empty() {
                asked.push(suite[rng.below(suite.len())].clone());
            }
            let witness = rng.next_f64() < WITNESS_SHARE;
            Planned {
                request: check_request(first_id + i as u64, spec, &asked, witness),
                spec,
                asked,
            }
        })
        .collect()
}

fn check_request(id: u64, spec: &str, asked: &[PropertySpec], witness: bool) -> Request {
    Request::Check(CheckRequest {
        id,
        net: spec.to_string(),
        properties: asked
            .iter()
            .map(|p| NamedFormula {
                name: p.name.clone(),
                formula: p.formula.clone(),
            })
            .collect(),
        deadline_ms: None,
        node_ceiling: None,
        step_ceiling: None,
        fault_seed: None,
        strategy: None,
        witness,
    })
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `pnsymd serve` on `dir` and waits for its first `pong`.
    fn start(binary: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--snapshot-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let _ = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("pnsymd did not report its address: {line:?}"));
        };
        let daemon = Daemon { child, addr };
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        match client.request(&Request::Ping { id: 1 }) {
            Ok(r) if r == [Response::Pong { id: 1 }] => {}
            other => return Err(format!("no pong: {other:?}")),
        }
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    fn stats(&self) -> Option<Response> {
        let mut client = Client::connect(self.addr).ok()?;
        client.request(&Request::Stats { id: 2 }).ok()?.pop()
    }

    fn rss_mb(&self) -> f64 {
        vm_hwm_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Asks the daemon to stop and reaps it.
    fn stop(mut self) {
        if let Ok(mut client) = Client::connect(self.addr) {
            let _ = client.request(&Request::Shutdown { id: 3 });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Builds `pnsymd` from the repository (a no-op when it is up to date) and
/// returns its path.
pub fn daemon_binary() -> Result<PathBuf, String> {
    let root = crate::repo_root();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "pnsymd",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building pnsymd failed".to_string());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|t| if t.is_absolute() { t } else { root.join(t) })
        .unwrap_or_else(|| root.join("target"));
    Ok(target.join("release").join("pnsymd"))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    // Flushed here, untimed, so the daemon's own `fsync`s do not also
    // write back the benchmark's copies.
    std::fs::File::open(to)?.sync_all()?;
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

/// One answered request.
struct Answer {
    /// Client latency, ms (closed loop: from the send; open loop: from the
    /// due time).
    latency_ms: f64,
    /// `Done.total_ms`, the daemon's own time.
    server_ms: f64,
    pool: Option<PoolOutcome>,
}

/// One closed-loop pass: per request of the list, its checked answer.
type ClosedPass = Vec<Option<Answer>>;

/// Failure classes the per-layer metrics count separately.
#[derive(Default)]
struct Tally {
    refused: u64,
    protocol_errors: u64,
}

/// Checks one request's response stream; returns its `Done` summary.
fn check_answer(
    planned: &Planned,
    responses: &[Response],
    out: &mut Outcome,
    tally: &mut Tally,
) -> Option<(f64, PoolOutcome)> {
    let id = planned.request.id();
    let net = pnsym_bench::net_by_spec(planned.spec).expect("bundled spec");
    let want = reference::net(net.name()).expect("reference counts for every served spec");
    let mut problems = Vec::new();
    let mut verdicts = 0;
    let mut done = None;
    for response in responses {
        match response {
            Response::Verdict(v) => {
                verdicts += 1;
                let Some(spec) = planned.asked.iter().find(|p| p.name == v.name) else {
                    problems.push(format!("unasked verdict {}", v.name));
                    continue;
                };
                let sat_ok = reference::sat(net.name(), &v.name)
                    .is_some_and(|r| count_matches(v.sat_markings, r.sat));
                if Some(v.holds) != spec.expect
                    || !sat_ok
                    || !count_matches(v.reached_markings, want.markings)
                    || v.truncated.is_some()
                {
                    problems.push(format!(
                        "{}: holds {} sat {} reached {} (reference: {})",
                        v.name, v.holds, v.sat_markings, v.reached_markings, want.source
                    ));
                }
                if let Some(trace) = &v.trace {
                    if !replays(&net, trace) {
                        problems.push(format!("{}: trace does not replay", v.name));
                    }
                }
            }
            Response::Done {
                id: done_id,
                pool,
                properties,
                truncated,
                total_ms,
                ..
            } => {
                if *done_id != id
                    || *properties != planned.asked.len() as u64
                    || truncated.is_some()
                {
                    problems.push(format!("bad done line {response:?}"));
                }
                done = Some((*total_ms, *pool));
            }
            Response::Error { code, message, .. } => {
                if *code == ErrorCode::Overloaded {
                    tally.refused += 1;
                } else {
                    tally.protocol_errors += 1;
                }
                problems.push(format!("error {code:?}: {message}"));
            }
            other => problems.push(format!("unexpected line {other:?}")),
        }
    }
    if verdicts != planned.asked.len() {
        problems.push(format!(
            "{verdicts} verdicts for {} asked",
            planned.asked.len()
        ));
    }
    if done.is_none() {
        problems.push("no done line".to_string());
    }
    if !problems.is_empty() {
        out.fail(format!(
            "serve {} #{id}: {}",
            planned.spec,
            problems.join("; ")
        ));
        return None;
    }
    done
}

/// Whether a witness trace is a firing sequence from the initial marking.
fn replays(net: &pnsym_net::PetriNet, trace: &[String]) -> bool {
    let mut marking = net.initial_marking().clone();
    for name in trace {
        let Some(t) = net.transition_by_name(name) else {
            return false;
        };
        match net.fire(&marking, t) {
            Ok(next) => marking = next,
            Err(_) => return false,
        }
    }
    true
}

/// Reads one request's response lines, up to its terminal line.
fn read_answer(reader: &mut impl BufRead, line: &mut String) -> Result<Vec<Response>, String> {
    let mut responses = Vec::new();
    loop {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => return Err("connection closed".to_string()),
            Ok(_) => {}
            Err(err) => return Err(err.to_string()),
        }
        let response = Response::parse(line.trim_end()).map_err(|e| format!("{e:?}"))?;
        let terminal = response.is_terminal();
        responses.push(response);
        if terminal {
            return Ok(responses);
        }
    }
}

/// Closed loop: rounds over the list on one connection, keeping
/// [`WINDOW`] requests in flight. Returns per-pass seconds and per-request
/// answers; a request's latency is its service time, from when the daemon
/// could start it (its send, or the previous answer) to its answer. Both
/// are scaled to the reference host speed by the probes around each pass.
fn closed_loop(
    daemon: &Daemon,
    list: &[Planned],
    budget_s: f64,
    min_passes: usize,
    calibrator: &mut Calibrator,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<ClosedPass>), String> {
    let socket = TcpStream::connect(daemon.addr).map_err(|e| format!("cannot connect: {e}"))?;
    let _ = socket.set_nodelay(true);
    let _ = socket.set_read_timeout(Some(Duration::from_secs(120)));
    let mut reader = BufReader::new(socket.try_clone().map_err(|e| e.to_string())?);
    let mut writer = socket;
    let lines: Vec<String> = list.iter().map(|p| p.request.to_line() + "\n").collect();
    let mut line = String::new();
    let started = Instant::now();
    let mut pass_s = Vec::new();
    let mut answers = Vec::new();
    calibrator.mark();
    while pass_s.len() < min_passes || started.elapsed().as_secs_f64() < budget_s {
        let pass_start = Instant::now();
        let mut sent = Vec::with_capacity(list.len());
        let mut raw = Vec::with_capacity(list.len());
        for request in lines.iter().take(WINDOW) {
            sent.push(Instant::now());
            writer
                .write_all(request.as_bytes())
                .map_err(|e| e.to_string())?;
        }
        let mut previous = pass_start;
        for i in 0..list.len() {
            let responses = read_answer(&mut reader, &mut line);
            let done = Instant::now();
            if let Some(request) = lines.get(i + WINDOW) {
                sent.push(Instant::now());
                writer
                    .write_all(request.as_bytes())
                    .map_err(|e| e.to_string())?;
            }
            let service_ms = done.duration_since(sent[i].max(previous)).as_secs_f64() * 1e3;
            previous = done;
            let failed = responses.is_err();
            raw.push((service_ms, responses));
            if failed {
                break;
            }
        }
        let pass_wall_s = pass_start.elapsed().as_secs_f64();
        let factor = calibrator.factor();
        pass_s.push(pass_wall_s * factor);
        // Checked after the pass, so checking is not timed.
        let mut pass = Vec::with_capacity(list.len());
        for (planned, (latency_ms, responses)) in list.iter().zip(raw) {
            out.attempted += 1;
            pass.push(match responses {
                Ok(responses) => {
                    check_answer(planned, &responses, out, tally).map(|(server_ms, pool)| Answer {
                        latency_ms: latency_ms * factor,
                        server_ms,
                        pool: Some(pool),
                    })
                }
                Err(err) => {
                    tally.protocol_errors += 1;
                    out.fail(format!(
                        "serve closed loop #{}: {err}",
                        planned.request.id()
                    ));
                    None
                }
            });
        }
        if pass.len() < list.len() {
            return Err("closed loop lost its connection".to_string());
        }
        answers.push(pass);
    }
    Ok((pass_s, answers))
}

/// Open loop: sends each request at its due time on one connection while a
/// second thread reads the answers. Returns, per request, its answer
/// (latency from the due time) and the lateness of its send.
fn open_loop(
    daemon: &Daemon,
    stream: &[Planned],
    gaps_s: &[f64],
    out: &mut Outcome,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> (Vec<Option<Answer>>, Vec<f64>) {
    let socket = match TcpStream::connect(daemon.addr) {
        Ok(s) => s,
        Err(err) => {
            out.fail(format!("serve: cannot connect: {err}"));
            return (Vec::new(), Vec::new());
        }
    };
    let _ = socket.set_nodelay(true);
    let _ = socket.set_read_timeout(Some(Duration::from_secs(120)));
    let reader = BufReader::new(socket.try_clone().expect("clone socket"));
    let mut writer = socket;
    let first_id = stream.first().map_or(0, |p| p.request.id());
    let start = Instant::now() + Duration::from_millis(20);
    let mut due = Vec::with_capacity(stream.len());
    let mut t = 0.0;
    for gap in gaps_s {
        t += gap;
        due.push(start + Duration::from_secs_f64(t));
    }

    let (lateness, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut reader = reader;
            let mut received: Vec<(Vec<Response>, Option<Instant>)> =
                (0..stream.len()).map(|_| (Vec::new(), None)).collect();
            let mut pending = stream.len();
            let mut line = String::new();
            // A line that does not parse, or answers no request of this
            // life, cannot be matched to its request: the stream is broken,
            // so the life ends here and every request still open counts as
            // unanswered.
            let mut garbled = None;
            while pending > 0 {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let response = match Response::parse(line.trim_end()) {
                    Ok(response) => response,
                    Err(err) => {
                        garbled = Some(format!("unparsable line ({err:?}): {}", line.trim_end()));
                        break;
                    }
                };
                let index = response.id().wrapping_sub(first_id) as usize;
                let Some(slot) = received.get_mut(index) else {
                    garbled = Some(format!("answer to unknown id {}", response.id()));
                    break;
                };
                let terminal = response.is_terminal();
                slot.0.push(response);
                if terminal {
                    slot.1 = Some(Instant::now());
                    pending -= 1;
                }
            }
            (received, garbled)
        });
        let mut lateness = Vec::with_capacity(stream.len());
        for (planned, due) in stream.iter().zip(&due) {
            let now = Instant::now();
            if *due > now {
                std::thread::sleep(*due - now);
            }
            lateness.push(due.elapsed().as_secs_f64() * 1e3);
            let mut line = planned.request.to_line();
            line.push('\n');
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        (lateness, receiver.join().expect("receiver thread"))
    });
    let (received, garbled) = received;
    if let Some(garbled) = garbled {
        tally.protocol_errors += 1;
        out.fail(format!("serve open loop: {garbled}"));
    }

    let mut answers = Vec::with_capacity(stream.len());
    for ((planned, due), (responses, done_at)) in stream.iter().zip(&due).zip(received) {
        out.attempted += 1;
        let Some(done_at) = done_at else {
            tally.protocol_errors += 1;
            out.fail(format!(
                "serve open loop #{}: no terminal line",
                planned.request.id()
            ));
            answers.push(None);
            continue;
        };
        tracer.record("request/done", planned.request.id(), *due, done_at);
        let latency_ms = done_at.saturating_duration_since(*due).as_secs_f64() * 1e3;
        answers.push(
            check_answer(planned, &responses, out, tally).map(|(server_ms, pool)| Answer {
                latency_ms,
                server_ms,
                pool: Some(pool),
            }),
        );
    }
    (answers, lateness)
}

fn pool_counts<'a>(answers: impl Iterator<Item = &'a Answer>) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for a in answers {
        let key = match a.pool {
            Some(PoolOutcome::Hit) => "hit",
            Some(PoolOutcome::Miss) => "miss",
            Some(PoolOutcome::Restored) => "restored",
            None => "none",
        };
        *counts.entry(key).or_insert(0) += 1;
    }
    counts
}

pub fn run(config: &Config, daemon: &Result<PathBuf, String>, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let work = crate::work_dir().join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let result = match daemon {
        Ok(binary) => phases(config, traced, binary, &work, &mut out),
        Err(err) => Err(err.clone()),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(err) = result {
        out.fail(format!("serve: {err}"));
    }
    out
}

fn phases(
    config: &Config,
    traced: bool,
    binary: &Path,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let specs: &[&'static str] = if config.tiny { &SPECS[..4] } else { SPECS };
    let seeded_specs = &specs[..SEEDED.min(specs.len() - 1)];
    let mut rng = Rng::new(config.seed);
    let closed = plan(
        &mut rng,
        if config.tiny { 12 } else { CLOSED_REQUESTS },
        1_000,
        specs,
    );
    let (lives, per_life) = if config.tiny {
        (1, 30)
    } else {
        (OPEN_LIVES, OPEN_REQUESTS)
    };
    let open: Vec<(Vec<Planned>, Vec<f64>)> = (0..lives)
        .map(|life| {
            let stream = plan(&mut rng, per_life, 100_000 * (life as u64 + 1), specs);
            let gaps = (0..per_life)
                .map(|_| -(1.0 - rng.next_f64()).ln() / OPEN_RATE)
                .collect();
            (stream, gaps)
        })
        .collect();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(traced);

    // First life, untimed: seed the snapshot directory.
    let seeded = work.join("seeded");
    std::fs::create_dir_all(&seeded).map_err(|e| e.to_string())?;
    let (daemon, _) = Daemon::start(binary, &seeded)?;
    {
        let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
        for (i, spec) in seeded_specs.iter().enumerate() {
            let suite = property_suite(&pnsym_bench::net_by_spec(spec).expect("bundled spec"));
            let planned = Planned {
                request: check_request(10 + i as u64, spec, &suite, false),
                spec,
                asked: suite,
            };
            let responses = client
                .request(&planned.request)
                .map_err(|e| e.to_string())?;
            out.attempted += 1;
            check_answer(&planned, &responses, out, &mut tally);
        }
    }
    daemon.stop();

    let fresh_copy = |name: &str| -> Result<PathBuf, String> {
        let dir = work.join(name);
        copy_dir(&seeded, &dir).map_err(|e| e.to_string())?;
        Ok(dir)
    };

    // Set-up: spawn to first pong on the seeded directory, three times
    // before the timed phases and twice after each open-loop life, so the
    // samples spread over the run; the metric is their median.
    // Each is paired with a start on an empty directory, the baseline of
    // the rehydration time.
    // Every timing is scaled to the reference host speed by the probes on
    // either side of it (for an open-loop life, of the whole life).
    let mut calibrator = Calibrator::new(PROBE_BURST);
    let mut setups = Vec::new();
    let mut empty_starts = Vec::new();
    let mut time_setups =
        |round: usize, count: usize, calibrator: &mut Calibrator| -> Result<(), String> {
            for i in 0..count {
                let dir = fresh_copy(&format!("setup-{round}-{i}"))?;
                calibrator.mark();
                let (daemon, s) = Daemon::start(binary, &dir)?;
                setups.push(s * calibrator.factor());
                daemon.stop();
                let dir = work.join(format!("empty-{round}-{i}"));
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                calibrator.mark();
                let (daemon, s) = Daemon::start(binary, &dir)?;
                empty_starts.push(s * calibrator.factor());
                daemon.stop();
            }
            Ok(())
        };
    time_setups(0, 3, &mut calibrator)?;

    // Closed loop on a fresh copy, in rounds; after each round one
    // open-loop life, on its own fresh copy, while the closed-loop daemon
    // idles. Spreading both phases over the run makes each sample the
    // whole run's mix of host states, not a few seconds of it.
    let dir = fresh_copy("closed")?;
    let (closed_daemon, _) = Daemon::start(binary, &dir)?;
    let mut pass_s = Vec::new();
    let mut closed_answers = Vec::new();
    let mut open_answers = Vec::new();
    let mut lateness = Vec::new();
    let mut lives_stats = Vec::new();
    let mut rss = Vec::new();
    let mut snapshot_bytes = 0;
    let mut life_factors = Vec::new();
    for (life, (stream, gaps)) in open.iter().enumerate() {
        let (budget, min_passes) = match (traced || config.tiny, life) {
            (true, 0) => (0.0, 2),
            (true, _) => (0.0, 0),
            (false, _) => (config.seconds * CLOSED_SHARE / open.len() as f64, 1),
        };
        let (passes, answers) = closed_loop(
            &closed_daemon,
            &closed,
            budget,
            min_passes,
            &mut calibrator,
            out,
            &mut tally,
        )?;
        pass_s.extend(passes);
        closed_answers.extend(answers);

        let dir = fresh_copy(&format!("open-{life}"))?;
        let (daemon, _) = Daemon::start(binary, &dir)?;
        calibrator.mark();
        let (answers, late) = open_loop(&daemon, stream, gaps, out, &mut tally, &mut tracer);
        life_factors.push(calibrator.factor());
        lives_stats.push(daemon.stats());
        rss.push(daemon.rss_mb());
        daemon.stop();
        snapshot_bytes = snapshot_bytes.max(dir_bytes(&dir));
        open_answers.push(answers);
        lateness.extend(late);
        time_setups(life + 1, 2, &mut calibrator)?;
    }
    rss.push(closed_daemon.rss_mb());
    closed_daemon.stop();
    let setup_s = median(&setups);

    // Deterministic counters: pool outcomes per phase (and per closed pass
    // after the first, which alone sees the cold misses) and per open life.
    let mut prints = Fingerprints::default();
    for (i, pass) in closed_answers.iter().enumerate() {
        let key = if i == 0 {
            "closed-first-pass"
        } else {
            "closed-pass"
        };
        prints.check(
            key,
            format!("{:?}", pool_counts(pass.iter().flatten())),
            out,
        );
    }
    let mut totals = PoolStats::default();
    for (life, (answers, stats)) in open_answers.iter().zip(&lives_stats).enumerate() {
        let life_stats = PoolStats::of(stats.as_ref());
        prints.check(
            &format!("open-{life}"),
            format!("{:?} {life_stats:?}", pool_counts(answers.iter().flatten())),
            out,
        );
        totals.add(&life_stats);
    }
    prints.check_across_runs(&format!("serve-{}", config.seed), out);

    // Open-loop latencies at the reference host speed, per life. The tail
    // is the median of the lives' tails: a burst of slow snapshot `fsync`s
    // in one life moves it less than it moves the tail of all samples
    // pooled.
    let scaled_lives: Vec<Vec<f64>> = open_answers
        .iter()
        .zip(&life_factors)
        .map(|(life, factor)| {
            life.iter()
                .flatten()
                .map(|a| a.latency_ms * factor)
                .collect()
        })
        .collect();
    let life_tails: Vec<f64> = scaled_lives
        .iter()
        .filter(|latency| !latency.is_empty())
        .map(|latency| tail(latency))
        .collect();
    let open_latency: Vec<f64> = scaled_lives.concat();
    let open_answers: Vec<&Answer> = open_answers.iter().flatten().flatten().collect();
    if pass_s.is_empty() || open_latency.is_empty() {
        return Err("no answered requests".to_string());
    }
    let closed_pass_s = median(&pass_s);
    if !traced {
        let per_request: Vec<f64> = (0..closed.len())
            .filter_map(|i| {
                let samples: Vec<f64> = closed_answers
                    .iter()
                    .filter_map(|pass| pass[i].as_ref().map(|a| a.latency_ms))
                    .collect();
                (!samples.is_empty()).then(|| median(&samples))
            })
            .collect();
        crate::end_to_end(
            &mut out.metrics,
            setup_s,
            closed_pass_s,
            geomean(&per_request),
            (median(&open_latency), median(&life_tails)),
            closed.len() as f64 / closed_pass_s,
            median(&rss),
        );
        eprintln!(
            "serve: closed passes {pass_s:?}, open pool {:?}, life tails {life_tails:?} ms, lateness p99 {:.3} ms, median probe {} ms",
            pool_counts(open_answers.iter().copied()),
            quantile(&lateness, 0.99),
            median(&calibrator.probes_ms)
        );
        return Ok(());
    }

    let all_answers: Vec<&Answer> = closed_answers
        .iter()
        .flatten()
        .flatten()
        .chain(open_answers.iter().copied())
        .collect();
    let server_ms = |outcome: PoolOutcome| {
        let samples: Vec<f64> = all_answers
            .iter()
            .filter(|a| a.pool == Some(outcome))
            .map(|a| a.server_ms)
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        }
    };
    let wait: Vec<f64> = open_answers
        .iter()
        .map(|a| (a.latency_ms - a.server_ms).max(0.0))
        .collect();
    let open_pools = pool_counts(open_answers.iter().copied());
    let open_hits = open_pools.get("hit").copied().unwrap_or(0);
    let failed_requests = out.failed;
    let m = &mut out.metrics;
    m.push("serve.wait_p50_ms", median(&wait), "ms");
    m.push("serve.wait_p99_ms", tail(&wait), "ms");
    m.push("serve.refused", tally.refused as f64, "count");
    m.push(
        "serve.protocol_errors",
        tally.protocol_errors as f64,
        "count",
    );
    m.push("serve.hit_ms", server_ms(PoolOutcome::Hit), "ms");
    m.push("serve.miss_ms", server_ms(PoolOutcome::Miss), "ms");
    m.push("serve.restored_ms", server_ms(PoolOutcome::Restored), "ms");
    m.push(
        "serve.pool_hit_ratio",
        ratio(open_hits, open_latency.len() as u64),
        "ratio",
    );
    m.push("serve.evictions", totals.evictions as f64, "count");
    m.push("serve.spills", totals.spills as f64, "count");
    m.push("serve.restores", totals.restores as f64, "count");
    m.push("serve.snapshot_bytes", snapshot_bytes as f64, "bytes");
    m.push(
        "serve.rehydrate_ms",
        (setup_s - median(&empty_starts)) * 1e3,
        "ms",
    );
    m.push("serve.generator_lag_ms", quantile(&lateness, 0.99), "ms");
    m.push(
        "serve.error_rate",
        ratio(failed_requests, out.attempted),
        "ratio",
    );
    crate::write_spans("serve", config.seed, &tracer);
    Ok(())
}

/// The daemon's pool counters of one life, from its `stats` line.
#[derive(Debug, Default)]
struct PoolStats {
    hits: u64,
    misses: u64,
    evictions: u64,
    spills: u64,
    restores: u64,
}

impl PoolStats {
    fn of(stats: Option<&Response>) -> PoolStats {
        match stats {
            Some(Response::Stats {
                hits,
                misses,
                evictions,
                spills,
                restores,
                ..
            }) => PoolStats {
                hits: *hits,
                misses: *misses,
                evictions: *evictions,
                spills: *spills,
                restores: *restores,
            },
            _ => PoolStats::default(),
        }
    }

    fn add(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.spills += other.spills;
        self.restores += other.restores;
    }
}
