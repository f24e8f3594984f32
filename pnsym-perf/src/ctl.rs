//! `ctl`: CTL portfolios on warm contexts.
//!
//! Each op is one net in one encoding. Its set-up builds the context, its
//! saturation reached set and its pre-image plan; each timed repetition is
//! one `check_portfolio_on` of the net's full bundled suite, run after a
//! garbage collection and a cache clear. Ops run one at a time: an op's
//! context is built, warmed up (see [`warm_up`]), timed for [`REPS`]
//! consecutive repetitions and dropped before the next op's is built, so
//! only one manager is live. Rounds over all ops repeat until the time is
//! up. Every verdict, satisfying-marking count and reached count is
//! checked.

use crate::calib::Calibrator;
use crate::determinism::Fingerprints;
use crate::reference;
use crate::trace::Tracer;
use crate::util::{count_matches, geomean, median, ratio, tail, Outcome, Rng};
use crate::Config;
use pnsym_bdd::ManagerStats;
use pnsym_core::{
    build_encoding, AnalysisOptions, FixpointStrategy, Property, ReachabilityResult,
    SymbolicContext, TraversalOptions,
};
use pnsym_net::nets::property_suite;
use std::hint::black_box;
use std::time::Instant;

/// Every family with a bundled suite, each queried in both encodings.
pub const NETS: &[&str] = &[
    "figure1",
    "phil-4",
    "phil-5",
    "phil-6",
    "phil-7",
    "muller-8",
    "muller-12",
    "slot-5",
    "slot-7",
    "slot-9",
    "dme-spec-6",
    "dme-spec-8",
    "dme-cir-4",
    "dme-cir-5",
];

const TINY_NETS: &[&str] = &["figure1", "phil-4", "slot-5"];

fn options() -> TraversalOptions {
    TraversalOptions::with_strategy(FixpointStrategy::Saturation)
}

/// A warm context with its suite.
struct Op {
    name: String,
    net: String,
    ctx: SymbolicContext,
    run: ReachabilityResult,
    properties: Vec<Property>,
    /// Suite property names and expected verdicts, aligned with
    /// `properties`.
    expected: Vec<(String, Option<bool>)>,
}

/// The ops, as bundled spec and encoding, in a fixed order.
fn specs(tiny: bool) -> Vec<(&'static str, AnalysisOptions)> {
    let nets = if tiny { TINY_NETS } else { NETS };
    nets.iter()
        .flat_map(|spec| {
            [
                (*spec, AnalysisOptions::sparse()),
                (*spec, AnalysisOptions::dense()),
            ]
        })
        .collect()
}

/// Builds one op's warm context: the op's set-up.
fn build_op(spec: &str, analysis: &AnalysisOptions, id: u64, tracer: &mut Tracer) -> Op {
    let net = pnsym_bench::net_by_spec(spec).expect("bundled spec");
    let suite = property_suite(&net);
    let span = tracer.start("build_encoding", id);
    let encoding = build_encoding(&net, analysis).expect("structural phase succeeds");
    tracer.end(span);
    let span = tracer.start("SymbolicContext::new", id);
    let mut ctx = SymbolicContext::new(&net, encoding);
    tracer.end(span);
    let span = tracer.start("reachable_markings_with", id);
    let run = ctx.reachable_markings_with(options());
    tracer.end(span);
    let span = tracer.start("pre_image_plan", id);
    black_box(ctx.pre_image_plan());
    tracer.end(span);
    let properties = suite
        .iter()
        .map(|p| Property::parse(&p.formula, &net).expect("suite formula parses"))
        .collect();
    Op {
        name: format!("{}/{}", analysis.scheme, net.name()),
        net: net.name().to_string(),
        ctx,
        run,
        properties,
        expected: suite.iter().map(|p| (p.name.clone(), p.expect)).collect(),
    }
}

/// What one portfolio produced beyond its verdicts.
#[derive(Default, Clone, Copy)]
struct Work {
    kernel: ManagerStats,
    subterm_hits: u64,
    subterm_lookups: u64,
    /// The manager's lifetime high-water mark: the larger of the set-up's
    /// peak and the portfolio's.
    peak_nodes: u64,
    wrong_verdicts: u64,
}

fn delta(after: &ManagerStats, before: &ManagerStats) -> ManagerStats {
    let mut d = *after;
    d.cache_hits -= before.cache_hits;
    d.cache_misses -= before.cache_misses;
    d.cache_overwrites -= before.cache_overwrites;
    d.gc_runs -= before.gc_runs;
    d.gc_reclaimed -= before.gc_reclaimed;
    for (a, b) in [
        (&mut d.op_and, before.op_and),
        (&mut d.op_exists, before.op_exists),
        (&mut d.op_and_exists, before.op_and_exists),
    ] {
        a.hits -= b.hits;
        a.misses -= b.misses;
    }
    d
}

/// Runs one op: reset, portfolio, checks. Returns its time and work.
fn run_op(op: &mut Op, id: u64, tracer: &mut Tracer, out: &mut Outcome) -> (f64, Work) {
    op.ctx.manager_mut().collect_garbage();
    op.ctx.manager_mut().clear_cache();
    let before = op.ctx.stats();
    let start = Instant::now();
    let span = tracer.start("check_portfolio_on", id);
    let report = op
        .ctx
        .check_portfolio_on(&op.properties, &op.run, options());
    tracer.end(span);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let after = op.ctx.stats();
    out.attempted += 1;

    // Wrong counts (a known defect on some figures) and wrong or missing
    // verdicts (never known) are told apart.
    let mut wrong_counts = Vec::new();
    let mut problems = Vec::new();
    let want = reference::net(&op.net).expect("reference counts for every ctl net");
    if !count_matches(op.run.num_markings, want.markings) {
        wrong_counts.push((
            "reached",
            format!(
                "reached count {} (reference {}, {})",
                op.run.num_markings, want.markings, want.source
            ),
        ));
    }
    let mut wrong_verdicts = 0;
    for (check, (name, expect)) in report.reports.iter().zip(&op.expected) {
        let sat = reference::sat(&op.net, name).expect("reference count for every property");
        if check.truncated.is_some() || Some(check.holds) != *expect {
            wrong_verdicts += 1;
            problems.push(format!(
                "{name}: holds {} truncated {:?} (expected {expect:?})",
                check.holds, check.truncated
            ));
        } else if !count_matches(check.sat_markings, sat.sat) {
            wrong_counts.push((
                name.as_str(),
                format!(
                    "{name}: sat {} (reference {}, {})",
                    check.sat_markings, sat.sat, sat.source
                ),
            ));
        }
    }
    if report.reports.len() != op.expected.len() {
        problems.push("missing verdicts".to_string());
    }
    if !problems.is_empty() {
        problems.extend(wrong_counts.into_iter().map(|(_, text)| text));
        out.fail(format!("ctl {}: {}", op.name, problems.join("; ")));
    } else if !wrong_counts.is_empty() {
        out.fail_counts(&format!("ctl {}", op.name), &wrong_counts);
    }
    let work = Work {
        kernel: delta(&after, &before),
        subterm_hits: report.subterm_hits,
        subterm_lookups: report.subterm_lookups,
        peak_nodes: after.peak_live_nodes as u64,
        wrong_verdicts,
    };
    (ms, work)
}

fn fingerprint(w: &Work) -> String {
    let k = &w.kernel;
    format!(
        "and={:?} exists={:?} and_exists={:?} overwrites={} gc={} reclaimed={} subterms={}/{} peak={}",
        k.op_and, k.op_exists, k.op_and_exists, k.cache_overwrites, k.gc_runs, k.gc_reclaimed,
        w.subterm_hits, w.subterm_lookups, w.peak_nodes
    )
}

/// Timed repetitions per op and round, run back to back on the op's warm
/// context.
const REPS: usize = 5;

/// Set-ups per op and round; the last one's context is the one measured.
const SETUP_REPS: usize = 3;

/// One untimed repetition whose outputs are checked but whose counters are
/// not compared. It grows the arena to its working size; the computed
/// cache, which doubles under insert pressure accumulated over its lifetime
/// and would otherwise keep growing repetition after repetition, is then
/// pinned at the size one portfolio gave it. From here on every repetition
/// does identical work.
fn warm_up(op: &mut Op, id: u64, out: &mut Outcome) {
    run_op(op, id, &mut Tracer::new(false), out);
    op.ctx.manager_mut().set_cache_max_log2(0);
}

pub fn run(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let specs = specs(config.tiny);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    Rng::new(config.seed).shuffle(&mut order);
    let mut prints = Fingerprints::default();
    let mut untraced = Tracer::new(false);
    let mut names = vec![String::new(); specs.len()];
    let mut setup_s = vec![Vec::new(); specs.len()];
    let mut op_ms = vec![Vec::new(); specs.len()];
    let mut rounds = Vec::new();
    // Every timing is scaled to the reference host speed by the probes on
    // either side of it.
    let mut calibrator = Calibrator::new(1);
    let started = Instant::now();
    loop {
        let round = Instant::now();
        for &i in &order {
            let (spec, analysis) = &specs[i];
            let mut op = None;
            for _ in 0..SETUP_REPS {
                drop(op.take());
                let t = Instant::now();
                op = Some(build_op(spec, analysis, i as u64, &mut untraced));
                let s = t.elapsed().as_secs_f64();
                setup_s[i].push(s * calibrator.factor());
            }
            let mut op = op.expect("at least one set-up");
            warm_up(&mut op, i as u64, &mut out);
            calibrator.mark();
            for _ in 0..REPS {
                let (ms, w) = run_op(&mut op, i as u64, &mut untraced, &mut out);
                op_ms[i].push(ms * calibrator.factor());
                prints.check(&op.name, fingerprint(&w), &mut out);
            }
            names[i] = op.name;
        }
        rounds.push(round.elapsed().as_secs_f64());
        let elapsed = started.elapsed().as_secs_f64();
        if config.tiny || elapsed + rounds[rounds.len() - 1] > config.seconds {
            break;
        }
    }
    prints.check_across_runs("ctl", &mut out);

    let per_op: Vec<f64> = op_ms.iter().map(|ms| median(ms)).collect();
    let pass_s = per_op.iter().sum::<f64>() / 1e3;
    crate::end_to_end(
        &mut out.metrics,
        setup_s.iter().map(|s| median(s)).sum(),
        pass_s,
        geomean(&per_op),
        (median(&per_op), tail(&per_op)),
        specs.len() as f64 / pass_s,
        crate::util::vm_hwm_mb("self").unwrap_or(0.0),
    );
    let mut slowest: Vec<(f64, &str)> = per_op
        .iter()
        .zip(&names)
        .map(|(ms, name)| (*ms, name.as_str()))
        .collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    eprintln!(
        "ctl: {} ops, {} rounds ({rounds:?} s wall), pass_s {pass_s}, median probe {} ms, slowest {:?}",
        specs.len(),
        rounds.len(),
        median(&calibrator.probes_ms),
        &slowest[..slowest.len().min(6)]
    );
    out
}

/// The traced run: per op, set-up with spans, then alternated untraced and
/// traced repetitions (one pair, three outside the self-test).
pub fn run_traced_workload(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let specs = specs(config.tiny);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    Rng::new(config.seed).shuffle(&mut order);
    let mut prints = Fingerprints::default();
    let pairs = if config.tiny { 1 } else { 3 };
    let mut untraced_s = vec![0.0; pairs];
    let mut traced_s = vec![0.0; pairs];
    let mut plain = vec![Work::default(); specs.len()];
    let mut names = vec![String::new(); specs.len()];
    for &i in &order {
        let (spec, analysis) = &specs[i];
        let id = i as u64;
        let mut op = build_op(spec, analysis, id, &mut tracer);
        warm_up(&mut op, id, &mut out);
        for pair in 0..pairs {
            let (ms, w) = run_op(&mut op, id, &mut Tracer::new(false), &mut out);
            prints.check(&op.name, fingerprint(&w), &mut out);
            untraced_s[pair] += ms / 1e3;
            if pair == 0 {
                plain[i] = w;
            }
            // Only the first traced repetition's spans are kept.
            let mut spare = Tracer::new(true);
            let spans = if pair == 0 { &mut tracer } else { &mut spare };
            let (ms, w) = run_op(&mut op, id, spans, &mut out);
            prints.check(&op.name, fingerprint(&w), &mut out);
            traced_s[pair] += ms / 1e3;
        }
        names[i] = op.name;
    }
    crate::write_spans("ctl", config.seed, &tracer);

    let mut total = Work::default();
    for w in &plain {
        let k = &mut total.kernel;
        k.cache_hits += w.kernel.cache_hits;
        k.cache_misses += w.kernel.cache_misses;
        k.op_and.hits += w.kernel.op_and.hits;
        k.op_and.misses += w.kernel.op_and.misses;
        k.op_and_exists.hits += w.kernel.op_and_exists.hits;
        k.op_and_exists.misses += w.kernel.op_and_exists.misses;
        total.subterm_hits += w.subterm_hits;
        total.subterm_lookups += w.subterm_lookups;
        total.peak_nodes += w.peak_nodes;
        total.wrong_verdicts += w.wrong_verdicts;
    }
    let failed_ops = names
        .iter()
        .filter(|name| {
            out.failures
                .iter()
                .any(|f| f.starts_with(&format!("ctl {name}:")))
        })
        .count();
    let k = &total.kernel;
    let all = |_: u64| true;
    let m = &mut out.metrics;
    m.push("ctl.kernel_steps", k.cache_misses as f64, "count");
    m.push(
        "ctl.and_exists_lookups",
        k.op_and_exists.lookups() as f64,
        "count",
    );
    m.push("ctl.and_lookups", k.op_and.lookups() as f64, "count");
    m.push(
        "ctl.cache_hit_ratio",
        ratio(k.cache_hits, k.cache_hits + k.cache_misses),
        "ratio",
    );
    m.push(
        "ctl.preplan_ms",
        tracer.self_ms_where("pre_image_plan", all),
        "ms",
    );
    m.push(
        "ctl.setup_fixpoint_ms",
        tracer.self_ms_where("reachable_markings_with", all),
        "ms",
    );
    m.push(
        "ctl.portfolio_ms",
        tracer.self_ms_where("check_portfolio_on", all),
        "ms",
    );
    m.push(
        "ctl.subterm_hit_ratio",
        ratio(total.subterm_hits, total.subterm_lookups),
        "ratio",
    );
    m.push("ctl.wrong_verdicts", total.wrong_verdicts as f64, "count");
    m.push("ctl.peak_nodes", total.peak_nodes as f64, "count");
    m.push(
        "ctl.error_rate",
        ratio(failed_ops as u64, names.len() as u64),
        "ratio",
    );
    let (untraced_s, traced_s) = (median(&untraced_s), median(&traced_s));
    m.push("ctl.untraced_pass_s", untraced_s, "s");
    m.push("ctl.traced_pass_s", traced_s, "s");
    m.push("ctl.trace_overhead", traced_s / untraced_s - 1.0, "ratio");
    out
}
