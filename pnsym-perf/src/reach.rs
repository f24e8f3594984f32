//! `reach`: the paper's tables as a batch of forward analyses, closed loop
//! on one thread.
//!
//! Four arms, every op checked against the pinned reference counts:
//! (a) the 15 table nets at paper scale x {sparse, improved dense} under
//! saturation; (b) the 15 default-scale nets x both encodings under
//! breadth-first traversal; (c) the same under saturation with adaptive
//! sifting (what `experiments table3/table4` run); (d) the ZDD engine under
//! saturation on the 6 paper-scale Table-4 nets. Passes over the ops, in a
//! seeded order, run until the time is up.

use crate::calib::Calibrator;
use crate::determinism::Fingerprints;
use crate::reference;
use crate::trace::Tracer;
use crate::util::{count_matches, geomean, median, ratio, tail, Outcome, Rng};
use crate::Config;
use pnsym_bench::{table3_workloads, table4_workloads, Scale};
use pnsym_core::{
    analyze, analyze_zdd_with, build_encoding, AnalysisOptions, FixpointStrategy, SiftPolicy,
    SymbolicContext,
};
use pnsym_net::PetriNet;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    PaperSaturation,
    DefaultBfs,
    DefaultSifting,
    PaperZdd,
}

impl Arm {
    fn tag(self) -> &'static str {
        match self {
            Arm::PaperSaturation => "a",
            Arm::DefaultBfs => "b",
            Arm::DefaultSifting => "c",
            Arm::PaperZdd => "d",
        }
    }
}

/// One op of the list: a net and how it is analysed.
pub struct Op {
    pub name: String,
    pub arm: Arm,
    pub net: PetriNet,
    /// `None` for the ZDD engine.
    pub options: Option<AnalysisOptions>,
}

/// Builds the op list (its nets included): this is the workload's set-up.
pub fn build_ops(tiny: bool) -> Vec<Op> {
    let (paper, default) = if tiny {
        (tiny_nets(), tiny_nets())
    } else {
        let paper = table3_workloads(Scale::Paper)
            .into_iter()
            .chain(table4_workloads(Scale::Paper))
            .map(|w| w.net)
            .collect();
        let default = table3_workloads(Scale::Default)
            .into_iter()
            .chain(table4_workloads(Scale::Default))
            .map(|w| w.net)
            .collect();
        (paper, default)
    };
    let saturation = FixpointStrategy::Saturation;
    let bfs = FixpointStrategy::Bfs { use_frontier: true };
    let mut sifting = [AnalysisOptions::sparse(), AnalysisOptions::dense()];
    for options in &mut sifting {
        *options = options.with_strategy(saturation);
        options.traversal.sift = SiftPolicy::adaptive();
    }
    let arms: [(Arm, &Vec<PetriNet>, [AnalysisOptions; 2]); 3] = [
        (
            Arm::PaperSaturation,
            &paper,
            [
                AnalysisOptions::sparse().with_strategy(saturation),
                AnalysisOptions::dense().with_strategy(saturation),
            ],
        ),
        (
            Arm::DefaultBfs,
            &default,
            [
                AnalysisOptions::sparse().with_strategy(bfs),
                AnalysisOptions::dense().with_strategy(bfs),
            ],
        ),
        (Arm::DefaultSifting, &default, sifting),
    ];
    let mut ops = Vec::new();
    for (arm, nets, options) in arms {
        for net in nets {
            for options in options {
                ops.push(Op {
                    name: format!("{}/{}/{}", arm.tag(), options.scheme, net.name()),
                    arm,
                    net: net.clone(),
                    options: Some(options),
                });
            }
        }
    }
    let table4_paper: Vec<PetriNet> = if tiny {
        tiny_nets()
    } else {
        table4_workloads(Scale::Paper)
            .into_iter()
            .map(|w| w.net)
            .collect()
    };
    for net in table4_paper {
        ops.push(Op {
            name: format!("d/zdd/{}", net.name()),
            arm: Arm::PaperZdd,
            net,
            options: None,
        });
    }
    ops
}

fn tiny_nets() -> Vec<PetriNet> {
    ["muller-8", "phil-3", "slot-3"]
        .into_iter()
        .map(|spec| pnsym_bench::net_by_spec(spec).expect("bundled spec"))
        .collect()
}

/// What one op produced: its counts and its deterministic work counters.
struct OpResult {
    markings: f64,
    deadlocks: Option<f64>,
    fingerprint: String,
    peak_nodes: usize,
    stats: Option<pnsym_bdd::ManagerStats>,
    iterations: usize,
    reorders: u64,
}

/// Runs one op through the public entry point (`analyze` /
/// `analyze_zdd_with`): the untraced measurement.
fn run_plain(op: &Op) -> OpResult {
    match &op.options {
        Some(options) => {
            let report = analyze(black_box(&op.net), options).expect("structural phase succeeds");
            assert!(report.truncated.is_none() && report.degraded.is_none());
            OpResult {
                markings: report.num_markings,
                deadlocks: Some(report.num_deadlocks),
                fingerprint: bdd_fingerprint(
                    &report.manager_stats,
                    report.iterations,
                    report.bdd_nodes,
                ),
                peak_nodes: report.manager_stats.peak_live_nodes,
                stats: Some(report.manager_stats),
                iterations: report.iterations,
                reorders: 0,
            }
        }
        None => {
            let report = analyze_zdd_with(black_box(&op.net), FixpointStrategy::Saturation);
            assert!(report.truncated.is_none());
            OpResult {
                markings: report.num_markings,
                deadlocks: None,
                fingerprint: format!("it={} zdd={}", report.iterations, report.zdd_nodes),
                peak_nodes: 0,
                stats: None,
                iterations: report.iterations,
                reorders: 0,
            }
        }
    }
}

/// Runs one op as the same sequence of public calls `analyze` makes, with
/// a span around each: the traced measurement.
fn run_traced(op: &Op, id: u64, tracer: &mut Tracer) -> OpResult {
    let whole = tracer.start("op", id);
    let result = match &op.options {
        Some(options) => {
            let span = tracer.start("build_encoding", id);
            let encoding = build_encoding(&op.net, options).expect("structural phase succeeds");
            tracer.end(span);
            let span = tracer.start("SymbolicContext::new", id);
            let mut ctx = SymbolicContext::new(&op.net, encoding);
            tracer.end(span);
            let span = tracer.start("image_plan", id);
            black_box(ctx.image_plan());
            tracer.end(span);
            let span = tracer.start("reachable_markings_with", id);
            let run = ctx.reachable_markings_with(options.traversal);
            tracer.end(span);
            assert!(run.truncated.is_none());
            let span = tracer.start("deadlocks_in+count_markings", id);
            let dead = ctx.deadlocks_in(run.reached);
            let deadlocks = ctx.count_markings(dead);
            tracer.end(span);
            let stats = ctx.stats();
            OpResult {
                markings: run.num_markings,
                deadlocks: Some(deadlocks),
                fingerprint: bdd_fingerprint(&stats, run.iterations, run.bdd_nodes),
                peak_nodes: stats.peak_live_nodes,
                stats: Some(stats),
                iterations: run.iterations,
                reorders: ctx.manager().order_generation(),
            }
        }
        None => {
            let span = tracer.start("analyze_zdd_with", id);
            let report = analyze_zdd_with(&op.net, FixpointStrategy::Saturation);
            tracer.end(span);
            OpResult {
                markings: report.num_markings,
                deadlocks: None,
                fingerprint: format!("it={} zdd={}", report.iterations, report.zdd_nodes),
                peak_nodes: 0,
                stats: None,
                iterations: report.iterations,
                reorders: 0,
            }
        }
    };
    tracer.end(whole);
    result
}

fn bdd_fingerprint(stats: &pnsym_bdd::ManagerStats, iterations: usize, nodes: usize) -> String {
    format!("{stats:?} it={iterations} nodes={nodes}")
}

/// Checks an op's counts against the reference table; returns whether
/// they matched.
fn check(op: &Op, result: &OpResult, out: &mut Outcome) -> bool {
    let name = op.net.name();
    let Some(want) = reference::net(name) else {
        out.fail(format!("{}: no reference counts for {name}", op.name));
        return false;
    };
    let mut wrong = Vec::new();
    if !count_matches(result.markings, want.markings) {
        wrong.push((
            "markings",
            format!(
                "markings {} (reference {}, {})",
                result.markings, want.markings, want.source
            ),
        ));
    }
    if let Some(deadlocks) = result.deadlocks {
        if !count_matches(deadlocks, want.deadlocks) {
            wrong.push((
                "deadlocks",
                format!(
                    "deadlocks {deadlocks} (reference {}, {})",
                    want.deadlocks, want.source
                ),
            ));
        }
    }
    if !wrong.is_empty() {
        out.fail_counts(&format!("reach {}", op.name), &wrong);
    }
    wrong.is_empty()
}

struct Pass {
    seconds: f64,
}

fn run_pass(
    ops: &[Op],
    order: &[usize],
    traced: Option<&mut Tracer>,
    prints: &mut Fingerprints,
    out: &mut Outcome,
    mut each: impl FnMut(&Op, &OpResult, bool),
) -> Pass {
    let mut tracer = traced;
    let start = Instant::now();
    for &i in order {
        let op = &ops[i];
        let result = match tracer.as_deref_mut() {
            Some(tracer) => run_traced(op, i as u64, tracer),
            None => run_plain(op),
        };
        out.attempted += 1;
        let ok = check(op, &result, out);
        prints.check(&op.name, result.fingerprint.clone(), out);
        each(op, &result, ok);
    }
    Pass {
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Set-up: builds the op list, recording the time it took.
fn setup(config: &Config, times: &mut Vec<f64>) -> Vec<Op> {
    let t = Instant::now();
    let ops = black_box(build_ops(config.tiny));
    times.push(t.elapsed().as_secs_f64());
    ops
}

pub fn run(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is timed once more before every op of every pass, so its
    // samples spread over the run like the ops' timings do; its metric is
    // their median. Every timing is scaled to the reference host speed by
    // the probes on either side of it.
    let ops = setup(config, &mut Vec::new());
    let mut order: Vec<usize> = (0..ops.len()).collect();
    Rng::new(config.seed).shuffle(&mut order);
    let mut prints = Fingerprints::default();
    let mut calibrator = Calibrator::new(1);

    let mut setup_times = Vec::new();
    let mut op_ms = vec![Vec::new(); ops.len()];
    let mut passes = Vec::new();
    let started = Instant::now();
    loop {
        let pass = Instant::now();
        for &i in &order {
            let mut setup_s = Vec::new();
            drop(setup(config, &mut setup_s));
            let op = &ops[i];
            let t = Instant::now();
            let result = run_plain(op);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let factor = calibrator.factor();
            setup_times.push(setup_s[0] * factor);
            op_ms[i].push(ms * factor);
            out.attempted += 1;
            check(op, &result, &mut out);
            prints.check(&op.name, result.fingerprint, &mut out);
        }
        passes.push(pass.elapsed().as_secs_f64());
        let elapsed = started.elapsed().as_secs_f64();
        if config.tiny || elapsed + passes[passes.len() - 1] > config.seconds {
            break;
        }
    }
    prints.check_across_runs("reach", &mut out);

    let per_op: Vec<f64> = op_ms.iter().map(|ms| median(ms)).collect();
    let pass_s = per_op.iter().sum::<f64>() / 1e3;
    crate::end_to_end(
        &mut out.metrics,
        median(&setup_times),
        pass_s,
        geomean(&per_op),
        (median(&per_op), tail(&per_op)),
        ops.len() as f64 / pass_s,
        crate::util::vm_hwm_mb("self").unwrap_or(0.0),
    );
    eprintln!(
        "reach: {} ops, {} passes ({passes:?} s wall), pass_s {pass_s}, median probe {} ms, {} failed op executions",
        ops.len(),
        passes.len(),
        median(&calibrator.probes_ms),
        out.failed
    );
    let mut slowest: Vec<(f64, &str)> = per_op
        .iter()
        .zip(&ops)
        .map(|(ms, op)| (*ms, op.name.as_str()))
        .collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    eprintln!(
        "reach: slowest ops (median ms) {:?}",
        &slowest[..slowest.len().min(12)]
    );
    out
}

/// The traced run: one untraced pass (for the overhead baseline and the
/// kernel counters), then one pass with a span around every public call.
pub fn run_traced_workload(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let ops = build_ops(config.tiny);
    let mut order: Vec<usize> = (0..ops.len()).collect();
    Rng::new(config.seed).shuffle(&mut order);
    let mut prints = Fingerprints::default();

    #[derive(Default)]
    struct Totals {
        kernel: pnsym_bdd::ManagerStats,
        and_exists_hits: u64,
        peak_nodes: u64,
        iterations: u64,
        reorders: u64,
        wrong: u64,
    }
    let mut totals = Totals::default();
    let plain = run_pass(&ops, &order, None, &mut prints, &mut out, |op, r, ok| {
        if let Some(s) = r.stats {
            let k = &mut totals.kernel;
            k.op_and.hits += s.op_and.hits;
            k.op_and.misses += s.op_and.misses;
            k.op_exists.hits += s.op_exists.hits;
            k.op_exists.misses += s.op_exists.misses;
            k.op_and_exists.hits += s.op_and_exists.hits;
            k.op_and_exists.misses += s.op_and_exists.misses;
            k.cache_hits += s.cache_hits;
            k.cache_misses += s.cache_misses;
            k.cache_overwrites += s.cache_overwrites;
            k.gc_runs += s.gc_runs;
            k.gc_reclaimed += s.gc_reclaimed;
            totals.and_exists_hits += s.op_and_exists.hits;
        }
        totals.peak_nodes += r.peak_nodes as u64;
        if op.arm != Arm::PaperZdd {
            totals.iterations += r.iterations as u64;
        }
        totals.wrong += u64::from(!ok);
    });
    let mut tracer = Tracer::new(true);
    let traced = run_pass(
        &ops,
        &order,
        Some(&mut tracer),
        &mut prints,
        &mut out,
        |_, r, _| totals.reorders += r.reorders,
    );
    crate::write_spans("reach", config.seed, &tracer);
    // One more untraced and traced pair, so the overhead compares medians.
    let mut untraced_s = vec![plain.seconds];
    let mut traced_s = vec![traced.seconds];
    if !config.tiny {
        untraced_s.push(run_pass(&ops, &order, None, &mut prints, &mut out, |_, _, _| {}).seconds);
        let mut spare = Tracer::new(true);
        let pass = run_pass(
            &ops,
            &order,
            Some(&mut spare),
            &mut prints,
            &mut out,
            |_, _, _| {},
        );
        traced_s.push(pass.seconds);
    }

    let arm_of = |op: u64| ops[op as usize].arm;
    let span_ms =
        |name: &str, arms: &[Arm]| tracer.self_ms_where(name, |op| arms.contains(&arm_of(op)));
    let bdd_arms = [Arm::PaperSaturation, Arm::DefaultBfs, Arm::DefaultSifting];
    let k = &totals.kernel;
    let m = &mut out.metrics;
    m.push("reach.kernel_steps", k.cache_misses as f64, "count");
    m.push(
        "reach.and_exists_lookups",
        k.op_and_exists.lookups() as f64,
        "count",
    );
    m.push(
        "reach.and_exists_hit_ratio",
        ratio(totals.and_exists_hits, k.op_and_exists.lookups()),
        "ratio",
    );
    m.push("reach.and_lookups", k.op_and.lookups() as f64, "count");
    m.push(
        "reach.exists_lookups",
        k.op_exists.lookups() as f64,
        "count",
    );
    m.push("reach.cache_overwrites", k.cache_overwrites as f64, "count");
    m.push("reach.gc_runs", k.gc_runs as f64, "count");
    m.push("reach.gc_reclaimed", k.gc_reclaimed as f64, "count");
    m.push(
        "reach.sift_fixpoint_ms",
        span_ms("reachable_markings_with", &[Arm::DefaultSifting]),
        "ms",
    );
    m.push("reach.reorders", totals.reorders as f64, "count");
    m.push(
        "reach.encode_ms",
        span_ms("build_encoding", &bdd_arms),
        "ms",
    );
    m.push(
        "reach.context_ms",
        span_ms("SymbolicContext::new", &bdd_arms),
        "ms",
    );
    m.push("reach.plan_ms", span_ms("image_plan", &bdd_arms), "ms");
    m.push(
        "reach.fixpoint_ms",
        span_ms(
            "reachable_markings_with",
            &[Arm::PaperSaturation, Arm::DefaultBfs],
        ),
        "ms",
    );
    m.push("reach.iterations", totals.iterations as f64, "count");
    m.push(
        "reach.count_ms",
        span_ms("deadlocks_in+count_markings", &bdd_arms),
        "ms",
    );
    m.push("reach.wrong_counts", totals.wrong as f64, "count");
    m.push(
        "reach.zdd_ms",
        span_ms("analyze_zdd_with", &[Arm::PaperZdd]),
        "ms",
    );
    m.push("reach.peak_nodes", totals.peak_nodes as f64, "count");
    m.push(
        "reach.error_rate",
        ratio(totals.wrong, ops.len() as u64),
        "ratio",
    );
    let (untraced_s, traced_s) = (median(&untraced_s), median(&traced_s));
    m.push("reach.untraced_pass_s", untraced_s, "s");
    m.push("reach.traced_pass_s", traced_s, "s");
    m.push("reach.trace_overhead", traced_s / untraced_s - 1.0, "ratio");
    out
}
