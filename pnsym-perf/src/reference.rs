//! The pinned reference: exact marking and deadlock counts per net, and
//! the satisfying-marking count of every bundled suite property on the
//! nets the `ctl` and `serve` workloads query.
//!
//! Counts are decimal strings, compared through the count type's own
//! `FromStr` (see [`crate::util::count_matches`]). Each entry names its
//! source:
//! * `explicit`: the explicit-state oracle (`explore_with`, up to 5M
//!   markings) and, for properties, `ExplicitChecker`;
//! * `closed form`: muller-n = 4^n, slot-n = 4^n - 2 with one deadlock,
//!   dme-spec-n = 5n * 3^(n-1); each also equals the ZDD engine's count;
//! * `zdd = dense`: agreement of the ZDD engine and the dense BDD engine;
//! * `dense`: the dense BDD engine alone (CTL counts on nets too large for
//!   the explicit oracle).
//!
//! `cargo run --release --manifest-path pnsym-perf/Cargo.toml --
//! --print-reference` recomputes both tables from those sources.

pub struct NetRef {
    pub net: &'static str,
    pub markings: &'static str,
    pub deadlocks: &'static str,
    pub source: &'static str,
}

pub struct SatRef {
    pub net: &'static str,
    pub property: &'static str,
    pub sat: &'static str,
    pub source: &'static str,
}

/// The figures that are wrong at the commit that added this benchmark, as
/// `<workload> <op> <figure>`: `markings` and `deadlocks` for a `reach`
/// op; `reached` and one entry per suite property for a `ctl` op. All come
/// from one defect, [`KNOWN_CAUSE`]; the dense and ZDD engines are right
/// on every net. An op with a wrong figure is still a failed op, counted in
/// `failed` and named on a `FAILED` line; it leaves `correct` true only
/// when every wrong figure of the op is listed here. Any other wrong
/// figure, and any other failure (a wrong verdict included), makes
/// `correct` false; a figure that becomes right needs no change here.
pub static KNOWN_WRONG_COUNTS: &[&str] = &[
    "reach a/sparse/muller-30 markings",
    "reach a/sparse/muller-40 markings",
    "reach a/sparse/muller-50 markings",
    "reach a/sparse/phil-8 markings",
    "reach a/sparse/phil-8 deadlocks",
    "reach a/sparse/phil-10 markings",
    "reach a/sparse/phil-10 deadlocks",
    "reach a/sparse/dme-spec-9 markings",
    "reach a/sparse/dme-cir-5 markings",
    "reach a/sparse/dme-cir-7 markings",
    "reach b/sparse/dme-cir-5 markings",
    "reach c/sparse/dme-cir-5 markings",
    "ctl sparse/dme-cir-5 reached",
    "ctl sparse/dme-cir-5 mutex",
    "ctl sparse/dme-cir-5 cell1-access",
    "ctl sparse/dme-cir-5 deadlock-free",
    "ctl sparse/dme-cir-5 no-fairness",
    "ctl sparse/dme-cir-5 held-in-critical",
    "ctl sparse/dme-cir-5 overtaking",
    "ctl sparse/dme-spec-8 no-fairness",
    "ctl sparse/dme-spec-8 overtaking",
];

pub const KNOWN_CAUSE: &str = "f64 cancellation in the complement branch of sat_count \
     (crates/bdd/src/analysis.rs) on large sparse encodings, ROADMAP item 4(d)";

/// Whether figure `figure` of op `op` (as `<workload> <op>`) is a listed
/// known defect.
pub fn known_wrong_count(op: &str, figure: &str) -> bool {
    KNOWN_WRONG_COUNTS.contains(&format!("{op} {figure}").as_str())
}

pub fn net(name: &str) -> Option<&'static NetRef> {
    NETS.iter().find(|r| r.net == name)
}

pub fn sat(net: &str, property: &str) -> Option<&'static SatRef> {
    SATS.iter().find(|r| r.net == net && r.property == property)
}

macro_rules! nets {
    ($($net:literal $m:literal $d:literal $src:literal;)*) => {
        &[$(NetRef { net: $net, markings: $m, deadlocks: $d, source: $src }),*]
    };
}

macro_rules! sats {
    ($($net:literal $p:literal $s:literal $src:literal;)*) => {
        &[$(SatRef { net: $net, property: $p, sat: $s, source: $src }),*]
    };
}

pub static NETS: &[NetRef] = nets! {
    "muller-30" "1152921504606846976" "0" "closed form";
    "muller-40" "1208925819614629174706176" "0" "closed form";
    "muller-50" "1267650600228229401496703205376" "0" "closed form";
    "phil-5" "2164" "2" "explicit";
    "phil-8" "216994" "2" "explicit";
    "phil-10" "4683382" "2" "explicit";
    "slot-5" "1022" "1" "explicit";
    "slot-7" "16382" "1" "explicit";
    "slot-9" "262142" "1" "explicit";
    "dme-spec-8" "87480" "0" "explicit";
    "dme-spec-9" "295245" "0" "explicit";
    "dme-cir-5" "2835" "0" "explicit";
    "dme-cir-7" "35721" "0" "explicit";
    "jjreg-a" "32768" "0" "explicit";
    "jjreg-b" "768" "0" "explicit";
    "muller-8" "65536" "0" "explicit";
    "muller-12" "16777216" "0" "closed form";
    "muller-16" "4294967296" "0" "closed form";
    "phil-3" "100" "2" "explicit";
    "phil-4" "466" "2" "explicit";
    "slot-3" "62" "1" "explicit";
    "slot-4" "254" "1" "explicit";
    "dme-spec-6" "7290" "0" "explicit";
    "dme-cir-4" "756" "0" "explicit";
    "figure1" "8" "0" "explicit";
    "phil-6" "10054" "2" "explicit";
    "phil-7" "46708" "2" "explicit";
    "dme-spec-4" "540" "0" "explicit";
    "dme-cir-3" "189" "0" "explicit";
    "muller-6" "4096" "0" "explicit";
    "dme-spec-3" "135" "0" "explicit";
};

pub static SATS: &[SatRef] = sats! {
    "figure1" "m7-reachable" "8" "explicit";
    "figure1" "smc-exclusion" "8" "explicit";
    "figure1" "deadlock-free" "8" "explicit";
    "figure1" "home-marking" "8" "explicit";
    "figure1" "choice-fated" "8" "explicit";
    "figure1" "left-first" "6" "explicit";
    "phil-4" "can-eat" "464" "explicit";
    "phil-4" "adjacent-exclusion" "466" "explicit";
    "phil-4" "deadlock-reachable" "466" "explicit";
    "phil-4" "eating-not-fated" "58" "explicit";
    "phil-4" "first-eater" "318" "explicit";
    "phil-4" "fork-taken" "466" "explicit";
    "phil-5" "can-eat" "2162" "explicit";
    "phil-5" "adjacent-exclusion" "2164" "explicit";
    "phil-5" "deadlock-reachable" "2164" "explicit";
    "phil-5" "eating-not-fated" "202" "explicit";
    "phil-5" "first-eater" "1488" "explicit";
    "phil-5" "fork-taken" "2164" "explicit";
    "phil-6" "can-eat" "10052" "explicit";
    "phil-6" "adjacent-exclusion" "10054" "explicit";
    "phil-6" "deadlock-reachable" "10054" "explicit";
    "phil-6" "eating-not-fated" "850" "explicit";
    "phil-6" "first-eater" "6924" "explicit";
    "phil-6" "fork-taken" "10054" "explicit";
    "phil-7" "can-eat" "46706" "explicit";
    "phil-7" "adjacent-exclusion" "46708" "explicit";
    "phil-7" "deadlock-reachable" "46708" "explicit";
    "phil-7" "eating-not-fated" "3838" "explicit";
    "phil-7" "first-eater" "32178" "explicit";
    "phil-7" "fork-taken" "46708" "explicit";
    "muller-8" "deadlock-free" "65536" "explicit";
    "muller-8" "stage0-fated" "65536" "explicit";
    "muller-8" "pipeline-fills" "65536" "explicit";
    "muller-8" "handshake-phase" "65536" "explicit";
    "muller-8" "in-order" "40960" "explicit";
    "muller-12" "deadlock-free" "16777216" "dense";
    "muller-12" "stage0-fated" "16777216" "dense";
    "muller-12" "pipeline-fills" "16777216" "dense";
    "muller-12" "handshake-phase" "16777216" "dense";
    "muller-12" "in-order" "10485760" "dense";
    "slot-5" "deadlock-reachable" "1022" "explicit";
    "slot-5" "slot-recovery" "0" "explicit";
    "slot-5" "slot-phase" "1022" "explicit";
    "slot-5" "node-phase" "1022" "explicit";
    "slot-5" "no-silent-delivery" "255" "explicit";
    "slot-5" "can-send" "1022" "explicit";
    "slot-7" "deadlock-reachable" "16382" "explicit";
    "slot-7" "slot-recovery" "0" "explicit";
    "slot-7" "slot-phase" "16382" "explicit";
    "slot-7" "node-phase" "16382" "explicit";
    "slot-7" "no-silent-delivery" "4095" "explicit";
    "slot-7" "can-send" "16382" "explicit";
    "slot-9" "deadlock-reachable" "262142" "explicit";
    "slot-9" "slot-recovery" "0" "explicit";
    "slot-9" "slot-phase" "262142" "explicit";
    "slot-9" "node-phase" "262142" "explicit";
    "slot-9" "no-silent-delivery" "65535" "explicit";
    "slot-9" "can-send" "262142" "explicit";
    "dme-spec-6" "mutex" "7290" "explicit";
    "dme-spec-6" "cell1-access" "7290" "explicit";
    "dme-spec-6" "deadlock-free" "7290" "explicit";
    "dme-spec-6" "no-fairness" "486" "explicit";
    "dme-spec-6" "held-in-critical" "7290" "explicit";
    "dme-spec-6" "overtaking" "6804" "explicit";
    "dme-spec-8" "mutex" "87480" "explicit";
    "dme-spec-8" "cell1-access" "87480" "explicit";
    "dme-spec-8" "deadlock-free" "87480" "explicit";
    "dme-spec-8" "no-fairness" "4374" "explicit";
    "dme-spec-8" "held-in-critical" "87480" "explicit";
    "dme-spec-8" "overtaking" "83106" "explicit";
    "dme-cir-4" "mutex" "756" "explicit";
    "dme-cir-4" "cell1-access" "756" "explicit";
    "dme-cir-4" "deadlock-free" "756" "explicit";
    "dme-cir-4" "no-fairness" "54" "explicit";
    "dme-cir-4" "held-in-critical" "756" "explicit";
    "dme-cir-4" "overtaking" "702" "explicit";
    "dme-cir-5" "mutex" "2835" "explicit";
    "dme-cir-5" "cell1-access" "2835" "explicit";
    "dme-cir-5" "deadlock-free" "2835" "explicit";
    "dme-cir-5" "no-fairness" "162" "explicit";
    "dme-cir-5" "held-in-critical" "2835" "explicit";
    "dme-cir-5" "overtaking" "2673" "explicit";
    "dme-spec-4" "mutex" "540" "explicit";
    "dme-spec-4" "cell1-access" "540" "explicit";
    "dme-spec-4" "deadlock-free" "540" "explicit";
    "dme-spec-4" "no-fairness" "54" "explicit";
    "dme-spec-4" "held-in-critical" "540" "explicit";
    "dme-spec-4" "overtaking" "486" "explicit";
    "dme-cir-3" "mutex" "189" "explicit";
    "dme-cir-3" "cell1-access" "189" "explicit";
    "dme-cir-3" "deadlock-free" "189" "explicit";
    "dme-cir-3" "no-fairness" "18" "explicit";
    "dme-cir-3" "held-in-critical" "189" "explicit";
    "dme-cir-3" "overtaking" "171" "explicit";
    "slot-4" "deadlock-reachable" "254" "explicit";
    "slot-4" "slot-recovery" "0" "explicit";
    "slot-4" "slot-phase" "254" "explicit";
    "slot-4" "node-phase" "254" "explicit";
    "slot-4" "no-silent-delivery" "63" "explicit";
    "slot-4" "can-send" "254" "explicit";
    "muller-6" "deadlock-free" "4096" "explicit";
    "muller-6" "stage0-fated" "4096" "explicit";
    "muller-6" "pipeline-fills" "4096" "explicit";
    "muller-6" "handshake-phase" "4096" "explicit";
    "muller-6" "in-order" "2560" "explicit";
    "dme-spec-3" "mutex" "135" "explicit";
    "dme-spec-3" "cell1-access" "135" "explicit";
    "dme-spec-3" "deadlock-free" "135" "explicit";
    "dme-spec-3" "no-fairness" "18" "explicit";
    "dme-spec-3" "held-in-critical" "135" "explicit";
    "dme-spec-3" "overtaking" "117" "explicit";
};

/// Recomputes the tables from their sources and prints them as the
/// macro bodies above.
pub fn print_reference() {
    use pnsym_core::{
        analyze, analyze_zdd_with, AnalysisOptions, ExplicitChecker, FixpointStrategy, Property,
        TraversalOptions,
    };
    use pnsym_net::nets::property_suite;
    use pnsym_net::ExploreOptions;

    let mut names: Vec<String> = Vec::new();
    let mut add = |n: &str| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    for op in crate::reach::build_ops(false) {
        add(op.net.name());
    }
    for op in crate::reach::build_ops(true) {
        add(op.net.name());
    }
    for spec in crate::ctl::NETS.iter().chain(crate::serve::SPECS) {
        add(spec);
    }
    let limit = ExploreOptions {
        max_markings: 5_000_000,
    };
    let dense = AnalysisOptions::dense().with_strategy(FixpointStrategy::Saturation);
    println!("// nets");
    for name in &names {
        let net = pnsym_bench::net_by_spec(name).expect("bundled spec");
        let bdd = analyze(&net, &dense).expect("structural phase succeeds");
        let zdd = analyze_zdd_with(&net, FixpointStrategy::Saturation);
        let (markings, deadlocks, source) = match net.explore_with(limit) {
            Ok(rg) => (
                rg.num_markings() as u128,
                rg.deadlocks(&net).len() as u128,
                "explicit",
            ),
            Err(_) => match closed_form(name) {
                Some((m, d)) => (m, d, "closed form"),
                None => {
                    assert_eq!(
                        zdd.num_markings, bdd.num_markings,
                        "{name}: engines disagree"
                    );
                    (
                        bdd.num_markings as u128,
                        bdd.num_deadlocks as u128,
                        "zdd = dense",
                    )
                }
            },
        };
        if markings as f64 != bdd.num_markings
            || markings as f64 != zdd.num_markings
            || deadlocks as f64 != bdd.num_deadlocks
        {
            eprintln!(
                "warning: {name}: reference {markings}/{deadlocks} vs dense {}/{} and zdd {}",
                bdd.num_markings, bdd.num_deadlocks, zdd.num_markings
            );
        }
        println!("    \"{name}\" \"{markings}\" \"{deadlocks}\" \"{source}\";");
    }
    println!("// sats");
    let mut specs: Vec<&str> = crate::ctl::NETS.to_vec();
    specs.extend(
        crate::serve::SPECS
            .iter()
            .filter(|s| !crate::ctl::NETS.contains(s)),
    );
    for spec in specs {
        let net = pnsym_bench::net_by_spec(spec).expect("bundled spec");
        let suite = property_suite(&net);
        let explicit = net.explore_with(limit).ok();
        let mut ctx = pnsym_core::server::build_context(&net);
        let options = TraversalOptions::with_strategy(FixpointStrategy::Saturation);
        let run = ctx.reachable_markings_with(options);
        for p in &suite {
            let property = Property::parse(&p.formula, &net).expect("suite formula parses");
            let (sat, source) = match &explicit {
                Some(rg) => {
                    let checker = ExplicitChecker::new(&net, rg);
                    let n = checker.sat(&property).iter().filter(|&&b| b).count();
                    (n as u128, "explicit")
                }
                None => {
                    let report = ctx.check_portfolio_on(&[property], &run, options);
                    (report.reports[0].sat_markings as u128, "dense")
                }
            };
            println!(
                "    \"{}\" \"{}\" \"{sat}\" \"{source}\";",
                net.name(),
                p.name
            );
        }
    }
}

/// The closed-form counts of the families that have one.
fn closed_form(name: &str) -> Option<(u128, u128)> {
    let size = |prefix: &str| name.strip_prefix(prefix)?.parse::<u32>().ok();
    if let Some(n) = size("muller-") {
        return Some((4u128.pow(n), 0));
    }
    if let Some(n) = size("slot-") {
        return Some((4u128.pow(n) - 2, 1));
    }
    if let Some(n) = size("dme-spec-") {
        return Some((5 * u128::from(n) * 3u128.pow(n - 1), 0));
    }
    None
}
