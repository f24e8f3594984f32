//! Differential pinning of the complement-edge BDD kernel.
//!
//! Random nets are analysed by three independent engines — the
//! complement-edge BDD kernel, the ZDD backend (which uses no complement
//! attributes), and the explicit-state oracle — and the results are
//! compared while the BDD run is stressed with tiny GC thresholds,
//! mid-fixpoint sifting (periodic and adaptive) and typed budget
//! interrupts. A CTL workload additionally pins the headline property of
//! the representation: negation is a bit flip, so the `not` operation
//! generates no computed-cache traffic at all.

use pnsym_core::{
    Encoding, FixpointStrategy, Property, SiftPolicy, SymbolicContext, TraversalOptions, ZddContext,
};
use pnsym_net::nets::{philosophers, property_suite, random_composed, RandomNetConfig};
use pnsym_net::PetriNet;
use pnsym_structural::find_smcs;
use proptest::prelude::*;

fn context(net: &PetriNet) -> SymbolicContext {
    match find_smcs(net) {
        Ok(smcs) => SymbolicContext::new(
            net,
            Encoding::improved(net, &smcs, pnsym_core::AssignmentStrategy::Gray),
        ),
        Err(_) => SymbolicContext::new(net, Encoding::sparse(net)),
    }
}

/// The stress profiles the BDD arm cycles through: every maintenance
/// mechanism that rewrites the arena mid-fixpoint.
fn stress_options(choice: u8, strategy: FixpointStrategy) -> TraversalOptions {
    let mut options = TraversalOptions::with_strategy(strategy);
    match choice % 4 {
        1 => options.gc_threshold = 32,
        2 => options.sift = SiftPolicy::EveryIterations(2),
        3 => {
            options.gc_threshold = 64;
            options.sift = SiftPolicy::AdaptiveGrowth { percent: 150 };
        }
        _ => {}
    }
    options
}

fn arb_config() -> impl Strategy<Value = RandomNetConfig> {
    (1usize..4, 2usize..4, 0usize..4).prop_map(|(components, min_places, synchronisations)| {
        RandomNetConfig {
            components,
            min_places,
            max_places: min_places + 2,
            synchronisations,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The complemented kernel, the ZDD backend and the explicit oracle
    /// agree on every random net, under every strategy, while GC and
    /// sifting rewrite the arena between passes.
    #[test]
    fn engines_agree_on_random_nets_under_maintenance_stress(
        config in arb_config(),
        seed in 0u64..1000,
        stress in 0u8..4,
    ) {
        let net = random_composed(config, seed);
        let explicit = net.explore().expect("random nets are small");
        let expected_markings = explicit.num_markings() as f64;
        let expected_deadlocks = explicit.deadlocks(&net).len() as f64;

        for strategy in [
            FixpointStrategy::Bfs { use_frontier: true },
            FixpointStrategy::Saturation,
        ] {
            let mut ctx = context(&net);
            let run = ctx.reachable_markings_with(stress_options(stress, strategy));
            prop_assert!(run.truncated.is_none(), "{strategy} truncated");
            prop_assert_eq!(run.num_markings, expected_markings, "{} markings", strategy);
            let dead = ctx.deadlocks_in(run.reached);
            prop_assert_eq!(ctx.count_markings(dead), expected_deadlocks, "{} deadlocks", strategy);
            prop_assert!(ctx.manager().check_invariants().is_ok());

            // The ZDD backend shares the fixpoint driver but none of the
            // node representation: same fixpoint, op for op.
            let mut zdd = ZddContext::new(&net);
            let zrun = zdd.reachable_markings_with(strategy);
            prop_assert!(zrun.truncated.is_none());
            prop_assert_eq!(zrun.num_markings, expected_markings, "{} zdd markings", strategy);
            if matches!(strategy, FixpointStrategy::Bfs { .. }) {
                // Breadth-first steps count the state-space depth, which
                // no representation choice may change. (Saturation sweep
                // counts depend on the cluster granularity, which
                // legitimately differs between the two backends.)
                prop_assert_eq!(zrun.iterations, run.iterations, "{} iterations", strategy);
            }
        }
    }

    /// A typed budget interrupt mid-fixpoint unwinds with every protection
    /// balanced: the truncated result carries exactly one extra protected
    /// root, the arena stays canonical, and an ungoverned re-run on the
    /// same manager still reaches the oracle's fixpoint.
    #[test]
    fn budget_interrupts_unwind_with_balanced_protections(
        config in arb_config(),
        seed in 0u64..1000,
        steps in 1u64..200,
    ) {
        let net = random_composed(config, seed);
        let explicit = net.explore().expect("random nets are small");
        let expected = explicit.num_markings() as f64;

        let mut ctx = context(&net);
        // Force the lazily built image plan first: constructing it protects
        // the cluster relations, which would otherwise pollute the baseline.
        let warmup = ctx.reachable_markings_with(TraversalOptions::default());
        ctx.manager_mut().unprotect(warmup.reached);
        let before = ctx.manager().protected_root_count();
        let governed = TraversalOptions {
            step_budget: Some(steps),
            gc_threshold: 64,
            sift: SiftPolicy::EveryIterations(2),
            ..TraversalOptions::default()
        };
        let run = ctx.reachable_markings_with(governed);
        // Whether or not the tiny budget tripped, the reached set carries
        // exactly one protection and the arena is canonical.
        prop_assert_eq!(ctx.manager().protected_root_count(), before + 1);
        prop_assert!(ctx.manager().check_invariants().is_ok());
        prop_assert!(run.num_markings <= expected, "truncation under-approximates");

        // The typed unwind leaves the manager fully operational: the
        // ungoverned re-run completes and agrees with the oracle.
        ctx.manager_mut().unprotect(run.reached);
        let rerun = ctx.reachable_markings_with(TraversalOptions::default());
        prop_assert!(rerun.truncated.is_none());
        prop_assert_eq!(rerun.num_markings, expected);
        prop_assert_eq!(ctx.manager().protected_root_count(), before + 1);
    }
}

/// Negation is a complement-bit flip: after an entire CTL suite — EF/AF/
/// AG/EG nesting, fixpoints, witness extraction — negating every
/// satisfaction set touches neither the computed cache nor the arena, and
/// the per-operation counters have no `not` or `or` slot to report.
#[test]
fn ctl_workload_generates_no_not_cache_traffic() {
    let net = philosophers(3);
    let suite = property_suite(&net);
    assert!(!suite.is_empty(), "bundled suite exists");
    let mut ctx = context(&net);
    let reached = ctx.reachable_markings().reached;
    let mut sat_sets = vec![reached];
    for spec in &suite {
        let prop = Property::parse(&spec.formula, &net).expect("bundled formulas parse");
        let report = ctx.check_property_with(&prop, TraversalOptions::default());
        assert!(report.truncated.is_none());
        if let Some(expect) = spec.expect {
            assert_eq!(report.holds, expect, "`{}`", spec.formula);
        }
        sat_sets.push(ctx.sat_set(&prop, reached));
    }
    let before = ctx.stats();
    assert!(
        before.cache_hits + before.cache_misses > 0,
        "the workload ran"
    );
    for &set in &sat_sets {
        let negated = ctx.manager_mut().not(set);
        assert_eq!(ctx.manager_mut().not(negated), set);
    }
    let after = ctx.stats();
    assert_eq!(
        (after.cache_hits, after.cache_misses, after.live_nodes),
        (before.cache_hits, before.cache_misses, before.live_nodes),
        "negation must be free under complement edges"
    );
    let names: Vec<&str> = after.per_op().iter().map(|(name, _)| *name).collect();
    assert_eq!(names, ["and", "exists", "and_exists"]);
}
