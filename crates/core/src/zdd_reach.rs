//! ZDD-based reachability with the sparse one-place-per-element
//! representation of Yoneda et al. (FMCAD 1996) — the baseline the dense
//! encoding is compared against in Table 4 of the paper.
//!
//! A marking is the set of its marked places; the reached state space is a
//! family of sets stored in a [`ZddManager`]. Firing a transition `t` on a
//! family `S` is the set-algebraic update
//! `change(t•, subset1(•t, S))`: keep the markings containing every input
//! place, strip the input places, then add the output places. Both the
//! forward and the backward update of every transition are registered
//! **once** as fused [`ZddUpdate`]s (the ZDD analogue of the BDD kernel's
//! fused relational product), so one firing is one cached diagram
//! traversal instead of one `subset1`/`subset0`/`change` pass per place
//! and no intermediate family is ever built.
//!
//! The engine runs on the same generic fixpoint driver as the BDD engine
//! (see [`crate::traverse`]), so it supports the same
//! [`FixpointStrategy`] selection — each transition forms its own cluster,
//! with its fused updates and its topmost touched level (for the
//! saturation strategy) precomputed once per context.

use crate::plan::structural_transition_ranks;
use crate::traverse::{run_fixpoint, FixpointKernel, FixpointStrategy};
use pnsym_bdd::{
    Budget, Interrupt, TruncationReason, ZddManager, ZddRef, ZddUpdate, ZddUpdateAction,
};
use pnsym_net::{PetriNet, TransitionId};
use std::time::{Duration, Instant};

/// The outcome of a ZDD-based reachability traversal.
#[derive(Debug, Clone, Copy)]
pub struct ZddReachabilityResult {
    /// The reached family of markings.
    pub reached: ZddRef,
    /// Number of reachable markings.
    pub num_markings: f64,
    /// Number of fixpoint iterations: breadth-first steps under
    /// [`FixpointStrategy::Bfs`], productive level sweeps under
    /// [`FixpointStrategy::Saturation`].
    pub iterations: usize,
    /// ZDD node count of the final reached family.
    pub zdd_nodes: usize,
    /// Total nodes allocated by the ZDD manager during the traversal.
    pub total_nodes: usize,
    /// Wall-clock time of the traversal.
    pub duration: Duration,
    /// Why the run stopped early, or `None` for a completed fixpoint. A
    /// truncated `reached` family is still a valid under-approximation of
    /// the reachable markings. Mirrors
    /// [`ReachabilityResult`](crate::ReachabilityResult).
    pub truncated: Option<TruncationReason>,
    /// The strategy that produced this result.
    pub strategy: FixpointStrategy,
}

/// One transition's precomputed set-algebraic updates: the fused forward
/// and backward firing, plus the topmost (smallest) place index it touches
/// for the saturation strategy's level bucketing.
#[derive(Debug, Clone, Copy)]
struct ZddTransitionOp {
    /// Forward firing: require and strip the pre-set, add the post-set.
    fwd: ZddUpdate,
    /// Backward firing: require and strip the post-set, restore the
    /// pre-set (filtering markings that still hold a consumed place).
    bwd: ZddUpdate,
    /// `min(pre ∪ post)`, the topmost level the transition rewrites.
    top: u32,
}

/// A ZDD-based symbolic engine over the sparse marking representation.
#[derive(Debug)]
pub struct ZddContext {
    net: PetriNet,
    manager: ZddManager,
    initial: ZddRef,
    /// Per-transition pre/post index lists, built once.
    ops: Vec<ZddTransitionOp>,
    /// Per-transition place bitsets (one `u64` word per 64 places),
    /// backing the O(words) feeds test of the saturation scheduler.
    pre_bits: Vec<Vec<u64>>,
    post_bits: Vec<Vec<u64>>,
    /// Transition indices sorted by structural rank (the firing order
    /// within a saturation level).
    structural_order: Vec<usize>,
}

impl ZddContext {
    /// Builds the ZDD context for a net: one ZDD element per place, with
    /// the per-transition fused updates (forward and backward) and the
    /// static structural firing order precomputed.
    pub fn new(net: &PetriNet) -> Self {
        let mut manager = ZddManager::new(net.num_places());
        let marked: Vec<usize> = net
            .initial_marking()
            .marked_places()
            .iter()
            .map(|p| p.index())
            .collect();
        let initial = manager.single_set(&marked);
        let ops = net
            .transitions()
            .map(|t| {
                let pre: Vec<usize> = net.pre_set(t).iter().map(|p| p.index()).collect();
                let post: Vec<usize> = net.post_set(t).iter().map(|p| p.index()).collect();
                // Forward: a self-loop place is required but kept, a plain
                // input is required and stripped, a plain output toggled in.
                let mut fwd: Vec<(usize, ZddUpdateAction)> = Vec::new();
                // Backward: the mirror image — strip the post-set, restore
                // the pre-set; a consumed place still present in the target
                // marking has no predecessor through this transition.
                let mut bwd: Vec<(usize, ZddUpdateAction)> = Vec::new();
                for &p in &pre {
                    if post.contains(&p) {
                        fwd.push((p, ZddUpdateAction::RequireKeep));
                        bwd.push((p, ZddUpdateAction::RequireKeep));
                    } else {
                        fwd.push((p, ZddUpdateAction::RequireRemove));
                        bwd.push((p, ZddUpdateAction::ForbidAdd));
                    }
                }
                for &p in &post {
                    if !pre.contains(&p) {
                        fwd.push((p, ZddUpdateAction::Toggle));
                        bwd.push((p, ZddUpdateAction::RequireRemove));
                    }
                }
                let top = pre
                    .iter()
                    .chain(&post)
                    .copied()
                    .min()
                    .map_or(u32::MAX, |p| p as u32);
                ZddTransitionOp {
                    fwd: manager.register_update(&fwd),
                    bwd: manager.register_update(&bwd),
                    top,
                }
            })
            .collect();
        let ranks = structural_transition_ranks(net);
        let mut structural_order: Vec<usize> = (0..net.num_transitions()).collect();
        structural_order.sort_by_key(|&t| (ranks[t], t));
        let words = net.num_places().div_ceil(64);
        let mut pre_bits = vec![vec![0u64; words]; net.num_transitions()];
        let mut post_bits = vec![vec![0u64; words]; net.num_transitions()];
        for t in net.transitions() {
            for p in net.pre_set(t) {
                pre_bits[t.index()][p.index() / 64] |= 1 << (p.index() % 64);
            }
            for p in net.post_set(t) {
                post_bits[t.index()][p.index() / 64] |= 1 << (p.index() % 64);
            }
        }
        ZddContext {
            net: net.clone(),
            manager,
            initial,
            ops,
            pre_bits,
            post_bits,
            structural_order,
        }
    }

    /// The analysed net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Shared access to the ZDD manager.
    pub fn manager(&self) -> &ZddManager {
        &self.manager
    }

    /// Mutable access to the ZDD manager.
    pub fn manager_mut(&mut self) -> &mut ZddManager {
        &mut self.manager
    }

    /// The initial marking as a one-element family.
    pub fn initial_family(&self) -> ZddRef {
        self.initial
    }

    /// The image of the family `from` under transition `t`: one fused
    /// cached traversal (no per-place passes, no intermediate families).
    pub fn image(&mut self, from: ZddRef, t: TransitionId) -> ZddRef {
        self.image_of(t.index(), from)
    }

    fn image_of(&mut self, ti: usize, from: ZddRef) -> ZddRef {
        self.manager.apply_update(from, self.ops[ti].fwd)
    }

    /// One full breadth-first step: the union of all single-transition
    /// images.
    pub fn image_all(&mut self, from: ZddRef) -> ZddRef {
        let mut acc = self.manager.empty();
        for ti in 0..self.ops.len() {
            let img = self.image_of(ti, from);
            acc = self.manager.union(acc, img);
        }
        acc
    }

    /// The pre-image of the family `target` under transition `t`: the
    /// markings that enable `t` and reach a marking of `target` by firing
    /// it — the backward mirror of [`ZddContext::image`], used by the CTL
    /// checker's cross-validation suites. Like the forward direction, one
    /// fused cached traversal through the precomputed backward update
    /// (which filters out target markings that still hold a consumed
    /// place, since those have no predecessor through `t`).
    pub fn pre_image(&mut self, target: ZddRef, t: TransitionId) -> ZddRef {
        self.pre_image_of(t.index(), target)
    }

    fn pre_image_of(&mut self, ti: usize, target: ZddRef) -> ZddRef {
        self.manager.apply_update(target, self.ops[ti].bwd)
    }

    /// The pre-image of `target` under all transitions (one backward step),
    /// folded straight over the precomputed per-transition backward
    /// updates — no temporary transition collection, mirroring the forward
    /// path.
    pub fn pre_image_all(&mut self, target: ZddRef) -> ZddRef {
        let mut acc = self.manager.empty();
        for ti in 0..self.ops.len() {
            let pre = self.pre_image_of(ti, target);
            acc = self.manager.union(acc, pre);
        }
        acc
    }

    /// Computes the set of reachable markings with the default
    /// breadth-first strategy.
    pub fn reachable_markings(&mut self) -> ZddReachabilityResult {
        self.reachable_markings_with(FixpointStrategy::default())
    }

    /// Computes the set of reachable markings under `strategy`, through the
    /// same generic fixpoint driver as the BDD engine.
    pub fn reachable_markings_with(&mut self, strategy: FixpointStrategy) -> ZddReachabilityResult {
        self.run_reachability(strategy, None)
    }

    /// Like [`ZddContext::reachable_markings_with`], but under a resource
    /// [`Budget`]: the budget is installed into the ZDD manager for the
    /// duration of the run and every cluster firing checks it
    /// cooperatively. On a breach the driver unwinds with the partial
    /// reached family and records the [`TruncationReason`].
    pub fn reachable_markings_governed(
        &mut self,
        strategy: FixpointStrategy,
        budget: Budget,
    ) -> ZddReachabilityResult {
        self.run_reachability(strategy, Some(budget))
    }

    fn run_reachability(
        &mut self,
        strategy: FixpointStrategy,
        budget: Option<Budget>,
    ) -> ZddReachabilityResult {
        let start = Instant::now();
        if let Some(budget) = budget {
            self.manager.install_budget(budget);
        }
        let mut kernel = ZddFixpointKernel { ctx: self };
        let run = run_fixpoint(&mut kernel, strategy, None);
        // Disarm the governor before computing stats, so the counting and
        // node-walking below run on an ungoverned manager even after a
        // breach.
        self.manager.take_budget();
        ZddReachabilityResult {
            reached: run.reached,
            num_markings: self.manager.count(run.reached),
            iterations: run.iterations,
            zdd_nodes: self.manager.node_count(run.reached),
            total_nodes: self.manager.total_nodes(),
            duration: start.elapsed(),
            truncated: run.truncated,
            strategy,
        }
    }
}

/// The ZDD backend of the generic driver: one cluster per transition, no
/// garbage collection (the ZDD manager never frees nodes), so the
/// protection and maintenance hooks stay no-ops.
struct ZddFixpointKernel<'a> {
    ctx: &'a mut ZddContext,
}

impl FixpointKernel for ZddFixpointKernel<'_> {
    type Set = ZddRef;

    fn empty(&self) -> ZddRef {
        self.ctx.manager.empty()
    }

    fn initial(&mut self) -> ZddRef {
        self.ctx.initial
    }

    fn num_clusters(&self) -> usize {
        self.ctx.ops.len()
    }

    fn cluster_sequence(&self) -> Vec<usize> {
        self.ctx.structural_order.clone()
    }

    fn cluster_top_level(&self, cluster: usize) -> u32 {
        self.ctx.ops[cluster].top
    }

    fn cluster_feeds(&self, from: usize, to: usize) -> bool {
        self.ctx.post_bits[from]
            .iter()
            .zip(&self.ctx.pre_bits[to])
            .any(|(&p, &q)| p & q != 0)
    }

    fn cluster_image(&mut self, cluster: usize, from: ZddRef) -> Result<ZddRef, Interrupt> {
        let update = self.ctx.ops[cluster].fwd;
        self.ctx.manager.try_apply_update(from, update)
    }

    fn union(&mut self, a: ZddRef, b: ZddRef) -> Result<ZddRef, Interrupt> {
        self.ctx.manager.try_union(a, b)
    }

    fn diff(&mut self, a: ZddRef, b: ZddRef) -> Result<ZddRef, Interrupt> {
        self.ctx.manager.try_diff(a, b)
    }

    fn checkpoint(&mut self) -> Result<(), Interrupt> {
        // Forced (non-amortized) check at pass boundaries: even a net
        // whose per-pass work never reaches the amortization interval
        // honors a wall-clock deadline between passes.
        self.ctx.manager.force_checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnsym_net::nets::{dme, figure1, muller, philosophers, slotted_ring, DmeStyle};

    #[test]
    fn zdd_counts_match_explicit_counts() {
        let nets = vec![
            figure1(),
            philosophers(2),
            philosophers(3),
            muller(4),
            slotted_ring(3),
            dme(3, DmeStyle::Spec),
        ];
        for net in nets {
            let expected = net.explore().unwrap().num_markings() as f64;
            let mut ctx = ZddContext::new(&net);
            let result = ctx.reachable_markings();
            assert_eq!(result.num_markings, expected, "{}", net.name());
            assert!(result.zdd_nodes > 0);
        }
    }

    #[test]
    fn zdd_strategies_agree_on_the_fixpoint() {
        for net in [figure1(), philosophers(3), slotted_ring(3)] {
            let expected = net.explore().unwrap().num_markings() as f64;
            for strategy in [
                FixpointStrategy::Bfs { use_frontier: true },
                FixpointStrategy::Bfs {
                    use_frontier: false,
                },
                FixpointStrategy::Saturation,
            ] {
                let mut ctx = ZddContext::new(&net);
                let result = ctx.reachable_markings_with(strategy);
                assert_eq!(
                    result.num_markings,
                    expected,
                    "{} under {}",
                    net.name(),
                    strategy
                );
                assert!(result.truncated.is_none());
            }
        }
    }

    #[test]
    fn every_reachable_marking_is_in_the_family() {
        let net = philosophers(2);
        let rg = net.explore().unwrap();
        let mut ctx = ZddContext::new(&net);
        let result = ctx.reachable_markings();
        for m in rg.markings() {
            let elements: Vec<usize> = m.marked_places().iter().map(|p| p.index()).collect();
            assert!(ctx.manager().contains(result.reached, &elements));
        }
    }

    #[test]
    fn single_transition_image_matches_firing() {
        let net = figure1();
        let mut ctx = ZddContext::new(&net);
        let init = ctx.initial_family();
        let t1 = net.transition_by_name("t1").unwrap();
        let img = ctx.image(init, t1);
        assert_eq!(ctx.manager().count(img), 1.0);
        let m1 = net.fire(net.initial_marking(), t1).unwrap();
        let elements: Vec<usize> = m1.marked_places().iter().map(|p| p.index()).collect();
        assert!(ctx.manager().contains(img, &elements));
        // A disabled transition yields the empty family.
        let t7 = net.transition_by_name("t7").unwrap();
        assert_eq!(ctx.image(init, t7), ctx.manager().empty());
    }

    #[test]
    fn pre_image_inverts_the_token_game() {
        // Firing is deterministic, so the pre-image of a single marking
        // under one transition is empty or a single marking that fires
        // back onto it; every explicit edge must be recovered.
        for net in [figure1(), philosophers(2), slotted_ring(2)] {
            let rg = net.explore().unwrap();
            let mut ctx = ZddContext::new(&net);
            for m in rg.markings() {
                let elements: Vec<usize> = m.marked_places().iter().map(|p| p.index()).collect();
                let family = ctx.manager_mut().single_set(&elements);
                for t in net.transitions() {
                    let pre = ctx.pre_image(family, t);
                    let count = ctx.manager().count(pre);
                    assert!(count <= 1.0, "{}: firing is deterministic", net.name());
                    for set in ctx.manager().sets(pre) {
                        let mut pred = pnsym_net::Marking::empty(net.num_places());
                        for e in set {
                            pred.set(pnsym_net::PlaceId(e as u32), true);
                        }
                        let fired = net.fire(&pred, t).expect("pre-image enables t");
                        assert_eq!(&fired, m, "{}: pre-image fires back", net.name());
                    }
                }
            }
            // Every explicit edge is recovered by the backward step.
            for &(from, t, to) in rg.edges() {
                let to_elements: Vec<usize> = rg
                    .marking(to)
                    .marked_places()
                    .iter()
                    .map(|p| p.index())
                    .collect();
                let family = ctx.manager_mut().single_set(&to_elements);
                let pre = ctx.pre_image(family, t);
                let from_elements: Vec<usize> = rg
                    .marking(from)
                    .marked_places()
                    .iter()
                    .map(|p| p.index())
                    .collect();
                assert!(
                    ctx.manager().contains(pre, &from_elements),
                    "{}: edge {}→{} via {} is in the pre-image",
                    net.name(),
                    from,
                    to,
                    net.transition_name(t)
                );
            }
        }
    }

    #[test]
    fn pre_image_filters_markings_without_predecessors() {
        // In figure1, t1 consumes p1 and produces p2, p3: a "target"
        // marking containing p1 alongside p2 and p3 cannot have been
        // produced by t1, so its pre-image must be empty.
        let net = figure1();
        let mut ctx = ZddContext::new(&net);
        let idx = |n: &str| net.place_by_name(n).unwrap().index();
        let t1 = net.transition_by_name("t1").unwrap();
        let bogus = ctx
            .manager_mut()
            .single_set(&[idx("p1"), idx("p2"), idx("p3")]);
        assert_eq!(ctx.pre_image(bogus, t1), ctx.manager().empty());
        let genuine = ctx.manager_mut().single_set(&[idx("p2"), idx("p3")]);
        let pre = ctx.pre_image(genuine, t1);
        assert!(ctx.manager().contains(pre, &[idx("p1")]));
    }

    #[test]
    fn pre_image_all_unions_per_transition_pre_images() {
        let net = philosophers(2);
        let mut ctx = ZddContext::new(&net);
        let reached = ctx.reachable_markings().reached;
        let full = ctx.pre_image_all(reached);
        let mut acc = ctx.manager_mut().empty();
        for t in net.transitions() {
            let pre = ctx.pre_image(reached, t);
            acc = ctx.manager_mut().union(acc, pre);
        }
        assert_eq!(full, acc);
        // Every live reachable marking is its own backward-step witness:
        // reached ∩ pre_image_all(reached) are exactly the non-deadlocks.
        let live = ctx.manager_mut().intersect(reached, full);
        let rg = net.explore().unwrap();
        let expected = (rg.num_markings() - rg.deadlocks(&net).len()) as f64;
        assert_eq!(ctx.manager().count(live), expected);
    }

    #[test]
    fn a_governed_zdd_run_truncates_with_a_typed_reason() {
        let net = philosophers(3);
        let expected = net.explore().unwrap().num_markings() as f64;
        let mut ctx = ZddContext::new(&net);
        let budget = Budget::new().with_step_ceiling(1);
        let result = ctx.reachable_markings_governed(FixpointStrategy::default(), budget);
        assert_eq!(result.truncated, Some(TruncationReason::StepBudget));
        assert!(
            result.num_markings <= expected,
            "a truncated family is an under-approximation"
        );
        // The budget was disarmed on return: the same context completes
        // an ungoverned re-run and reaches the full fixpoint.
        assert!(ctx.manager().budget().is_none());
        let full = ctx.reachable_markings();
        assert!(full.truncated.is_none());
        assert_eq!(full.num_markings, expected);
    }

    #[test]
    fn a_generous_zdd_budget_never_truncates() {
        let net = figure1();
        let expected = net.explore().unwrap().num_markings() as f64;
        let mut ctx = ZddContext::new(&net);
        let budget = Budget::new().with_step_ceiling(u64::MAX);
        let result = ctx.reachable_markings_governed(FixpointStrategy::default(), budget);
        assert!(result.truncated.is_none());
        assert_eq!(result.num_markings, expected);
    }

    #[test]
    fn self_loop_transitions_are_handled() {
        // ack.i in the slotted ring has free.i in both its pre- and post-set.
        let net = slotted_ring(2);
        let expected = net.explore().unwrap().num_markings() as f64;
        let mut ctx = ZddContext::new(&net);
        assert_eq!(ctx.reachable_markings().num_markings, expected);
    }
}
