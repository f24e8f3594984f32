//! Precomputed image plans: the per-transition BDD artefacts of the
//! efficient image computation (Sections 5.2–5.3) built **once** per
//! context instead of once per call of every traversal iteration.
//!
//! Under every encoding of this crate a transition drives the variables it
//! writes to constants (eq. 6), so its image is
//! `(∃W_t. S ∧ E_t) ∧ T_t` where `W_t` is the written-variable set and
//! `T_t` the cube of target constants. The naive engine rebuilt `W_t` and
//! `T_t` on every call; the [`ImagePlan`] precomputes the enabling function,
//! the quantification cube and the target cube per transition, protects
//! them across garbage collection, and groups transitions whose written
//! sets coincide into [`ImageCluster`]s so the shared quantification cube
//! is built (and its variables quantified) once per cluster.
//!
//! The plan also carries the *static structural order*: a transition
//! ordering derived from the net structure (breadth-first distance of each
//! transition's pre-set from the initially marked places) that approximates
//! the firing order. The saturation strategy fires the clusters of each
//! level in this order, so a sweep propagates tokens along the net's flow.

use crate::context::SymbolicContext;
use pnsym_bdd::{Ref, VarId};
use pnsym_net::{PetriNet, TransitionId};
use std::collections::HashMap;

/// One transition's precomputed image artefacts inside a cluster.
#[derive(Debug, Clone, Copy)]
pub struct PlannedTransition {
    /// The transition.
    pub transition: TransitionId,
    /// Its enabling function `E_t` (eq. 5), over the current variables.
    pub enabling: Ref,
    /// The cube of target constants `T_t` (eq. 6), over the current
    /// variables the transition writes.
    pub target: Ref,
}

/// A group of transitions writing exactly the same set of state variables.
///
/// Members share one positive quantification cube over the written
/// variables, so the cube is built once and the shared variables are
/// quantified out of `S ∧ E_t` through a single cube walk per member.
#[derive(Debug, Clone)]
pub struct ImageCluster {
    /// The written state-variable indices, sorted ascending.
    pub var_indices: Vec<usize>,
    /// Positive cube over the written *current* BDD variables, used as the
    /// quantification set of the relational product.
    pub quant_cube: Ref,
    /// The member transitions, in ascending transition order.
    pub members: Vec<PlannedTransition>,
    /// Structural rank of the cluster: the minimum breadth-first distance
    /// of any member's pre-set from the initially marked places. Clusters
    /// are fired in ascending rank within a saturation level.
    pub rank: usize,
}

/// The per-context image plan: clusters of precomputed transition
/// artefacts plus the static structural order.
///
/// Built once by [`SymbolicContext::image_plan`]; every [`Ref`] it holds is
/// protected in the context's manager, so the plan survives garbage
/// collection and dynamic reordering for the lifetime of the context.
#[derive(Debug, Clone)]
pub struct ImagePlan {
    clusters: Vec<ImageCluster>,
    /// Cluster indices sorted by structural rank.
    structural_order: Vec<usize>,
    /// `location_of[t] = (cluster, member)` for every transition `t`.
    location_of: Vec<(usize, usize)>,
    /// Per-cluster place bitsets (one `u64` word per 64 places): the union
    /// of the members' pre-sets and post-sets, backing the O(words)
    /// [`ImagePlan::cluster_feeds`] test of the saturation scheduler.
    pre_places: Vec<Vec<u64>>,
    post_places: Vec<Vec<u64>>,
}

impl ImagePlan {
    /// Builds the plan for `ctx`: one cluster per distinct written-variable
    /// set, with enabling functions, quantification cubes and target cubes
    /// precomputed and protected in the context's manager.
    pub(crate) fn build(ctx: &mut SymbolicContext) -> ImagePlan {
        let num_transitions = ctx.net().num_transitions();
        let ranks = structural_transition_ranks(ctx.net());

        // Group transitions by their written-variable set.
        let mut groups: HashMap<Vec<usize>, Vec<TransitionId>> = HashMap::new();
        for ti in 0..num_transitions {
            let t = TransitionId(ti as u32);
            let written: Vec<usize> = ctx
                .transition_effect(t)
                .assignments
                .iter()
                .map(|&(i, _)| i)
                .collect();
            groups.entry(written).or_default().push(t);
        }
        let mut keyed: Vec<(Vec<usize>, Vec<TransitionId>)> = groups.into_iter().collect();
        // Deterministic cluster order: by first member transition.
        keyed.sort_by_key(|(_, ts)| ts.iter().map(|t| t.index()).min());

        let mut clusters = Vec::with_capacity(keyed.len());
        let mut location_of = vec![(0usize, 0usize); num_transitions];
        for (var_indices, transitions) in keyed {
            let quant_vars: Vec<VarId> =
                var_indices.iter().map(|&i| ctx.current_vars()[i]).collect();
            let quant_cube = {
                let m = ctx.manager_mut();
                let cube = m.var_cube(&quant_vars);
                m.protect(cube);
                cube
            };
            let mut members = Vec::with_capacity(transitions.len());
            let mut rank = usize::MAX;
            for t in transitions {
                let enabling = ctx.enabling_fn(t);
                let lits: Vec<(VarId, bool)> = ctx
                    .transition_effect(t)
                    .assignments
                    .iter()
                    .map(|&(i, value)| (ctx.current_vars()[i], value))
                    .collect();
                let target = {
                    let m = ctx.manager_mut();
                    let cube = m.cube(&lits);
                    m.protect(cube);
                    cube
                };
                rank = rank.min(ranks[t.index()]);
                location_of[t.index()] = (clusters.len(), members.len());
                members.push(PlannedTransition {
                    transition: t,
                    enabling,
                    target,
                });
            }
            clusters.push(ImageCluster {
                var_indices,
                quant_cube,
                members,
                rank,
            });
        }

        let mut structural_order: Vec<usize> = (0..clusters.len()).collect();
        structural_order.sort_by_key(|&c| (clusters[c].rank, c));

        let words = ctx.net().num_places().div_ceil(64);
        let mut pre_places = vec![vec![0u64; words]; clusters.len()];
        let mut post_places = vec![vec![0u64; words]; clusters.len()];
        for (ci, cluster) in clusters.iter().enumerate() {
            for member in &cluster.members {
                for p in ctx.net().pre_set(member.transition) {
                    pre_places[ci][p.index() / 64] |= 1 << (p.index() % 64);
                }
                for p in ctx.net().post_set(member.transition) {
                    post_places[ci][p.index() / 64] |= 1 << (p.index() % 64);
                }
            }
        }

        ImagePlan {
            clusters,
            structural_order,
            location_of,
            pre_places,
            post_places,
        }
    }

    /// The clusters, in ascending first-member transition order.
    pub fn clusters(&self) -> &[ImageCluster] {
        &self.clusters
    }

    /// Number of clusters (distinct written-variable sets).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster indices in the static structural order (ascending
    /// structural rank; see [`ImageCluster::rank`]).
    pub fn structural_order(&self) -> &[usize] {
        &self.structural_order
    }

    /// The `(cluster, member)` location of transition `t` in the plan.
    pub fn location_of(&self, t: TransitionId) -> (usize, usize) {
        self.location_of[t.index()]
    }

    /// The planned artefacts of transition `t`.
    pub fn planned(&self, t: TransitionId) -> (&ImageCluster, &PlannedTransition) {
        let (c, m) = self.location_of(t);
        (&self.clusters[c], &self.clusters[c].members[m])
    }

    /// Whether firing a member of cluster `from` can newly enable a member
    /// of cluster `to` (structurally: `from`'s post-set intersects `to`'s
    /// pre-set). One word-AND pass over precomputed place bitsets; the
    /// saturation scheduler calls this O(clusters²) times per traversal.
    pub fn cluster_feeds(&self, from: usize, to: usize) -> bool {
        self.post_places[from]
            .iter()
            .zip(&self.pre_places[to])
            .any(|(&p, &q)| p & q != 0)
    }
}

/// Breadth-first rank of every transition: the minimum number of firings
/// before the transition can possibly become enabled, approximated on the
/// net structure (places reachable in `k` arcs from the initially marked
/// places get rank `k`; a transition's rank is the maximum rank over its
/// pre-set, so it sorts after the transitions that feed it).
///
/// Transitions whose pre-set is unreachable in the structural sense keep
/// rank `usize::MAX - 1` and sort last.
pub fn structural_transition_ranks(net: &PetriNet) -> Vec<usize> {
    let mut place_rank = vec![usize::MAX; net.num_places()];
    let mut queue = std::collections::VecDeque::new();
    for p in net.initial_marking().marked_places() {
        place_rank[p.index()] = 0;
        queue.push_back(p);
    }
    let mut transition_rank = vec![usize::MAX; net.num_transitions()];
    while let Some(p) = queue.pop_front() {
        for &t in net.place_post_set(p) {
            if transition_rank[t.index()] != usize::MAX {
                continue;
            }
            // Fireable-in-principle once every pre-place has been reached;
            // rank = max over the pre-set (the last token to arrive).
            let mut rank = 0usize;
            let mut ready = true;
            for &q in net.pre_set(t) {
                if place_rank[q.index()] == usize::MAX {
                    ready = false;
                    break;
                }
                rank = rank.max(place_rank[q.index()]);
            }
            if !ready {
                continue;
            }
            transition_rank[t.index()] = rank;
            for &q in net.post_set(t) {
                if place_rank[q.index()] == usize::MAX {
                    place_rank[q.index()] = rank + 1;
                    queue.push_back(q);
                }
            }
        }
    }
    // A transition can become ready only after one of its pre-places was
    // discovered; sweep until no rank changes (nets are small, and each
    // sweep discovers at least one transition, so this terminates quickly).
    loop {
        let mut changed = false;
        for t in net.transitions() {
            if transition_rank[t.index()] != usize::MAX {
                continue;
            }
            let mut rank = 0usize;
            let mut ready = true;
            for &q in net.pre_set(t) {
                if place_rank[q.index()] == usize::MAX {
                    ready = false;
                    break;
                }
                rank = rank.max(place_rank[q.index()]);
            }
            if !ready {
                continue;
            }
            transition_rank[t.index()] = rank;
            changed = true;
            for &q in net.post_set(t) {
                if place_rank[q.index()] == usize::MAX {
                    place_rank[q.index()] = rank + 1;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for r in &mut transition_rank {
        if *r == usize::MAX {
            *r = usize::MAX - 1;
        }
    }
    transition_rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use pnsym_net::nets::{figure1, muller, philosophers, slotted_ring};
    use pnsym_structural::find_smcs;

    #[test]
    fn every_transition_is_planned_exactly_once() {
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        for enc in [
            Encoding::sparse(&net),
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        ] {
            let mut ctx = SymbolicContext::new(&net, enc);
            let plan = ctx.image_plan();
            let total: usize = plan.clusters().iter().map(|c| c.members.len()).sum();
            assert_eq!(total, net.num_transitions());
            for t in net.transitions() {
                let (_, planned) = plan.planned(t);
                assert_eq!(planned.transition, t);
                assert_eq!(planned.enabling, ctx.enabling_fn(t));
            }
            assert_eq!(plan.structural_order().len(), plan.num_clusters());
        }
    }

    #[test]
    fn clusters_share_written_variable_sets() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let mut ctx = SymbolicContext::new(
            &net,
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        );
        let plan = ctx.image_plan();
        for cluster in plan.clusters() {
            for member in &cluster.members {
                let written: Vec<usize> = ctx
                    .transition_effect(member.transition)
                    .assignments
                    .iter()
                    .map(|&(i, _)| i)
                    .collect();
                assert_eq!(written, cluster.var_indices);
            }
        }
        // figure1 under the improved encoding has two SMC blocks, so the
        // transitions must collapse into fewer clusters than transitions.
        assert!(plan.num_clusters() < net.num_transitions());
    }

    #[test]
    fn structural_ranks_follow_the_flow() {
        let net = muller(4);
        let ranks = structural_transition_ranks(&net);
        assert!(ranks.iter().all(|&r| r < usize::MAX - 1));
        // At least one transition is immediately fireable-in-principle.
        assert!(ranks.contains(&0));
        // The order is non-trivial: not all ranks coincide.
        assert!(ranks.iter().any(|&r| r > 0));
    }

    #[test]
    fn structural_ranks_cover_cyclic_nets() {
        for net in [figure1(), slotted_ring(3), philosophers(3)] {
            let ranks = structural_transition_ranks(&net);
            assert!(
                ranks.iter().all(|&r| r < usize::MAX - 1),
                "{}: every transition of a live net gets a finite rank",
                net.name()
            );
        }
    }
}
