//! Pre-image plans: the backward view of the per-context
//! [`ImagePlan`].
//!
//! Under every encoding of this crate a transition drives the variables it
//! writes to constants (eq. 6), so its *pre-image* is
//! `E_t ∧ (∃W_t. S ∧ T_t)` where `E_t` is the enabling function, `W_t` the
//! written-variable set and `T_t` the cube of target constants — the same
//! three artefacts the forward image uses, composed in the opposite order
//! (constrain by the target cube, quantify the written variables, then
//! conjoin the enabling function). The [`PreImagePlan`] therefore builds no
//! artefacts of its own: it shares the forward plan's clusters (and their
//! GC protections) and adds only what differs between the directions.
//!
//! * A *backward* static order: clusters sorted by **descending**
//!   structural rank, so a backward pass pulls target sets against the
//!   net's flow, mirroring how the forward chained strategy pushes tokens
//!   along it.
//! * The *transposed* feeds relation ([`PreImagePlan::cluster_feeds`]) the
//!   backward saturation scheduler dirties clusters by.

use crate::plan::{ImageCluster, ImagePlan, PlannedTransition};
use pnsym_net::TransitionId;
use std::rc::Rc;

/// The per-context pre-image plan: the forward plan's clusters plus the
/// static backward order.
///
/// Built once by [`SymbolicContext::pre_image_plan`](crate::SymbolicContext::pre_image_plan)
/// over the memoized forward plan; every [`Ref`](pnsym_bdd::Ref) it exposes
/// is protected in the context's manager, so the plan survives garbage
/// collection and dynamic reordering for the lifetime of the context.
#[derive(Debug, Clone)]
pub struct PreImagePlan {
    forward: Rc<ImagePlan>,
    /// Cluster indices sorted by descending structural rank (the backward
    /// chaining order).
    backward_order: Vec<usize>,
}

impl PreImagePlan {
    /// The backward view of `forward`. Cluster indices are the forward
    /// plan's, so the two plans number their clusters identically.
    pub(crate) fn new(forward: Rc<ImagePlan>) -> PreImagePlan {
        let clusters = forward.clusters();
        let mut backward_order: Vec<usize> = (0..clusters.len()).collect();
        backward_order.sort_by_key(|&c| (usize::MAX - clusters[c].rank, c));
        PreImagePlan {
            forward,
            backward_order,
        }
    }

    /// The clusters (shared with the forward plan), in ascending
    /// first-member transition order.
    pub fn clusters(&self) -> &[ImageCluster] {
        self.forward.clusters()
    }

    /// Number of clusters (distinct written-variable sets).
    pub fn num_clusters(&self) -> usize {
        self.forward.num_clusters()
    }

    /// Cluster indices in the static backward order (descending structural
    /// rank; see [`ImageCluster::rank`]).
    pub fn backward_order(&self) -> &[usize] {
        &self.backward_order
    }

    /// The `(cluster, member)` location of transition `t` in the plan.
    pub fn location_of(&self, t: TransitionId) -> (usize, usize) {
        self.forward.location_of(t)
    }

    /// The planned artefacts of transition `t`.
    pub fn planned(&self, t: TransitionId) -> (&ImageCluster, &PlannedTransition) {
        self.forward.planned(t)
    }

    /// Whether a productive backward step of cluster `from` can make a
    /// pre-image of cluster `to` newly productive: the transpose of
    /// [`ImagePlan::cluster_feeds`] (some member of `to` produces into the
    /// pre-set of a member of `from`). States added by `from` enable a
    /// member of `from`, so only transitions producing into that pre-set
    /// lead into them without commuting past `from`.
    pub fn cluster_feeds(&self, from: usize, to: usize) -> bool {
        self.forward.cluster_feeds(to, from)
    }
}

#[cfg(test)]
mod tests {
    use crate::context::SymbolicContext;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use pnsym_net::nets::{figure1, philosophers};
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
            let plan = ctx.pre_image_plan();
            let total: usize = plan.clusters().iter().map(|c| c.members.len()).sum();
            assert_eq!(total, net.num_transitions());
            for t in net.transitions() {
                let (_, planned) = plan.planned(t);
                assert_eq!(planned.transition, t);
                assert_eq!(planned.enabling, ctx.enabling_fn(t));
            }
            let mut order = plan.backward_order().to_vec();
            order.sort_unstable();
            assert_eq!(order, (0..plan.num_clusters()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn backward_plan_mirrors_the_forward_plan() {
        // The backward plan is a view: it shares the forward clusters
        // (enabling functions, target cubes, quantification cubes and
        // written sets) instead of rebuilding them; what differs is the
        // static cluster order, reversed by rank, and the feeds relation,
        // transposed.
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let mut ctx = SymbolicContext::new(
            &net,
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        );
        let forward = ctx.image_plan();
        let backward = ctx.pre_image_plan();
        assert!(std::ptr::eq(forward.clusters(), backward.clusters()));
        for t in net.transitions() {
            assert_eq!(forward.location_of(t), backward.location_of(t));
        }
        for from in 0..forward.num_clusters() {
            for to in 0..forward.num_clusters() {
                assert_eq!(
                    backward.cluster_feeds(from, to),
                    forward.cluster_feeds(to, from)
                );
            }
        }
        // The backward order visits ranks in non-increasing order.
        let ranks: Vec<usize> = backward
            .backward_order()
            .iter()
            .map(|&c| backward.clusters()[c].rank)
            .collect();
        assert!(ranks.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn plan_survives_garbage_collection() {
        let net = philosophers(2);
        let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
        let plan = ctx.pre_image_plan();
        ctx.manager_mut().collect_garbage();
        // Every planned artefact must still be a live node after a GC with
        // no other roots.
        for cluster in plan.clusters() {
            assert!(ctx.manager().node_count(cluster.quant_cube) > 0);
            for member in &cluster.members {
                assert!(ctx.manager().node_count(member.target) > 0);
            }
        }
    }
}
