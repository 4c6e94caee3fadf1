//! The symmetry plan of a topology (Observation 3 of §4.3).
//!
//! A topology's automorphism group acts on its decomposed PMC components;
//! components in the same orbit are isomorphic, so PMC only needs to solve
//! one *base* component per orbit and replicate the solution through the
//! isomorphisms. Within a base component, candidates come from a
//! round-based [`CandidateProvider`] instead of a full enumeration, so the
//! greedy never materializes the astronomically large original path set.
//!
//! [`DcnTopology::symmetry`](crate::DcnTopology::symmetry) describes the
//! orbits; the planner in `detector-system` (`ProbePlan`) solves each
//! base and replicates it, and large topologies boot that way.

use detector_core::pmc::CandidateProvider;
use detector_core::types::{LinkId, NodeId};

/// Maps a base-component node to a replica index (see
/// [`BaseComponent::replicate_node`]).
pub type ReplicateNodeFn = Box<dyn Fn(NodeId, u32) -> NodeId + Send + Sync>;

/// Maps a base-universe link to a replica index (see
/// [`BaseComponent::replicate_link`]).
pub type ReplicateLinkFn = Box<dyn Fn(LinkId, u32) -> LinkId + Send + Sync>;

/// One isomorphism class of components: a provider for the base component
/// plus the node and link maps that re-home base paths onto each replica.
pub struct BaseComponent {
    /// Candidate source for the base component.
    pub provider: Box<dyn CandidateProvider + Send>,
    /// Number of isomorphic components, including the base itself.
    pub replicas: u32,
    /// Maps a base-component path node to its image in replica `r`
    /// (`r = 0` must be the identity).
    pub replicate_node: ReplicateNodeFn,
    /// Maps a base-universe link to its image in replica `r` (`r = 0`
    /// must be the identity). Together with [`Self::replicate_node`] it
    /// re-homes a base path (`PathStore::extend_mapped`); the incremental
    /// planner also uses it to compute replica universes and to pull a
    /// replica's excluded links back into base coordinates for a
    /// per-replica re-solve.
    pub replicate_link: ReplicateLinkFn,
}

/// A topology's full symmetry plan.
pub struct SymmetryPlan {
    /// Size of the probe-link universe of the whole network.
    pub num_probe_links: usize,
    /// Base components covering, through their replicas, every probe link.
    pub bases: Vec<BaseComponent>,
}

#[cfg(test)]
/// The provider's next batch as paths (empty once it is exhausted).
pub(crate) fn next_paths(
    provider: &mut (impl CandidateProvider + ?Sized),
) -> Vec<detector_core::types::ProbePath> {
    let mut batch = detector_core::types::PathStore::default();
    provider.next_batch(&mut batch);
    let owned = |p: detector_core::types::PathRef<'_>| {
        detector_core::types::ProbePath::from_route(p.id.0, p.nodes().to_vec(), p.links().to_vec())
    };
    batch.iter().map(owned).collect()
}

#[cfg(test)]
/// The whole-topology matrix the symmetry plan stands for: each base
/// solved once, its paths re-homed into every replica. `targets_met`
/// holds only if every base met its targets and no link is left
/// uncoverable; the matrix is then claimed (α, β).
pub(crate) fn replicated_matrix(
    topo: &dyn crate::DcnTopology,
    cfg: &detector_core::pmc::PmcConfig,
) -> detector_core::pmc::ProbeMatrix {
    use detector_core::pmc::{construct_with_provider, Achieved, ProbeMatrix};
    let plan = topo.symmetry();
    let mut paths = detector_core::types::PathStore::default();
    let (mut targets_met, mut coverage) = (true, u32::MAX);
    for base in plan.bases {
        let sol = construct_with_provider(base.provider, cfg).unwrap();
        targets_met &= sol.targets_met;
        coverage = coverage.min(sol.coverage);
        let (node, link) = (&base.replicate_node, &base.replicate_link);
        for r in 0..base.replicas {
            paths.extend_mapped(&sol.paths, |n| node(n, r), |l| link(l, r));
        }
    }
    let matrix = ProbeMatrix::from_paths(plan.num_probe_links, paths);
    let targets_met = targets_met && matrix.uncoverable.is_empty();
    let achieved = Achieved {
        coverage: if coverage == u32::MAX { 0 } else { coverage },
        identifiability: if targets_met { cfg.beta } else { 0 },
        targets_met,
    };
    matrix.with_achieved(achieved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fattree;
    use detector_core::pmc::{max_identifiability, min_coverage, PmcConfig};
    use detector_core::types::PathStore;

    #[test]
    fn symmetric_fattree_matrix_is_verified_identifiable() {
        let ft = Fattree::new(6).unwrap();
        let m = replicated_matrix(&ft, &PmcConfig::identifiable(1));
        assert!(m.achieved.targets_met);
        assert!(m.uncoverable.is_empty());
        // Cross-check construction claims with the independent verifier.
        assert!(min_coverage(&m) >= 1);
        assert_eq!(max_identifiability(&m, 1), 1);
    }

    #[test]
    fn coverage_three_is_reached() {
        let ft = Fattree::new(4).unwrap();
        let m = replicated_matrix(&ft, &PmcConfig::new(3, 0));
        assert!(m.achieved.targets_met);
        assert!(min_coverage(&m) >= 3);
    }

    #[test]
    fn selected_paths_are_far_fewer_than_original() {
        use crate::DcnTopology;
        let ft = Fattree::new(8).unwrap();
        let m = replicated_matrix(&ft, &PmcConfig::identifiable(1));
        assert!(m.achieved.targets_met);
        let original = ft.original_path_count();
        assert!((m.num_paths() as u128) < original / 10);
    }

    #[test]
    fn replicate_link_agrees_with_replicate_on_paths() {
        // The node and link maps re-home a path together: the replica's
        // nodes route through exactly its mapped links, for every
        // topology family.
        use crate::{BCube, DcnTopology, Vl2};
        let topos: Vec<Box<dyn DcnTopology>> = vec![
            Box::new(Fattree::new(6).unwrap()),
            Box::new(Vl2::new(4, 4, 2).unwrap()),
            Box::new(BCube::new(2, 1).unwrap()),
        ];
        for topo in &topos {
            let plan = topo.symmetry();
            for mut base in plan.bases {
                let mut batch = PathStore::default();
                base.provider.next_batch(&mut batch);
                let (node, link) = (&base.replicate_node, &base.replicate_link);
                for r in 0..base.replicas {
                    let mut mapped = PathStore::default();
                    mapped.extend_mapped(&batch, |n| node(n, r), |l| link(l, r));
                    for p in mapped.iter().take(20) {
                        let route = topo.graph().route_from_nodes(p.nodes().to_vec());
                        let mut links = route.expect("a replica path routes").links.into_owned();
                        links.sort_unstable();
                        links.dedup();
                        assert_eq!(p.links(), links.as_slice(), "{}", topo.name());
                    }
                }
            }
        }
    }
}
