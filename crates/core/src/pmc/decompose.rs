//! Problem decomposition, Observation 1 of §4.3.
//!
//! Build the bipartite path–link graph implicitly via a union–find over
//! links: every path unions the links it covers; connected components of
//! links (with their paths) become independent subproblems that can be
//! solved in parallel. In a k-ary Fattree the inter-switch links split into
//! k/2 components, one per aggregation-switch column.
//!
//! The union–find is the crate's dense one
//! ([`UnionFind`](crate::dense::UnionFind)), spanning the largest named
//! link + 1: its sets number in order of their smallest link, and one
//! ascending pass gives every link its local index — its rank in its
//! component's sorted universe — so each component's candidate index is
//! built straight from those locals, never by searching the universe.
//!
//! The candidates come as one flat [`PathStore`], the way both
//! sources write them: `DcnTopology::enumerate_candidates` for a small
//! topology, a provider round for a symmetric one. Decomposing counts
//! each component's candidates, nodes and links, then copies every
//! candidate's runs into its component's batch, reserved at that size; a
//! set that is one component already keeps its batch whole.

use std::collections::HashSet;
use std::time::Instant;

use super::index::{candidate_index, candidate_index_with, CandidateIndex, IndexedCell};
use super::{repair_restricted, solve_restricted, PmcConfig, PmcError, SubSolution};
use crate::dense::UnionFind;
use crate::types::{LinkId, PathRef, PathStore};

/// One independent PMC subproblem: a link universe, the candidates
/// within it, flat, and their candidate index, built once so every solve
/// and re-solve of the subproblem runs on it.
#[derive(Clone, Debug)]
pub struct Subproblem {
    universe: Vec<LinkId>,
    candidates: PathStore,
    index: CandidateIndex,
}

impl Subproblem {
    /// A subproblem over an explicit universe; every candidate link must
    /// be in it.
    pub fn new(universe: Vec<LinkId>, candidates: impl Into<PathStore>) -> Result<Self, PmcError> {
        let candidates = candidates.into();
        let index = candidate_index(&universe, &candidates)?;
        Ok(Self {
            universe,
            candidates,
            index,
        })
    }

    /// Wraps a candidate set as a single subproblem (no decomposition);
    /// the universe is inferred from the links the candidates cover.
    pub fn whole(candidates: impl Into<PathStore>) -> Self {
        let candidates = candidates.into();
        let mut universe = candidates.link_runs().items().to_vec();
        universe.sort_unstable();
        universe.dedup();
        Self::new(universe, candidates).expect("the universe is the candidates' links")
    }

    /// Sorted link universe of the subproblem.
    pub fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    /// The candidates, entirely within the universe.
    pub fn candidates(&self) -> &PathStore {
        &self.candidates
    }

    fn indexed(&self) -> IndexedCell<'_> {
        IndexedCell {
            universe: &self.universe,
            candidates: &self.candidates,
            index: &self.index,
        }
    }

    /// Solves the whole subproblem with the configured strategy.
    pub(crate) fn solve(
        &self,
        cfg: &PmcConfig,
        deadline: Option<Instant>,
    ) -> Result<SubSolution, PmcError> {
        solve_restricted(self.indexed(), &HashSet::new(), cfg, deadline)
    }

    /// Solves the subproblem from scratch with part of its universe
    /// excluded — the *canonical* restricted solve: a failed or drained
    /// link leaves the coverage universe, every candidate crossing it is
    /// dropped, and the configured greedy runs over the survivors, on the
    /// index built once at construction. The planner uses it where a plan
    /// must not depend on history — the boot solve, and a cell whose
    /// exclusions return to empty — and repairs with
    /// [`resolve_seeded`](Self::resolve_seeded) everywhere else.
    ///
    /// Deterministic: the result depends only on the subproblem and
    /// `excluded`, not on any previous solution.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::collections::HashSet;
    /// use detector_core::pmc::{PmcConfig, Subproblem};
    /// use detector_core::types::{LinkId, ProbePath};
    ///
    /// let universe = vec![LinkId(0), LinkId(1), LinkId(2)];
    /// let candidates = vec![
    ///     ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
    ///     ProbePath::from_links(1, vec![LinkId(1)]),
    ///     ProbePath::from_links(2, vec![LinkId(2)]),
    /// ];
    /// let cell = Subproblem::new(universe, candidates).unwrap();
    /// let dead: HashSet<LinkId> = [LinkId(0)].into_iter().collect();
    /// let sol = cell.resolve(&dead, &PmcConfig::identifiable(1)).unwrap();
    /// // Links 1 and 2 stay covered and identifiable without crossing link 0.
    /// assert!(sol.targets_met);
    /// assert!(sol.paths.iter().all(|p| !p.covers(LinkId(0))));
    /// ```
    pub fn resolve(
        &self,
        excluded: &HashSet<LinkId>,
        cfg: &PmcConfig,
    ) -> Result<SubSolution, PmcError> {
        solve_restricted(self.indexed(), excluded, cfg, cfg.deadline())
    }

    /// Repairs a previous solution of the subproblem after part of its
    /// universe was excluded — the incremental re-plan (§4's "recompute
    /// quickly when the network changes"), *seeded* with the paths of
    /// `seed`, on the index built once at construction.
    ///
    /// Every seed path that avoids the excluded links and still makes
    /// progress toward the targets is pre-selected, in the order given. If
    /// the survivors already meet the targets they are the result and the
    /// candidates are never looked at; otherwise the strawman greedy
    /// completes the selection from the candidates that cross a link the
    /// survivors leave under-covered or unidentified (no other candidate
    /// can make progress), so the work is sized by what the delta broke,
    /// not by the pool. A pre-selected path stands for its candidate,
    /// which is not offered again. The result covers and identifies
    /// exactly what an unseeded [`resolve`](Self::resolve) would (same
    /// `targets_met` attainability — every candidate that can help is
    /// still on the table), but its path set stays as close to `seed` as
    /// the targets allow, so the dispatched pinglist diff is proportional
    /// to the topology delta instead of the cell size.
    ///
    /// The price is a path set that depends on the seed, hence on the
    /// order links failed in, and may be non-minimal (the planner, which
    /// seeds with a cell's pristine solution and then its repairs,
    /// measures what that costs in its module doc). It ends when the
    /// exclusions do: a cell with no excluded link is solved canonically,
    /// with [`resolve`](Self::resolve).
    ///
    /// Deterministic: depends only on the subproblem, `excluded` and
    /// `seed`, and their orders.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::collections::HashSet;
    /// use detector_core::pmc::{PmcConfig, Subproblem};
    /// use detector_core::types::{LinkId, PathStore, ProbePath};
    ///
    /// let universe = vec![LinkId(0), LinkId(1), LinkId(2)];
    /// let candidates = vec![
    ///     ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
    ///     ProbePath::from_links(1, vec![LinkId(1)]),
    ///     ProbePath::from_links(2, vec![LinkId(2)]),
    /// ];
    /// let seed = vec![candidates[1].clone(), candidates[2].clone()];
    /// let cell = Subproblem::new(universe, candidates).unwrap();
    /// let dead: HashSet<LinkId> = [LinkId(0)].into_iter().collect();
    /// let sol = cell.resolve_seeded(&dead, &seed, &PmcConfig::coverage(1)).unwrap();
    /// // The surviving seed already covers links 1 and 2: nothing churns.
    /// assert!(sol.targets_met);
    /// assert_eq!(sol.paths, PathStore::from(seed));
    /// ```
    pub fn resolve_seeded<'a>(
        &self,
        excluded: &HashSet<LinkId>,
        seed: impl IntoIterator<Item = impl Into<PathRef<'a>>>,
        cfg: &PmcConfig,
    ) -> Result<SubSolution, PmcError> {
        repair_restricted(self.indexed(), excluded, seed, cfg, cfg.deadline())
    }
}

/// Splits a candidate set into independent subproblems.
///
/// Paths covering no links are dropped. Components are returned in
/// ascending order of their smallest link id, each with its candidates in
/// input order, so decomposition is fully deterministic.
pub fn decompose(candidates: impl Into<PathStore>) -> Vec<Subproblem> {
    let candidates = candidates.into();
    let mut sets = UnionFind::default();
    for c in candidates.iter() {
        sets.join(c.links().iter().map(|l| l.0));
    }
    let (count, component) = sets.number();
    // Each link's local index is its rank in its component's (ascending)
    // universe.
    let mut universes: Vec<Vec<LinkId>> = vec![Vec::new(); count];
    let mut local = vec![0u32; component.len()];
    for (l, &c) in component.iter().enumerate() {
        if let Some(universe) = universes.get_mut(c as usize) {
            local[l] = universe.len() as u32;
            universe.push(LinkId(l as u32));
        }
    }

    // A candidate's component is its first link's; an empty one has none.
    let of = |c: &PathRef<'_>| Some(component[c.links().first()?.index()] as usize);
    let members = if count == 1 && candidates.iter().all(|c| !c.links().is_empty()) {
        vec![candidates]
    } else {
        let mut sizes = vec![(0, 0, 0); count];
        for c in candidates.iter() {
            if let Some(size) = of(&c).and_then(|k| sizes.get_mut(k)) {
                *size = (
                    size.0 + 1,
                    size.1 + c.nodes().len(),
                    size.2 + c.links().len(),
                );
            }
        }
        let mut members: Vec<PathStore> = (sizes.into_iter())
            .map(|(n, nodes, links)| {
                let mut batch = PathStore::default();
                batch.reserve(n, nodes, links);
                batch
            })
            .collect();
        for c in candidates.iter() {
            if let Some(batch) = of(&c).and_then(|k| members.get_mut(k)) {
                batch.push_path(c);
            }
        }
        members
    };
    universes
        .into_iter()
        .zip(members)
        .map(|(universe, candidates)| {
            let index = candidate_index_with(&candidates, |l| local.get(l.index()).copied())
                .expect("a component holds its paths' links");
            Subproblem {
                universe,
                candidates,
                index,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NodeId, ProbePath};

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    #[test]
    fn disjoint_paths_split_into_components() {
        let subs = decompose(vec![path(0, &[0, 1]), path(1, &[2, 3]), path(2, &[1, 0])]);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].universe, vec![LinkId(0), LinkId(1)]);
        assert_eq!(subs[0].candidates.len(), 2);
        assert_eq!(subs[1].universe, vec![LinkId(2), LinkId(3)]);
        assert_eq!(subs[1].candidates.len(), 1);
    }

    #[test]
    fn overlapping_paths_merge() {
        let subs = decompose(vec![path(0, &[0, 1]), path(1, &[1, 2]), path(2, &[2, 3])]);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].universe.len(), 4);
        assert_eq!(subs[0].candidates.len(), 3);
    }

    #[test]
    fn empty_paths_are_dropped() {
        let subs = decompose(vec![path(0, &[]), path(1, &[5])]);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].candidates.len(), 1);
    }

    #[test]
    fn whole_infers_universe() {
        let sp = Subproblem::whole(vec![path(0, &[3, 1]), path(1, &[2])]);
        assert_eq!(sp.universe, vec![LinkId(1), LinkId(2), LinkId(3)]);
    }

    #[test]
    fn a_long_link_chain_decomposes_on_a_small_stack() {
        // Paths [i, i + 1] in descending i: every union hangs the chain
        // one link lower, so the set's tree is a million links deep and a
        // recursive find overflows a 2 MiB stack.
        const LINKS: u32 = 1_000_000;
        let shape = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let chain = (0..LINKS - 1).rev().map(|i| path(i, &[i, i + 1]));
                let subs = decompose(chain.collect::<Vec<_>>());
                let shape: Vec<_> = subs
                    .iter()
                    .map(|s| (s.universe.len(), s.candidates.len()))
                    .collect();
                shape
            })
            .unwrap()
            .join()
            .expect("decompose returns");
        assert_eq!(shape, vec![(LINKS as usize, LINKS as usize - 1)]);
    }

    /// The components of the path–link graph by breadth-first search:
    /// per component (ascending smallest link) its sorted links and the
    /// positions of its paths in the input.
    fn bfs_components(paths: &[ProbePath]) -> Vec<(Vec<LinkId>, Vec<usize>)> {
        let mut links: Vec<LinkId> = paths.iter().flat_map(|p| p.links().to_vec()).collect();
        links.sort_unstable();
        links.dedup();
        let mut seen = HashSet::new();
        let mut components = Vec::new();
        for &start in &links {
            if !seen.insert(start) {
                continue;
            }
            let (mut universe, mut frontier) = (vec![start], vec![start]);
            while let Some(l) = frontier.pop() {
                for p in paths.iter().filter(|p| p.covers(l)) {
                    for &m in p.links() {
                        if seen.insert(m) {
                            universe.push(m);
                            frontier.push(m);
                        }
                    }
                }
            }
            universe.sort_unstable();
            let members = (0..paths.len())
                .filter(|&i| {
                    paths[i]
                        .links()
                        .first()
                        .is_some_and(|l| universe.contains(l))
                })
                .collect();
            components.push((universe, members));
        }
        components
    }

    /// Each component's candidates, run by run: id, nodes and links.
    fn runs(sub: &Subproblem) -> Vec<(u32, Vec<NodeId>, Vec<LinkId>)> {
        (sub.candidates.iter())
            .map(|c| (c.id.0, c.nodes().to_vec(), c.links().to_vec()))
            .collect()
    }

    fn nodes(ns: &[u32]) -> Vec<NodeId> {
        ns.iter().copied().map(NodeId).collect()
    }

    fn links(ls: &[u32]) -> Vec<LinkId> {
        ls.iter().copied().map(LinkId).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// `decompose` finds the components a breadth-first search does,
        /// in the same order, each with its candidates in input order —
        /// id, nodes and links, run by run — and indexed over its own
        /// universe: on a batch written as the enumerators write one
        /// (links in hop order, sorted and de-duplicated on the way in),
        /// over sparse link ids up to 10⁶, with empty, duplicate and
        /// node-less candidates.
        #[test]
        fn decompose_matches_a_breadth_first_search(
            ids in proptest::collection::vec(0u32..1_000_000, 1..16),
            raw in proptest::collection::vec(
                (proptest::collection::vec(0usize..16, 0..4), 0u32..6, 0u32..1_000),
                0..24,
            ),
        ) {
            let mut batch = PathStore::default();
            let mut paths = Vec::new();
            for (i, (ls, hops, id)) in raw.iter().enumerate() {
                let route = nodes(&(0..*hops).map(|h| 10 * i as u32 + h).collect::<Vec<_>>());
                let ls = links(&ls.iter().map(|&k| ids[k % ids.len()]).collect::<Vec<_>>());
                batch.push(*id, &route, &ls);
                paths.push(ProbePath::from_route(*id, route, ls));
            }
            let want = bfs_components(&paths);
            let got = decompose(batch);
            assert_eq!(got.len(), want.len());
            for (sub, (universe, members)) in got.iter().zip(&want) {
                assert_eq!(&sub.universe, universe);
                let candidates: Vec<_> = (members.iter())
                    .map(|&i| (paths[i].id.0, paths[i].nodes().to_vec(), paths[i].links().to_vec()))
                    .collect();
                assert_eq!(runs(sub), candidates);
                let rebuilt = candidate_index(universe, &sub.candidates).unwrap();
                for i in 0..sub.candidates.len() {
                    assert_eq!(sub.index.run(i), rebuilt.run(i));
                }
            }
        }
    }

    #[test]
    fn a_batch_drops_its_empty_candidates() {
        // One component, which keeps its batch whole unless a candidate
        // covers nothing, and two.
        for split in [false, true] {
            let mut batch = PathStore::default();
            batch.push(7, &nodes(&[1, 2]), &links(&[3, 2]));
            batch.push(8, &nodes(&[5]), &[]);
            batch.push(9, &nodes(&[3, 4]), &links(if split { &[6] } else { &[2] }));
            let subs = decompose(batch);
            let first = (7, nodes(&[1, 2]), links(&[2, 3]));
            let last = (9, nodes(&[3, 4]), links(if split { &[6] } else { &[2] }));
            let want = if split {
                vec![vec![first], vec![last]]
            } else {
                vec![vec![first, last]]
            };
            assert_eq!(subs.iter().map(runs).collect::<Vec<_>>(), want);
            assert!(subs.iter().all(|s| s.index.len() == s.candidates.len()));
        }
    }

    #[test]
    fn components_whose_links_come_out_of_order() {
        // First seen: links 9 and 8, then 0, then 4; components number
        // by their smallest link, so {5, 8, 9} comes last.
        let mut batch = PathStore::default();
        batch.push(10, &nodes(&[90, 80]), &links(&[9, 8]));
        batch.push(11, &nodes(&[0]), &links(&[1, 0]));
        batch.push(12, &nodes(&[4]), &links(&[4]));
        batch.push(13, &nodes(&[8, 5]), &links(&[8, 5, 8]));
        batch.push(14, &nodes(&[2, 1]), &links(&[2, 1]));
        let subs = decompose(batch);
        let universes: Vec<_> = subs.iter().map(|s| s.universe.clone()).collect();
        assert_eq!(
            universes,
            [links(&[0, 1, 2]), links(&[4]), links(&[5, 8, 9])]
        );
        assert_eq!(
            subs.iter().map(runs).collect::<Vec<_>>(),
            [
                vec![
                    (11, nodes(&[0]), links(&[0, 1])),
                    (14, nodes(&[2, 1]), links(&[1, 2])),
                ],
                vec![(12, nodes(&[4]), links(&[4]))],
                vec![
                    (10, nodes(&[90, 80]), links(&[8, 9])),
                    (13, nodes(&[8, 5]), links(&[5, 8])),
                ],
            ]
        );
        // Locals are ranks in each component's own universe.
        let third = &subs[2].index;
        assert_eq!((third.run(0), third.run(1)), (&[1, 2][..], &[0, 1][..]));
        assert_eq!(subs[0].index.run(1), &[1, 2]);
    }

    #[test]
    fn deterministic_component_order() {
        let a = decompose(vec![path(0, &[9, 8]), path(1, &[0, 1]), path(2, &[4])]);
        let b = decompose(vec![path(2, &[4]), path(0, &[8, 9]), path(1, &[1, 0])]);
        let ua: Vec<_> = a.iter().map(|s| s.universe.clone()).collect();
        let ub: Vec<_> = b.iter().map(|s| s.universe.clone()).collect();
        assert_eq!(ua, ub);
    }
}
