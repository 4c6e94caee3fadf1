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

use std::collections::HashSet;
use std::time::Instant;

use super::index::{candidate_index, candidate_index_with, CandidateIndex, IndexedCell};
use super::{repair_restricted, solve_restricted, PmcConfig, PmcError, SubSolution};
use crate::dense::UnionFind;
use crate::types::{LinkId, ProbePath};

/// One independent PMC subproblem: a link universe, the candidate paths
/// within it and their candidate index, built once so every solve and
/// re-solve of the subproblem runs on it.
#[derive(Clone, Debug)]
pub struct Subproblem {
    universe: Vec<LinkId>,
    candidates: Vec<ProbePath>,
    index: CandidateIndex,
}

impl Subproblem {
    /// A subproblem over an explicit universe; every candidate link must
    /// be in it.
    pub fn new(universe: Vec<LinkId>, candidates: Vec<ProbePath>) -> Result<Self, PmcError> {
        let index = candidate_index(&universe, &candidates)?;
        Ok(Self {
            universe,
            candidates,
            index,
        })
    }

    /// Wraps a candidate set as a single subproblem (no decomposition);
    /// the universe is inferred from the links the candidates cover.
    pub fn whole(candidates: Vec<ProbePath>) -> Self {
        let mut universe: Vec<LinkId> = candidates
            .iter()
            .flat_map(|p| p.links().iter().copied())
            .collect();
        universe.sort_unstable();
        universe.dedup();
        Self::new(universe, candidates).expect("the universe is the candidates' links")
    }

    /// Sorted link universe of the subproblem.
    pub fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    /// Candidate paths entirely within the universe.
    pub fn candidates(&self) -> &[ProbePath] {
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

    /// [`resolve_subproblem_seeded`](super::resolve_subproblem_seeded) on
    /// the stored index.
    pub fn resolve_seeded<'a>(
        &self,
        excluded: &HashSet<LinkId>,
        seed: impl IntoIterator<Item = &'a ProbePath>,
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
pub fn decompose(candidates: Vec<ProbePath>) -> Vec<Subproblem> {
    let mut sets = UnionFind::default();
    for p in &candidates {
        sets.join(p.links().iter().map(|l| l.0));
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

    let mut members: Vec<Vec<ProbePath>> = vec![Vec::new(); count];
    for p in candidates {
        if let Some(first) = p.links().first() {
            members[component[first.index()] as usize].push(p);
        }
    }
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
                let subs = decompose(chain.collect());
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// `decompose` finds the components a breadth-first search does,
        /// in the same order, each with its paths in input order and
        /// indexed over its own universe — on sparse ids up to 10⁶, with
        /// empty and duplicate paths.
        #[test]
        fn decompose_matches_a_breadth_first_search(
            ids in proptest::collection::vec(0u32..1_000_000, 1..16),
            raw in proptest::collection::vec(proptest::collection::vec(0usize..16, 0..4), 0..24),
        ) {
            let paths: Vec<ProbePath> = raw
                .iter()
                .enumerate()
                .map(|(i, ls)| path(i as u32, &ls.iter().map(|&k| ids[k % ids.len()]).collect::<Vec<_>>()))
                .collect();
            let want = bfs_components(&paths);
            let got = decompose(paths.clone());
            assert_eq!(got.len(), want.len());
            for (sub, (universe, members)) in got.iter().zip(&want) {
                assert_eq!(&sub.universe, universe);
                let candidates: Vec<&ProbePath> = members.iter().map(|&i| &paths[i]).collect();
                assert_eq!(sub.candidates.iter().collect::<Vec<_>>(), candidates);
                let rebuilt = candidate_index(universe, &sub.candidates).unwrap();
                for i in 0..sub.candidates.len() {
                    assert_eq!(sub.index.run(i), rebuilt.run(i));
                }
            }
        }
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
