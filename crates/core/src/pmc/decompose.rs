//! Problem decomposition, Observation 1 of §4.3.
//!
//! Build the bipartite path–link graph implicitly via a union–find over
//! links: every path unions the links it covers; connected components of
//! links (with their paths) become independent subproblems that can be
//! solved in parallel. In a k-ary Fattree the inter-switch links split into
//! k/2 components, one per aggregation-switch column.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use super::index::{CandidateIndex, IndexedCell};
use super::{repair_restricted, solve_restricted, PmcConfig, PmcError, SubSolution};
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
        let index = CandidateIndex::build(&universe, &candidates)?;
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
        self.index.cell(&self.universe, &self.candidates)
    }

    /// Solves the whole subproblem with the configured strategy.
    pub(crate) fn solve(
        &self,
        cfg: &PmcConfig,
        deadline: Option<Instant>,
    ) -> Result<SubSolution, PmcError> {
        solve_restricted(self.indexed(), &HashSet::new(), cfg, deadline)
    }

    /// [`resolve_subproblem`](super::resolve_subproblem) on the stored
    /// index: no per-call indexing, no copy of the candidates.
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

struct UnionFind {
    parent: HashMap<u32, u32>,
}

impl UnionFind {
    fn new() -> Self {
        Self {
            parent: HashMap::new(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Deterministic: smaller id becomes the root.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(hi, lo);
        }
    }
}

/// Splits a candidate set into independent subproblems.
///
/// Paths covering no links are dropped. Components are returned in
/// ascending order of their smallest link id, so decomposition is fully
/// deterministic.
pub fn decompose(candidates: Vec<ProbePath>) -> Vec<Subproblem> {
    let mut uf = UnionFind::new();
    for p in &candidates {
        let ls = p.links();
        if ls.is_empty() {
            continue;
        }
        let first = ls[0].0;
        uf.find(first);
        for l in &ls[1..] {
            uf.union(first, l.0);
        }
    }

    // Map component roots to dense indices ordered by root id (the root is
    // always the smallest link id in the component).
    let mut roots: Vec<u32> = {
        let keys: Vec<u32> = uf.parent.keys().copied().collect();
        let mut rs: Vec<u32> = keys.into_iter().map(|k| uf.find(k)).collect();
        rs.sort_unstable();
        rs.dedup();
        rs
    };
    roots.sort_unstable();
    let root_index: HashMap<u32, usize> = roots.iter().enumerate().map(|(i, &r)| (r, i)).collect();

    let mut subs: Vec<(Vec<LinkId>, Vec<ProbePath>)> =
        roots.iter().map(|_| (Vec::new(), Vec::new())).collect();

    // Assign links to component universes.
    let link_ids: Vec<u32> = uf.parent.keys().copied().collect();
    let mut sorted_links = link_ids;
    sorted_links.sort_unstable();
    for l in sorted_links {
        let r = uf.find(l);
        subs[root_index[&r]].0.push(LinkId(l));
    }

    for p in candidates {
        if p.links().is_empty() {
            continue;
        }
        let r = uf.find(p.links()[0].0);
        subs[root_index[&r]].1.push(p);
    }
    subs.into_iter()
        .map(|(universe, candidates)| {
            Subproblem::new(universe, candidates).expect("a component holds its paths' links")
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
    fn deterministic_component_order() {
        let a = decompose(vec![path(0, &[9, 8]), path(1, &[0, 1]), path(2, &[4])]);
        let b = decompose(vec![path(2, &[4]), path(0, &[8, 9]), path(1, &[1, 0])]);
        let ua: Vec<_> = a.iter().map(|s| s.universe.clone()).collect();
        let ub: Vec<_> = b.iter().map(|s| s.universe.clone()).collect();
        assert_eq!(ua, ub);
    }
}
