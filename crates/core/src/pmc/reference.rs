//! Test-only oracle: the path-cloning solver the candidate index
//! replaced.
//!
//! These are the greedy loops as they ran before candidates were indexed
//! — exclusions filter-clone the candidate set, heap and alive entries own
//! their `ProbePath`, every evaluation looks its links up — kept so the
//! index-driven loops have an independent implementation to be compared
//! against, path for path, on random instances. The seeded completion
//! here scans the whole pool every round, whatever the seed left to do;
//! the solver's starts from the candidates that cross a deficient link.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use proptest::prelude::*;

use super::provider::ExhaustiveProvider;
use super::state::SelectionState;
use super::{
    construct_with_provider, CandidateProvider, ExcludingProvider, PmcConfig, PmcError,
    Strategy as Greedy, SubSolution, Subproblem,
};
use crate::types::{LinkId, NodeId, PathRef, PathStore, ProbePath};

/// A stored path as an owned one.
fn owned(p: PathRef<'_>) -> ProbePath {
    ProbePath::from_route(p.id.0, p.nodes().to_vec(), p.links().to_vec())
}

struct Entry {
    score: i64,
    order: u32,
    path: ProbePath,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.order == other.order
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| other.order.cmp(&self.order))
    }
}

/// The provider-fed lazy greedy with owned heap entries.
fn lazy<P: CandidateProvider>(mut provider: P, cfg: &PmcConfig) -> Result<SubSolution, PmcError> {
    let universe = provider.universe().to_vec();
    let mut state = SelectionState::new(&universe, cfg)?;
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let mut order = 0u32;
    let mut exhausted = false;
    let mut pulled = 0u64;
    let pull_budget = (universe.len() as u64 * 64).max(1 << 16);
    let mut batch_min = i64::MAX;

    let mut pull = |state: &mut SelectionState,
                    heap: &mut BinaryHeap<Entry>,
                    pulled: &mut u64,
                    batch_min: &mut i64|
     -> Result<bool, PmcError> {
        let mut batch = PathStore::default();
        provider.next_batch(&mut batch);
        if batch.is_empty() {
            *batch_min = i64::MAX;
            return Ok(false);
        }
        let mut min_score = i64::MAX;
        for p in batch.iter().map(owned) {
            if p.is_empty() {
                continue;
            }
            let e = state.evaluate(&p)?;
            if e.useful(cfg.beta) {
                min_score = min_score.min(e.score);
                heap.push(Entry {
                    score: e.score,
                    order,
                    path: p,
                });
                order += 1;
                *pulled += 1;
            }
        }
        *batch_min = min_score;
        Ok(true)
    };

    while !state.targets_met() {
        if heap.is_empty() {
            if exhausted {
                break;
            }
            exhausted = !pull(&mut state, &mut heap, &mut pulled, &mut batch_min)?;
            continue;
        }
        let top = heap.pop().expect("heap checked non-empty");
        let e = state.evaluate(&top.path)?;
        if !e.useful(cfg.beta) {
            continue;
        }
        if e.score > batch_min && !exhausted && pulled < pull_budget {
            heap.push(Entry {
                score: e.score,
                ..top
            });
            exhausted = !pull(&mut state, &mut heap, &mut pulled, &mut batch_min)?;
            continue;
        }
        let next_key = heap.peek().map(|t| t.score);
        if next_key.is_none_or(|k| e.score <= k) {
            state.select(&top.path)?;
        } else {
            heap.push(Entry {
                score: e.score,
                ..top
            });
        }
    }
    Ok(state.into_solution())
}

/// The strawman greedy over owned `Option<ProbePath>` slots.
fn strawman(
    mut state: SelectionState,
    candidates: Vec<ProbePath>,
    cfg: &PmcConfig,
) -> Result<SubSolution, PmcError> {
    let mut alive: Vec<Option<ProbePath>> = candidates
        .into_iter()
        .map(|p| if p.is_empty() { None } else { Some(p) })
        .collect();
    while !state.targets_met() {
        let mut best: Option<(i64, usize)> = None;
        for (i, slot) in alive.iter_mut().enumerate() {
            let Some(p) = slot.as_ref() else { continue };
            let e = state.evaluate(p)?;
            if !e.useful(cfg.beta) {
                *slot = None;
                continue;
            }
            if best.is_none_or(|(s, _)| e.score < s) {
                best = Some((e.score, i));
            }
        }
        match best {
            Some((_, i)) => {
                let p = alive[i].take().expect("best candidate vanished");
                state.select(&p)?;
            }
            None => break,
        }
    }
    Ok(state.into_solution())
}

/// `Subproblem::resolve` / `Subproblem::resolve_seeded` by filter-and-clone.
fn resolve(
    universe: &[LinkId],
    candidates: &[ProbePath],
    excluded: &HashSet<LinkId>,
    seed: Option<&[ProbePath]>,
    cfg: &PmcConfig,
) -> Result<SubSolution, PmcError> {
    let universe: Vec<LinkId> = universe
        .iter()
        .copied()
        .filter(|l| !excluded.contains(l))
        .collect();
    let candidates: Vec<ProbePath> = candidates
        .iter()
        .filter(|p| !p.links().iter().any(|l| excluded.contains(l)))
        .cloned()
        .collect();
    let Some(seed) = seed else {
        return match cfg.strategy {
            Greedy::Strawman => strawman(SelectionState::new(&universe, cfg)?, candidates, cfg),
            Greedy::Lazy => lazy(ExhaustiveProvider::with_universe(universe, candidates), cfg),
        };
    };
    let mut candidates = candidates;
    let mut state = SelectionState::new(&universe, cfg)?;
    for p in seed {
        if p.is_empty() || p.links().iter().any(|l| excluded.contains(l)) {
            continue;
        }
        if state.evaluate(p)?.useful(cfg.beta) {
            state.select(p)?;
            // The survivor is this candidate, already selected.
            if let Some(at) = candidates.iter().position(|c| c.route() == p.route()) {
                candidates.remove(at);
            }
        }
    }
    strawman(state, candidates, cfg)
}

fn assert_same(got: &SubSolution, want: &SubSolution) {
    // `PathStore` equality covers id, nodes and links; order matters.
    assert_eq!(got.paths, want.paths);
    assert_eq!(got.targets_met, want.targets_met);
    assert_eq!(got.coverage, want.coverage);
    assert_eq!(got.cells, want.cells);
}

const TARGETS: [(u32, u32); 5] = [(1, 0), (1, 1), (2, 1), (3, 1), (1, 2)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random instances — duplicate and empty candidates, excluded links,
    /// a universe in either order, every (α, β) target, both strategies,
    /// provider batches of 1, 7 and everything — solve to the reference's
    /// exact selection: materialized, provider-fed and seeded.
    #[test]
    fn indexed_solver_matches_the_path_cloning_reference(
        num_links in 4u32..41,
        raw in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..5), 10..380),
        dups in proptest::collection::vec(0usize..380, 0..20),
        dead in proptest::collection::vec(0u32..40, 0..4),
        target in 0usize..5,
        strawman_strategy in 0u32..2,
        batch in 0usize..3,
        reversed in 0u32..2,
    ) {
        let mut candidates: Vec<ProbePath> = raw
            .iter()
            .enumerate()
            .map(|(i, ls)| {
                let links = ls.iter().map(|&l| LinkId(l % num_links)).collect();
                ProbePath::from_route(i as u32, vec![NodeId(i as u32)], links)
            })
            .collect();
        for d in dups {
            candidates.push(candidates[d % raw.len()].clone());
        }
        let mut universe: Vec<LinkId> = (0..num_links).map(LinkId).collect();
        if reversed == 1 {
            universe.reverse();
        }
        let excluded: HashSet<LinkId> = dead.iter().map(|&l| LinkId(l % num_links)).collect();
        let (alpha, beta) = TARGETS[target];
        let mut cfg = PmcConfig::new(alpha, beta);
        if strawman_strategy == 1 {
            cfg.strategy = Greedy::Strawman;
        }

        let cell = Subproblem::new(universe.clone(), candidates.clone()).unwrap();
        let got = cell.resolve(&excluded, &cfg).unwrap();
        let want = resolve(&universe, &candidates, &excluded, None, &cfg).unwrap();
        assert_same(&got, &want);

        let batch_size = [1, 7, candidates.len()][batch];
        let provider = || {
            ExcludingProvider::new(
                ExhaustiveProvider::with_universe(universe.clone(), candidates.clone())
                    .with_batch_size(batch_size),
                excluded.clone(),
            )
        };
        let got = construct_with_provider(provider(), &cfg).unwrap();
        let want = lazy(provider(), &cfg).unwrap();
        assert_same(&got, &want);

        // Seeded: repair the pristine solution after the exclusion.
        let pristine = cell.resolve(&HashSet::new(), &cfg).unwrap().paths;
        let seed: Vec<ProbePath> = pristine.iter().map(owned).collect();
        let got = cell.resolve_seeded(&excluded, &seed, &cfg).unwrap();
        let want = resolve(&universe, &candidates, &excluded, Some(&seed), &cfg).unwrap();
        assert_same(&got, &want);
    }
}

/// The (α, β) targets of the repair proptest.
const REPAIR_TARGETS: [(u32, u32); 4] = [(1, 0), (1, 1), (2, 1), (1, 2)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The repair — early return on a sufficient seed, completion from the
    /// candidates crossing a deficient link, survivors not offered again —
    /// selects exactly what seeding and then scanning the whole pool
    /// selects, whatever the seed holds: the pristine solution or not,
    /// paths the exclusion killed, repeats that are useless by the time
    /// they come up, and foreign paths that are no candidate at all.
    #[test]
    fn deficient_link_repair_matches_the_full_scan_reference(
        num_links in 4u32..41,
        raw in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..5), 10..400),
        dups in proptest::collection::vec(0usize..400, 0..20),
        dead in proptest::collection::vec(0u32..40, 0..4),
        target in 0usize..4,
        from_pristine in 0u32..2,
        picks in proptest::collection::vec(0usize..420, 0..30),
        foreign in proptest::collection::vec(
            (proptest::collection::vec(0u32..40, 1..6), 0usize..31),
            0..4,
        ),
    ) {
        let route = |i: usize, ls: &[u32]| {
            let links = ls.iter().map(|&l| LinkId(l % num_links)).collect();
            ProbePath::from_route(i as u32, vec![NodeId(i as u32)], links)
        };
        let mut candidates: Vec<ProbePath> =
            raw.iter().enumerate().map(|(i, ls)| route(i, ls)).collect();
        for d in dups {
            candidates.push(candidates[d % raw.len()].clone());
        }
        let universe: Vec<LinkId> = (0..num_links).map(LinkId).collect();
        let excluded: HashSet<LinkId> = dead.iter().map(|&l| LinkId(l % num_links)).collect();
        let (alpha, beta) = REPAIR_TARGETS[target];
        let cfg = PmcConfig::new(alpha, beta);
        let cell = Subproblem::new(universe.clone(), candidates.clone()).unwrap();

        let mut seed = if from_pristine == 1 {
            let pristine = cell.resolve(&HashSet::new(), &cfg).unwrap().paths;
            pristine.iter().map(owned).collect()
        } else {
            Vec::new()
        };
        seed.extend(picks.iter().map(|&at| candidates[at % candidates.len()].clone()));
        for (i, (ls, at)) in foreign.iter().enumerate() {
            // A node no candidate starts from: never equal to one.
            seed.insert(at % (seed.len() + 1), route(1000 + i, ls));
        }

        let got = cell.resolve_seeded(&excluded, &seed, &cfg).unwrap();
        let want = resolve(&universe, &candidates, &excluded, Some(&seed), &cfg).unwrap();
        assert_same(&got, &want);
    }
}
