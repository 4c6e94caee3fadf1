//! Lazy score updates (CELF-style), Observation 2 of §4.3.
//!
//! Path scores are non-decreasing as the selection proceeds, so a stale
//! score is a lower bound on the true score. We keep a min-heap keyed by
//! (possibly stale) scores, re-evaluate only the top entry, and accept it
//! if its fresh score is still no larger than the next entry's stale key —
//! in which case it is a true minimum. With virtual links (β ≥ 2) rare
//! corner cases can violate monotonicity; the loop then degrades into a
//! near-greedy heuristic, while the achieved (α, β) targets remain exactly
//! verified by the selection state.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use super::index::Pool;
use super::state::SelectionState;
use super::{check_deadline, PmcConfig, PmcError, SubSolution};

/// A heap entry: a (possibly stale) score and the candidate's index.
/// `BinaryHeap` is a max-heap, so entries are reversed: the smallest score
/// — and, on ties, the earliest offered candidate — sits on top.
type Entry = Reverse<(i64, u32)>;

/// Runs the lazy greedy from `state` over the candidates of `pool`, pulling
/// its batches on demand.
pub(crate) fn run<P: Pool>(
    mut pool: P,
    mut state: SelectionState,
    cfg: &PmcConfig,
    deadline: Option<Instant>,
) -> Result<SubSolution, PmcError> {
    // detlint::allow(determinism, reason = "PMC solver timeout clock; deadlines only abort, never alter a completed plan")
    let start = Instant::now();
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let mut exhausted = false;
    let mut pulled = 0u64;
    // Cap on how many candidates may be pulled ahead of need: keeps peak
    // memory bounded on astronomically large providers while letting the
    // greedy see enough variety to stay close to the exhaustive solution.
    let pull_budget = (state.universe().num_links() as u64 * 64).max(1 << 16);
    // Best (lowest) fresh score seen in the most recently pulled batch; as
    // long as fresh rounds keep producing scores at this level, a pooled
    // candidate scoring worse should not be committed before pulling more.
    let mut batch_min = i64::MAX;

    while !state.targets_met() {
        check_deadline(deadline, start)?;

        if heap.is_empty() {
            if exhausted {
                break;
            }
            if !pull_batch(
                &mut pool,
                &mut state,
                &mut heap,
                &mut pulled,
                &mut batch_min,
                cfg,
                deadline,
                start,
            )? {
                exhausted = true;
            }
            continue;
        }

        let Reverse((_, top)) = heap.pop().expect("heap checked non-empty");
        let e = state.evaluate_locals(pool.get(top).0);
        if !e.useful(cfg.beta) {
            // Permanently useless (see greedy.rs); drop it.
            continue;
        }

        // Pull-ahead: if the best pooled candidate scores worse than what
        // fresh provider rounds have recently offered, fetch more rounds
        // before committing (bounded by the pull budget). This keeps the
        // incremental greedy close to the exhaustive one without ever
        // materializing the full candidate set.
        if e.score > batch_min && !exhausted && pulled < pull_budget {
            heap.push(Reverse((e.score, top)));
            if !pull_batch(
                &mut pool,
                &mut state,
                &mut heap,
                &mut pulled,
                &mut batch_min,
                cfg,
                deadline,
                start,
            )? {
                exhausted = true;
            }
            continue;
        }

        let next_key = heap.peek().map(|Reverse((score, _))| *score);
        if next_key.is_none_or(|k| e.score <= k) {
            let (locals, path) = pool.get(top);
            state.select_locals(locals, path);
        } else {
            heap.push(Reverse((e.score, top)));
        }
    }

    Ok(state.into_solution())
}

/// Pulls one batch from the pool into the heap; returns false when the
/// pool is exhausted.
#[allow(clippy::too_many_arguments)]
fn pull_batch<P: Pool>(
    pool: &mut P,
    state: &mut SelectionState,
    heap: &mut BinaryHeap<Entry>,
    pulled: &mut u64,
    batch_min: &mut i64,
    cfg: &PmcConfig,
    deadline: Option<Instant>,
    start: Instant,
) -> Result<bool, PmcError> {
    let mut evals = 0usize;
    let mut min_score = i64::MAX;
    let more = pool.pull(|i, locals| {
        let e = state.evaluate_locals(locals);
        evals += 1;
        if evals.is_multiple_of(4096) {
            check_deadline(deadline, start)?;
        }
        let useful = e.useful(cfg.beta);
        if useful {
            min_score = min_score.min(e.score);
            heap.push(Reverse((e.score, i)));
            *pulled += 1;
        }
        Ok(useful)
    })?;
    *batch_min = min_score;
    Ok(more)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmc::{construct_with_provider, CandidateProvider, Subproblem};
    use crate::types::{LinkId, ProbePath};

    /// Solves a materialized subproblem with `cfg`'s strategy.
    fn run(
        universe: Vec<LinkId>,
        candidates: Vec<ProbePath>,
        cfg: &PmcConfig,
        deadline: Option<Instant>,
    ) -> Result<SubSolution, PmcError> {
        Subproblem::new(universe, candidates)?.solve(cfg, deadline)
    }

    fn links(n: u32) -> Vec<LinkId> {
        (0..n).map(LinkId).collect()
    }

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    #[test]
    fn lazy_matches_strawman_on_line_graph() {
        // Chain candidates over 6 links: nested prefixes plus singletons.
        let mut candidates = Vec::new();
        let mut id = 0;
        for i in 1..=6u32 {
            candidates.push(path(id, &(0..i).collect::<Vec<_>>()));
            id += 1;
        }
        for i in 0..6u32 {
            candidates.push(path(id, &[i]));
            id += 1;
        }
        let lazy = run(
            links(6),
            candidates.clone(),
            &PmcConfig::identifiable(1),
            None,
        )
        .unwrap();
        let straw = run(
            links(6),
            candidates,
            &PmcConfig::identifiable(1).strawman(),
            None,
        )
        .unwrap();
        assert!(lazy.targets_met);
        assert!(straw.targets_met);
        assert_eq!(lazy.paths.len(), straw.paths.len());
    }

    #[test]
    fn provider_batches_are_pulled_on_demand() {
        struct TwoBatches {
            universe: Vec<LinkId>,
            stage: u32,
        }
        impl CandidateProvider for TwoBatches {
            fn universe(&self) -> &[LinkId] {
                &self.universe
            }
            fn next_batch(&mut self) -> Vec<ProbePath> {
                self.stage += 1;
                match self.stage {
                    1 => vec![ProbePath::from_links(0, vec![LinkId(0), LinkId(1)])],
                    2 => vec![ProbePath::from_links(1, vec![LinkId(0)])],
                    _ => Vec::new(),
                }
            }
        }
        let sol = construct_with_provider(
            TwoBatches {
                universe: links(2),
                stage: 0,
            },
            &PmcConfig::identifiable(1),
        )
        .unwrap();
        assert!(sol.targets_met);
        assert_eq!(sol.paths.len(), 2);
    }

    #[test]
    fn exhausted_provider_yields_best_effort() {
        let sol = run(
            links(3),
            vec![path(0, &[0, 1])],
            &PmcConfig::identifiable(1),
            None,
        )
        .unwrap();
        assert!(!sol.targets_met);
        assert_eq!(sol.paths.len(), 1);
    }

    #[test]
    fn heap_orders_by_score_then_insertion() {
        let mut h: BinaryHeap<Entry> = BinaryHeap::new();
        h.push(Reverse((5, 0)));
        h.push(Reverse((-1, 1)));
        h.push(Reverse((-1, 2)));
        assert_eq!(h.pop(), Some(Reverse((-1, 1))));
        assert_eq!(h.pop(), Some(Reverse((-1, 2))));
    }
}
