//! Lazy score updates (CELF-style), Observation 2 of §4.3.
//!
//! Path scores are non-decreasing as the selection proceeds, so a stale
//! score is a lower bound on the true score. We keep a priority queue
//! keyed by (possibly stale) scores, re-evaluate only the top entry, and
//! accept it if its fresh score is still no larger than the next entry's
//! stale key — in which case it is a true minimum. With virtual links
//! (β ≥ 2) rare corner cases can violate monotonicity; the loop then
//! degrades into a near-greedy heuristic, while the achieved (α, β)
//! targets remain exactly verified by the selection state.
//!
//! Scores are small integers, so the queue is a bucket per score
//! (`ScoreQueue`) rather than a binary heap. It pops in exactly the
//! heap's (score, candidate index) order, so the selection — and every
//! plan — is the one a heap produces; a materialized boot of
//! VL2(20,12,2) evaluates ~305 k times, and the pushes and pops around
//! those evaluations are a bucket append and a cursor step.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use super::index::Pool;
use super::state::SelectionState;
use super::{check_deadline, PmcConfig, PmcError, SubSolution};

/// The lazy greedy's priority queue: candidate indices keyed by their
/// (possibly stale) integer scores, popped in (score, index) order — the
/// smallest score first and, on ties, the earliest offered candidate.
///
/// Scores are small integers (link weights minus touched cells), so the
/// queue keeps one bucket per score instead of a binary heap: a push
/// appends to its bucket, and a bucket is sorted once, when the queue
/// first pops from it. Re-evaluated candidates land in higher buckets
/// the cursor has not reached yet, so nearly every entry is pushed and
/// popped in O(1) and sorted with its bucket's run. A push into a bucket
/// already being popped (possible when β ≥ 2 breaks monotonicity, and
/// when a provider's fresh batch scores below the cursor) goes to the
/// bucket's small heap of late arrivals, unless it extends the sorted run.
#[derive(Default)]
struct ScoreQueue {
    /// Bucket `i` holds the entries scoring `base + i`.
    buckets: Vec<Bucket>,
    base: i64,
    /// No bucket below the cursor holds an entry.
    cursor: usize,
    len: usize,
}

#[derive(Default)]
struct Bucket {
    /// Entries in push order while the bucket is closed, sorted once it
    /// opens (an open bucket's run grows only by larger entries). Those
    /// before `next` have been popped.
    run: Vec<u32>,
    next: usize,
    open: bool,
    /// Entries pushed while the bucket was open, below its run's last.
    late: BinaryHeap<Reverse<u32>>,
}

impl Bucket {
    fn is_empty(&self) -> bool {
        self.next == self.run.len() && self.late.is_empty()
    }

    fn push(&mut self, i: u32) {
        if self.open && self.run.last().is_some_and(|&last| i < last) {
            self.late.push(Reverse(i));
        } else {
            self.run.push(i);
        }
    }

    /// Pops the smallest entry of a non-empty bucket, opening it first;
    /// a bucket popped empty closes again.
    fn pop(&mut self) -> u32 {
        if !self.open {
            self.run.sort_unstable();
            self.open = true;
        }
        let from_run = self.run.get(self.next).copied();
        let i = match (from_run, self.late.peek()) {
            (Some(r), Some(&Reverse(l))) if l < r => self.late.pop().map(|Reverse(l)| l),
            (Some(r), _) => {
                self.next += 1;
                Some(r)
            }
            (None, _) => self.late.pop().map(|Reverse(l)| l),
        }
        .expect("only a non-empty bucket is popped");
        if self.is_empty() {
            self.run.clear();
            self.next = 0;
            self.open = false;
        }
        i
    }
}

impl ScoreQueue {
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, score: i64, i: u32) {
        if self.len == 0 {
            // Every bucket is empty and closed: re-base for free.
            self.base = score;
            self.cursor = 0;
        } else if score < self.base {
            let below = (self.base - score) as usize;
            self.buckets
                .splice(0..0, std::iter::repeat_with(Bucket::default).take(below));
            self.base = score;
        }
        let at = (score - self.base) as usize;
        if at >= self.buckets.len() {
            self.buckets.resize_with(at + 1, Bucket::default);
        }
        self.buckets[at].push(i);
        self.cursor = self.cursor.min(at);
        self.len += 1;
    }

    /// Moves the cursor to the lowest non-empty bucket.
    fn seek(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        Some(self.cursor)
    }

    /// The smallest score queued.
    fn min_score(&mut self) -> Option<i64> {
        self.seek().map(|at| self.base + at as i64)
    }

    /// Removes and returns the smallest (score, index) entry.
    fn pop(&mut self) -> Option<(i64, u32)> {
        let at = self.seek()?;
        self.len -= 1;
        Some((self.base + at as i64, self.buckets[at].pop()))
    }
}

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
    let mut queue = ScoreQueue::default();
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

        if queue.is_empty() {
            if exhausted {
                break;
            }
            if !pull_batch(
                &mut pool,
                &mut state,
                &mut queue,
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

        let (_, top) = queue.pop().expect("queue checked non-empty");
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
            queue.push(e.score, top);
            if !pull_batch(
                &mut pool,
                &mut state,
                &mut queue,
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

        let next_key = queue.min_score();
        if next_key.is_none_or(|k| e.score <= k) {
            let (locals, path) = pool.get(top);
            state.select_locals(locals, path);
        } else {
            queue.push(e.score, top);
        }
    }

    Ok(state.into_solution())
}

/// Pulls one batch from the pool into the queue; returns false when the
/// pool is exhausted.
#[allow(clippy::too_many_arguments)]
fn pull_batch<P: Pool>(
    pool: &mut P,
    state: &mut SelectionState,
    queue: &mut ScoreQueue,
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
            queue.push(e.score, i);
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
    use crate::types::PathStore;
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
            fn next_batch(&mut self, batch: &mut PathStore) {
                self.stage += 1;
                match self.stage {
                    1 => batch.push(0, &[], &[LinkId(0), LinkId(1)]),
                    2 => batch.push(1, &[], &[LinkId(0)]),
                    _ => {}
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
        let mut q = ScoreQueue::default();
        q.push(5, 0);
        q.push(-1, 2);
        q.push(-1, 1);
        assert_eq!(q.min_score(), Some(-1));
        assert_eq!(q.pop(), Some((-1, 1)));
        assert_eq!(q.pop(), Some((-1, 2)));
        // Late arrivals below the cursor and inside an open bucket.
        q.push(5, 9);
        q.push(5, 3);
        assert_eq!(q.pop(), Some((5, 0)));
        q.push(5, 1);
        q.push(-7, 4);
        assert_eq!(q.pop(), Some((-7, 4)));
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 3)));
        assert_eq!(q.pop(), Some((5, 9)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Any interleaving of pops, fresh pushes and re-pushes of popped
        /// candidates (the lazy loop's three moves; a candidate is queued
        /// at most once) comes out exactly as a binary min-heap of
        /// (score, index) hands it out.
        #[test]
        fn queue_pops_as_the_binary_heap_does(
            ops in proptest::collection::vec((-40i64..40, 0u32..3, 0usize..64), 1..300),
        ) {
            let mut q = ScoreQueue::default();
            let mut heap = BinaryHeap::new();
            let (mut fresh, mut popped) = (0u32, Vec::new());
            for (score, op, pick) in ops {
                let i = match op {
                    0 => {
                        assert_eq!(q.min_score(), heap.peek().map(|Reverse((s, _))| *s));
                        let e = heap.pop().map(|Reverse(e)| e);
                        assert_eq!(q.pop(), e);
                        popped.extend(e.map(|(_, i)| i));
                        continue;
                    }
                    1 => {
                        fresh += 1;
                        fresh - 1
                    }
                    _ if popped.is_empty() => continue,
                    _ => popped.swap_remove(pick % popped.len()),
                };
                q.push(score, i);
                heap.push(Reverse((score, i)));
            }
            while let Some(Reverse(e)) = heap.pop() {
                assert_eq!(q.pop(), Some(e));
            }
            assert!(q.is_empty());
        }
    }
}
