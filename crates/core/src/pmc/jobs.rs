//! Cell-granular PMC job pool.
//!
//! Subproblem re-solves shard across a bounded worker pool: each touched
//! plan cell becomes one [`CellJob`], the pool runs them on up to
//! [`JobPool::workers`] scoped threads, and the solutions come back in
//! job order. [`JobPool::run_indexed`] is the workspace's one indexed
//! work-queue driver — one atomic cursor, scoped threads, slot-per-job
//! results — with the worker count explicit, so callers can bound the
//! fan-out instead of inheriting host parallelism.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use super::{resolve_subproblem, PmcConfig, PmcError, SubSolution};
use crate::types::{LinkId, ProbePath};

/// One cell-granular re-solve: a subproblem's universe and candidates
/// plus the exclusion set the delta imposed on it.
#[derive(Clone, Debug)]
pub struct CellJob {
    /// The plan-cell ordinal this job re-solves (carried through to the
    /// [`CellSolution`] so sharded results splice back positionally).
    pub cell: usize,
    /// The cell's link universe.
    pub universe: Vec<LinkId>,
    /// The cell's candidate paths.
    pub candidates: Vec<ProbePath>,
    /// Links the delta removed from this cell.
    pub excluded: HashSet<LinkId>,
}

/// A solved [`CellJob`].
#[derive(Clone, Debug)]
pub struct CellSolution {
    /// The originating job's cell ordinal.
    pub cell: usize,
    /// The re-solved selection for that cell.
    pub solution: SubSolution,
}

/// A bounded pool of re-solve workers.
///
/// Purely a *capacity*: the pool owns no threads between calls (workers
/// are scoped per batch), so it is `Copy`-cheap to embed in configs and
/// never leaks OS resources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobPool {
    workers: usize,
}

impl JobPool {
    /// A pool of exactly `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the host's available parallelism.
    pub fn host() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// A pool of at most `workers` threads, further clamped to the
    /// host's available parallelism. For CPU-bound jobs, spawning more
    /// workers than cores only adds scheduling overhead; deterministic
    /// jobs make every pool size observably identical
    /// ([`run_indexed`](Self::run_indexed)), so the clamp never changes
    /// a result — only wall clock.
    pub fn clamped(workers: usize) -> Self {
        // One worker is one worker on any host: skip the parallelism
        // query (a syscall plus cgroup file reads, ~13 µs measured) on
        // the inline path — diagnosis takes it once a window.
        if workers <= 1 {
            return Self::new(1);
        }
        Self::new(workers.min(Self::host().workers()))
    }

    /// The worker bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `n` indexed jobs on up to `workers` scoped threads, results
    /// in index order. With one worker (or at most one job) the jobs run
    /// inline on the caller's thread. Each index runs exactly once, so
    /// deterministic jobs make every pool size observably identical.
    pub fn run_indexed<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.workers.min(n);
        if threads <= 1 {
            return (0..n).map(job).collect();
        }

        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *results[i].lock().expect("result slot poisoned") = Some(job(i));
                });
            }
        })
        .expect("worker thread panicked");

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("missing job result")
            })
            .collect()
    }

    /// Re-solves a batch of cell jobs, solutions in job order. Each job
    /// runs the exact [`resolve_subproblem`] procedure with a per-cell
    /// deadline budget, so any pool size (including 1) produces
    /// bit-identical selections — only wall-clock differs.
    pub fn solve_cells(
        &self,
        jobs: &[CellJob],
        cfg: &PmcConfig,
    ) -> Result<Vec<CellSolution>, PmcError> {
        self.run_indexed(jobs.len(), |i| {
            let j = &jobs[i];
            resolve_subproblem(&j.universe, &j.candidates, &j.excluded, cfg).map(|solution| {
                CellSolution {
                    cell: j.cell,
                    solution,
                }
            })
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    fn jobs() -> Vec<CellJob> {
        (0..6u32)
            .map(|c| {
                let base = c * 2;
                CellJob {
                    cell: c as usize,
                    universe: vec![LinkId(base), LinkId(base + 1)],
                    candidates: vec![
                        path(c * 3, &[base, base + 1]),
                        path(c * 3 + 1, &[base]),
                        path(c * 3 + 2, &[base + 1]),
                    ],
                    excluded: if c % 2 == 0 {
                        [LinkId(base)].into_iter().collect()
                    } else {
                        HashSet::new()
                    },
                }
            })
            .collect()
    }

    #[test]
    fn every_pool_size_solves_identically() {
        let cfg = PmcConfig::identifiable(1);
        let jobs = jobs();
        let one = JobPool::new(1).solve_cells(&jobs, &cfg).unwrap();
        for workers in [2, 4, 64] {
            let many = JobPool::new(workers).solve_cells(&jobs, &cfg).unwrap();
            assert_eq!(one.len(), many.len());
            for (a, b) in one.iter().zip(&many) {
                assert_eq!(a.cell, b.cell);
                assert_eq!(a.solution.targets_met, b.solution.targets_met);
                let la: Vec<_> = a
                    .solution
                    .paths
                    .iter()
                    .map(|p| p.links().to_vec())
                    .collect();
                let lb: Vec<_> = b
                    .solution
                    .paths
                    .iter()
                    .map(|p| p.links().to_vec())
                    .collect();
                assert_eq!(la, lb);
            }
        }
    }

    #[test]
    fn pool_sizes_clamp_and_configs_resolve() {
        assert_eq!(JobPool::new(0).workers(), 1);
        assert!(JobPool::host().workers() >= 1);
        assert_eq!(JobPool::clamped(0).workers(), 1);
        assert_eq!(
            JobPool::clamped(usize::MAX).workers(),
            JobPool::host().workers()
        );
    }

    #[test]
    fn run_indexed_is_order_preserving_at_any_width() {
        for workers in [1, 3, 16] {
            let out = JobPool::new(workers).run_indexed(40, |i| i * 2);
            assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
        }
        assert!(JobPool::new(4).run_indexed(0, |i| i).is_empty());
    }
}
