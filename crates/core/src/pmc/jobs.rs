//! The PMC fan-out driver.
//!
//! The paper solves decomposed subproblems "in parallel" on a 10-core
//! server (Observation 1). [`JobPool::run_indexed`] is the workspace's
//! one indexed work-queue driver — one atomic cursor, scoped threads,
//! slot-per-job results — with the worker count explicit, so callers
//! bound the fan-out instead of inheriting host parallelism. It serves
//! [`construct`](super::construct)'s subproblems and the incremental
//! planner's cell re-solves in `detector-system`. Results come back in
//! index order, so every pool width is observably identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A bounded pool of workers.
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
        // the inline path — a plan with a single subproblem or cell
        // takes it on every solve.
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
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *results[i].lock().expect("result slot poisoned") = Some(job(i));
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("missing job result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmc::{decompose, PmcConfig, SubSolution};
    use crate::types::{LinkId, ProbePath};

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    #[test]
    fn every_pool_size_solves_identically() {
        // 8 disjoint two-link components.
        let candidates: Vec<ProbePath> = (0..8u32)
            .flat_map(|c| {
                let base = c * 2;
                [
                    path(c * 3, &[base, base + 1]),
                    path(c * 3 + 1, &[base]),
                    path(c * 3 + 2, &[base + 1]),
                ]
            })
            .collect();
        let subs = decompose(candidates);
        assert_eq!(subs.len(), 8);
        let cfg = PmcConfig::identifiable(1);
        let solve = |workers| {
            JobPool::new(workers).run_indexed(subs.len(), |i| subs[i].solve(&cfg, None).unwrap())
        };
        let selections = |sols: &[SubSolution]| {
            sols.iter()
                .map(|s| (s.targets_met, s.paths.clone()))
                .collect::<Vec<_>>()
        };
        let one = solve(1);
        for workers in [2, 4, 64] {
            assert_eq!(
                selections(&solve(workers)),
                selections(&one),
                "{workers} workers"
            );
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
