//! Parallel subproblem driver.
//!
//! The paper solves decomposed subproblems "in parallel" on a 10-core
//! server; we do the same with scoped threads pulling indexed jobs from
//! a shared work queue ([`JobPool::run_indexed`]). Results are returned
//! in job order, so the parallel path is observably identical to the
//! sequential one. The same driver powers the incremental planner's
//! multi-cell patch re-solves in `detector-system`.

use std::time::Instant;

use super::decompose::Subproblem;
use super::{JobPool, PmcConfig, PmcError, SubSolution};

/// Solves `subproblems` on a pool sized to the host's parallelism.
pub fn construct_decomposed_parallel(
    subproblems: Vec<Subproblem>,
    cfg: &PmcConfig,
    deadline: Option<Instant>,
) -> Result<Vec<SubSolution>, PmcError> {
    JobPool::host()
        .run_indexed(subproblems.len(), |i| subproblems[i].solve(cfg, deadline))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LinkId, ProbePath};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    #[test]
    fn parallel_matches_sequential() {
        // 8 disjoint two-link components.
        let mut candidates = Vec::new();
        for c in 0..8u32 {
            let base = c * 2;
            candidates.push(path(c * 3, &[base, base + 1]));
            candidates.push(path(c * 3 + 1, &[base]));
            candidates.push(path(c * 3 + 2, &[base + 1]));
        }
        let subs = super::super::decompose(candidates);
        assert_eq!(subs.len(), 8);
        let cfg = PmcConfig::identifiable(1);
        let par = construct_decomposed_parallel(subs.clone(), &cfg, None).unwrap();
        let mut seq = Vec::new();
        for sp in &subs {
            seq.push(sp.solve(&cfg, None).unwrap());
        }
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(seq.iter()) {
            assert_eq!(a.targets_met, b.targets_met);
            assert_eq!(a.paths.len(), b.paths.len());
            let la: Vec<_> = a.paths.iter().map(|p| p.links().to_vec()).collect();
            let lb: Vec<_> = b.paths.iter().map(|p| p.links().to_vec()).collect();
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let cfg = PmcConfig::identifiable(1);
        let out = construct_decomposed_parallel(Vec::new(), &cfg, None).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn indexed_driver_preserves_order_and_runs_each_job_once() {
        let calls = AtomicUsize::new(0);
        let out = JobPool::host().run_indexed(64, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i * i
        });
        assert_eq!(calls.load(Ordering::SeqCst), 64);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        assert!(JobPool::host().run_indexed(0, |i| i).is_empty());
    }
}
