//! Tests of the subproblem fan-out.
//!
//! The paper solves decomposed subproblems "in parallel" on a 10-core
//! server; [`construct`] does the same through [`JobPool::run_indexed`],
//! which returns results in job order, so the parallel path must be
//! observably identical to solving each subproblem in turn.

use super::{construct, decompose, merge_solutions, JobPool, PmcConfig};
use crate::types::{LinkId, ProbePath};
use std::sync::atomic::{AtomicUsize, Ordering};

mod tests {
    use super::*;

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
        let subs = decompose(candidates.clone());
        assert_eq!(subs.len(), 8);
        let cfg = PmcConfig::identifiable(1);
        let mut seq = Vec::new();
        for sp in &subs {
            seq.push(sp.solve(&cfg, None).unwrap());
        }
        let seq = merge_solutions(16, Vec::new(), seq, &cfg);
        let par = construct(16, candidates, &cfg).unwrap();
        assert_eq!(par.paths, seq.paths);
        assert_eq!(par.achieved, seq.achieved);
    }

    #[test]
    fn empty_input_is_fine() {
        let cfg = PmcConfig::identifiable(1);
        assert!(decompose(Vec::new()).is_empty());
        let out = construct(0, Vec::new(), &cfg).unwrap();
        assert!(out.paths.is_empty());
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
