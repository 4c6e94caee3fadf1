//! Incremental candidate providers (the symmetry-reduction interface,
//! Observation 3 of §4.3).
//!
//! For large data centers the full candidate path set cannot be
//! materialized (a 64-radix Fattree has ~4.3 × 10⁹ ToR-pair paths). The
//! topology crate instead exposes *providers* that generate candidates in
//! symmetric "rounds" — orbit tilings under the topology's automorphism
//! group — and the lazy greedy pulls further rounds only while its (α, β)
//! targets are unmet.

use super::index::{push_candidate, CandidateIndex, LinkLookup, Pool};
use super::PmcError;
use crate::types::{LinkId, ProbePath};

/// A source of candidate probe paths for one PMC subproblem.
pub trait CandidateProvider {
    /// The physical-link universe the candidates range over. Every link in
    /// the universe must be coverable by some candidate for the coverage
    /// target to be attainable.
    fn universe(&self) -> &[LinkId];

    /// Returns the next batch of candidates; an empty batch signals
    /// exhaustion (the provider will not be polled again).
    fn next_batch(&mut self) -> Vec<ProbePath>;

    /// Optional estimate of how many candidates remain.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }
}

impl<T: CandidateProvider + ?Sized> CandidateProvider for Box<T> {
    fn universe(&self) -> &[LinkId] {
        (**self).universe()
    }

    fn next_batch(&mut self) -> Vec<ProbePath> {
        (**self).next_batch()
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }
}

/// Provider over a fully materialized candidate set, handed out in chunks.
#[derive(Clone, Debug)]
pub struct ExhaustiveProvider {
    universe: Vec<LinkId>,
    pending: std::vec::IntoIter<ProbePath>,
    batch_size: usize,
}

impl ExhaustiveProvider {
    /// Builds a provider whose universe is inferred from the candidates.
    pub fn new(candidates: Vec<ProbePath>) -> Self {
        let mut universe: Vec<LinkId> = candidates
            .iter()
            .flat_map(|p| p.links().iter().copied())
            .collect();
        universe.sort_unstable();
        universe.dedup();
        Self::with_universe(universe, candidates)
    }

    /// Builds a provider over an explicit universe.
    pub fn with_universe(universe: Vec<LinkId>, candidates: Vec<ProbePath>) -> Self {
        let n = candidates.len();
        Self {
            universe,
            pending: candidates.into_iter(),
            batch_size: n.max(1),
        }
    }

    /// Limits how many candidates are handed out per batch (used in tests
    /// and to bound peak heap size).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

impl CandidateProvider for ExhaustiveProvider {
    fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    fn next_batch(&mut self) -> Vec<ProbePath> {
        self.pending.by_ref().take(self.batch_size).collect()
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.pending.len() as u64)
    }
}

/// A provider adapter that removes a set of excluded (failed/drained)
/// links from a subproblem: the excluded links leave the coverage
/// universe and every candidate crossing one is dropped.
///
/// This is the provider-side half of the incremental re-plan path: when a
/// topology delta hits a symmetric component, the planner re-solves just
/// that component with a fresh base provider wrapped in an
/// `ExcludingProvider` instead of recomputing the whole matrix.
pub struct ExcludingProvider<P> {
    inner: P,
    universe: Vec<LinkId>,
    excluded: std::collections::HashSet<LinkId>,
}

impl<P: CandidateProvider> ExcludingProvider<P> {
    /// Wraps `inner`, excluding `excluded` from its universe and
    /// candidate stream.
    pub fn new(inner: P, excluded: std::collections::HashSet<LinkId>) -> Self {
        let universe = inner
            .universe()
            .iter()
            .copied()
            .filter(|l| !excluded.contains(l))
            .collect();
        Self {
            inner,
            universe,
            excluded,
        }
    }
}

impl<P: CandidateProvider> CandidateProvider for ExcludingProvider<P> {
    fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    fn next_batch(&mut self) -> Vec<ProbePath> {
        // An empty batch signals exhaustion to the greedy loop, so keep
        // pulling while filtering leaves nothing (a batch may cross the
        // excluded links entirely).
        loop {
            let mut batch = self.inner.next_batch();
            if batch.is_empty() {
                return batch;
            }
            batch.retain(|p| !p.links().iter().any(|l| self.excluded.contains(l)));
            if !batch.is_empty() {
                return batch;
            }
        }
    }

    fn remaining_hint(&self) -> Option<u64> {
        // Upper bound: the inner provider's estimate counts candidates
        // that may be filtered out.
        self.inner.remaining_hint()
    }
}

/// [`Pool`] fed by a provider: every pulled batch is indexed and the
/// candidates the greedy keeps are stored, so the loop that serves
/// materialized cells serves providers too.
pub(crate) struct ProviderPool<P> {
    provider: P,
    lookup: LinkLookup,
    /// The kept candidates; `index` holds their locals.
    paths: Vec<ProbePath>,
    index: CandidateIndex,
}

impl<P: CandidateProvider> ProviderPool<P> {
    pub(crate) fn new(provider: P) -> Self {
        Self {
            lookup: LinkLookup::new(provider.universe()),
            provider,
            paths: Vec::new(),
            index: CandidateIndex::default(),
        }
    }
}

impl<P: CandidateProvider> Pool for ProviderPool<P> {
    fn pull(
        &mut self,
        mut admit: impl FnMut(u32, &[u32]) -> Result<bool, PmcError>,
    ) -> Result<bool, PmcError> {
        let batch = self.provider.next_batch();
        if batch.is_empty() {
            return Ok(false);
        }
        for p in batch {
            if p.is_empty() {
                continue;
            }
            let i = self.paths.len();
            push_candidate(&mut self.index, |link| self.lookup.local(link), &p)?;
            if admit(i as u32, self.index.run(i))? {
                self.paths.push(p);
            } else {
                self.index.pop_run();
            }
        }
        Ok(true)
    }

    fn get(&mut self, i: u32) -> (&[u32], &ProbePath) {
        (self.index.run(i as usize), &self.paths[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    #[test]
    fn infers_universe() {
        let p = ExhaustiveProvider::new(vec![path(0, &[3, 1]), path(1, &[7])]);
        assert_eq!(p.universe(), &[LinkId(1), LinkId(3), LinkId(7)]);
    }

    #[test]
    fn batches_respect_size() {
        let mut p = ExhaustiveProvider::new(vec![path(0, &[0]), path(1, &[1]), path(2, &[2])])
            .with_batch_size(2);
        assert_eq!(p.remaining_hint(), Some(3));
        assert_eq!(p.next_batch().len(), 2);
        assert_eq!(p.remaining_hint(), Some(1));
        assert_eq!(p.next_batch().len(), 1);
        assert!(p.next_batch().is_empty());
    }

    #[test]
    fn excluding_provider_shrinks_universe_and_filters_candidates() {
        let inner = ExhaustiveProvider::new(vec![
            path(0, &[0, 1]),
            path(1, &[1, 2]),
            path(2, &[2]),
            path(3, &[0, 2]),
        ]);
        let excluded: std::collections::HashSet<LinkId> = [LinkId(1)].into_iter().collect();
        let mut p = ExcludingProvider::new(inner, excluded);
        assert_eq!(p.universe(), &[LinkId(0), LinkId(2)]);
        let mut got = Vec::new();
        loop {
            let b = p.next_batch();
            if b.is_empty() {
                break;
            }
            got.extend(b);
        }
        // Paths crossing link 1 are gone.
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|p| !p.covers(LinkId(1))));
    }

    #[test]
    fn excluding_provider_skips_fully_filtered_batches() {
        // Batch size 1 forces batches that filtering empties entirely;
        // the adapter must keep pulling instead of reporting exhaustion.
        let inner = ExhaustiveProvider::new(vec![path(0, &[1]), path(1, &[1]), path(2, &[0])])
            .with_batch_size(1);
        let excluded: std::collections::HashSet<LinkId> = [LinkId(1)].into_iter().collect();
        let mut p = ExcludingProvider::new(inner, excluded);
        let first = p.next_batch();
        assert_eq!(first.len(), 1);
        assert!(first[0].covers(LinkId(0)));
        assert!(p.next_batch().is_empty());
    }
}
