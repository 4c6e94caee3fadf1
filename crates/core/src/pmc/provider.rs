//! Incremental candidate providers (the symmetry-reduction interface,
//! Observation 3 of §4.3).
//!
//! For large data centers the full candidate path set cannot be
//! materialized (a 64-radix Fattree has ~4.3 × 10⁹ ToR-pair paths). The
//! topology crate instead exposes *providers* that generate candidates in
//! symmetric "rounds" — orbit tilings under the topology's automorphism
//! group — and the lazy greedy pulls further rounds only while its (α, β)
//! targets are unmet. [`ExcludingProvider`] drops failed or drained links
//! from any provider, for the planner's per-replica re-solve.
//!
//! Both candidate sources write a flat [`PathStore`]: a provider fills
//! a fresh one on every pull, which the pool keeps whole with the
//! positions of the candidates the greedy admits, and
//! `DcnTopology::enumerate_candidates` writes a small topology's whole
//! candidate set into one that its [`Subproblem`](super::Subproblem)s
//! keep, solved on their own candidate index without any provider. A
//! selected candidate is copied once, into the solve's own store.
//!
//! The tests' `ExhaustiveProvider` hands a materialized set out in
//! chunks: the reference oracle's lazy greedy and the adapter tests run
//! on it.

use super::index::{push_candidate, CandidateIndex, LinkLookup, Pool};
use super::PmcError;
use crate::types::{LinkId, PathRef, PathStore};

/// A source of candidate probe paths for one PMC subproblem.
pub trait CandidateProvider {
    /// The physical-link universe the candidates range over. Every link in
    /// the universe must be coverable by some candidate for the coverage
    /// target to be attainable.
    fn universe(&self) -> &[LinkId];

    /// Appends the next batch of candidates to `batch`, which the caller
    /// hands in empty; leaving it empty signals exhaustion (the provider
    /// will not be polled again).
    fn next_batch(&mut self, batch: &mut PathStore);
}

impl<T: CandidateProvider + ?Sized> CandidateProvider for Box<T> {
    fn universe(&self) -> &[LinkId] {
        (**self).universe()
    }

    fn next_batch(&mut self, batch: &mut PathStore) {
        (**self).next_batch(batch)
    }
}

/// Provider over a fully materialized candidate set, handed out in chunks.
#[cfg(test)]
#[derive(Clone, Debug)]
pub(crate) struct ExhaustiveProvider {
    universe: Vec<LinkId>,
    candidates: PathStore,
    /// The first candidate not handed out yet.
    next: usize,
    batch_size: usize,
}

#[cfg(test)]
impl ExhaustiveProvider {
    /// Builds a provider whose universe is inferred from the candidates.
    pub(crate) fn new(candidates: impl Into<PathStore>) -> Self {
        let candidates = candidates.into();
        let mut universe = candidates.link_runs().items().to_vec();
        universe.sort_unstable();
        universe.dedup();
        Self::with_universe(universe, candidates)
    }

    /// Builds a provider over an explicit universe.
    pub(crate) fn with_universe(universe: Vec<LinkId>, candidates: impl Into<PathStore>) -> Self {
        let candidates = candidates.into();
        Self {
            universe,
            batch_size: candidates.len().max(1),
            candidates,
            next: 0,
        }
    }

    /// Limits how many candidates are handed out per batch.
    pub(crate) fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

#[cfg(test)]
impl CandidateProvider for ExhaustiveProvider {
    fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    fn next_batch(&mut self, batch: &mut PathStore) {
        let end = self.candidates.len().min(self.next + self.batch_size);
        for i in self.next..end {
            batch.push_path(self.candidates.get(i));
        }
        self.next = end;
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
    /// The inner provider's batch, before filtering.
    unfiltered: PathStore,
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
            unfiltered: PathStore::default(),
        }
    }
}

impl<P: CandidateProvider> CandidateProvider for ExcludingProvider<P> {
    fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    fn next_batch(&mut self, batch: &mut PathStore) {
        // An empty batch signals exhaustion to the greedy loop, so keep
        // pulling while filtering leaves nothing (a batch may cross the
        // excluded links entirely).
        while batch.is_empty() {
            self.unfiltered.clear();
            self.inner.next_batch(&mut self.unfiltered);
            if self.unfiltered.is_empty() {
                return;
            }
            for c in self.unfiltered.iter() {
                if !c.links().iter().any(|l| self.excluded.contains(l)) {
                    batch.push_path(c);
                }
            }
        }
    }
}

/// [`Pool`] fed by a provider: every pull fills a fresh batch, indexes
/// it, and keeps it whole with the positions of the candidates the
/// greedy admits, so the loop that serves materialized cells serves
/// providers too and no candidate is copied until it is selected.
pub(crate) struct ProviderPool<P> {
    provider: P,
    lookup: LinkLookup,
    /// The pulls that kept a candidate.
    chunks: Vec<Chunk>,
    /// A pull that kept nothing, cleared for the next one.
    spare: PathStore,
}

/// One pull: its batch, the positions of the candidates it kept and
/// their locals, reserved at the batch's size.
struct Chunk {
    /// Number of the chunk's first kept candidate.
    first: u32,
    batch: PathStore,
    /// Kept candidate `i` is `batch`'s candidate `kept[i]`.
    kept: Vec<u32>,
    /// Kept candidate `i`'s locals are run `i`.
    index: CandidateIndex,
}

impl<P: CandidateProvider> ProviderPool<P> {
    pub(crate) fn new(provider: P) -> Self {
        Self {
            lookup: LinkLookup::new(provider.universe()),
            provider,
            chunks: Vec::new(),
            spare: PathStore::default(),
        }
    }
}

impl<P: CandidateProvider> Pool for ProviderPool<P> {
    fn pull(
        &mut self,
        mut admit: impl FnMut(u32, &[u32]) -> Result<bool, PmcError>,
    ) -> Result<bool, PmcError> {
        let mut batch = std::mem::take(&mut self.spare);
        if let Some(last) = self.chunks.last() {
            batch.reserve_all([&last.batch]);
        }
        self.provider.next_batch(&mut batch);
        if batch.is_empty() {
            return Ok(false);
        }
        let first = (self.chunks.last()).map_or(0, |c| c.first + c.kept.len() as u32);
        let mut kept = Vec::with_capacity(batch.len());
        let mut index = CandidateIndex::default();
        index.reserve(batch.len(), batch.link_runs().items().len());
        for (at, c) in batch.iter().enumerate() {
            if c.is_empty() {
                continue;
            }
            let i = kept.len();
            push_candidate(&mut index, |link| self.lookup.local(link), c.links())?;
            if admit(first + i as u32, index.run(i))? {
                kept.push(at as u32);
            } else {
                index.pop_run();
            }
        }
        if kept.is_empty() {
            batch.clear();
            self.spare = batch;
        } else {
            self.chunks.push(Chunk {
                first,
                batch,
                kept,
                index,
            });
        }
        Ok(true)
    }

    fn get(&mut self, i: u32) -> (&[u32], PathRef<'_>) {
        let at = self.chunks.partition_point(|c| c.first <= i) - 1;
        let chunk = &self.chunks[at];
        let k = (i - chunk.first) as usize;
        (chunk.index.run(k), chunk.batch.get(chunk.kept[k] as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NodeId, PathId, ProbePath};

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    fn store(paths: Vec<ProbePath>) -> PathStore {
        paths.into()
    }

    /// Every candidate `provider` hands out, one store per batch.
    fn drain(provider: &mut impl CandidateProvider) -> Vec<PathStore> {
        let mut batches = Vec::new();
        loop {
            let mut batch = PathStore::default();
            provider.next_batch(&mut batch);
            if batch.is_empty() {
                return batches;
            }
            batches.push(batch);
        }
    }

    #[test]
    fn a_batch_sorts_and_dedups_links_and_keeps_nodes_in_order() {
        let mut batch = PathStore::default();
        batch.push(
            7,
            &[NodeId(3), NodeId(1), NodeId(3)],
            &[LinkId(5), LinkId(2), LinkId(5)],
        );
        let p = path(9, &[4]);
        batch.push_path((&p).into());
        batch.push(8, &[], &[]);
        assert_eq!(batch.len(), 3);
        let c = batch.get(0);
        assert_eq!(c.id, PathId(7));
        assert_eq!(c.nodes(), &[NodeId(3), NodeId(1), NodeId(3)]);
        assert_eq!(c.links(), &[LinkId(2), LinkId(5)]);
        let twin =
            ProbePath::from_route(7, c.nodes().to_vec(), vec![LinkId(5), LinkId(2), LinkId(5)]);
        assert_eq!(c, PathRef::from(&twin));
        assert_eq!(batch.get(1), PathRef::from(&p));
        assert!(batch.get(2).links().is_empty());
        // A refill keeps nothing of what the batch held.
        batch.clear();
        assert!(batch.is_empty());
        batch.push(1, &[], &[LinkId(0)]);
        assert_eq!(batch, store(vec![path(1, &[0])]));
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
        let mut batch = PathStore::default();
        p.next_batch(&mut batch);
        assert_eq!(batch.len(), 2);
        batch.clear();
        p.next_batch(&mut batch);
        assert_eq!(batch, store(vec![path(2, &[2])]));
        batch.clear();
        p.next_batch(&mut batch);
        assert!(batch.is_empty());
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
        // Paths crossing link 1 are gone; the rest keep their ids.
        assert_eq!(
            drain(&mut p),
            vec![store(vec![path(2, &[2]), path(3, &[0, 2])])]
        );
    }

    #[test]
    fn excluding_provider_skips_fully_filtered_batches() {
        // Batch size 1 forces batches that filtering empties entirely;
        // the adapter must keep pulling instead of reporting exhaustion.
        let inner = ExhaustiveProvider::new(vec![path(0, &[1]), path(1, &[1]), path(2, &[0])])
            .with_batch_size(1);
        let excluded: std::collections::HashSet<LinkId> = [LinkId(1)].into_iter().collect();
        let mut p = ExcludingProvider::new(inner, excluded);
        assert_eq!(drain(&mut p), vec![store(vec![path(2, &[0])])]);
    }
}
