//! Incremental candidate providers (the symmetry-reduction interface,
//! Observation 3 of §4.3).
//!
//! For large data centers the full candidate path set cannot be
//! materialized (a 64-radix Fattree has ~4.3 × 10⁹ ToR-pair paths). The
//! topology crate instead exposes *providers* that generate candidates in
//! symmetric "rounds" — orbit tilings under the topology's automorphism
//! group — and the lazy greedy pulls further rounds only while its (α, β)
//! targets are unmet.
//!
//! Both candidate sources write a flat [`CandidateBatch`]: a provider
//! writes its rounds into one that the pool reuses for every pull, and
//! `DcnTopology::enumerate_candidates` writes a small topology's whole
//! candidate set into one that its [`Subproblem`](super::Subproblem)s
//! keep. The pool keeps the candidates the greedy admits flat as well,
//! and either source builds a [`ProbePath`] only for a selected one.

use super::index::{push_candidate, CandidateIndex, LinkLookup, Pool};
use super::PmcError;
use crate::dense::Runs;
use crate::types::{LinkId, NodeId, PathId, ProbePath};

/// One candidate of a batch, or a [`ProbePath`] seen as one: its id,
/// its node sequence and its sorted, de-duplicated links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate<'a> {
    /// The provider's id for the candidate.
    pub id: PathId,
    /// Node sequence (empty for an abstract path).
    pub nodes: &'a [NodeId],
    /// Sorted, de-duplicated links.
    pub links: &'a [LinkId],
}

impl Candidate<'_> {
    /// The candidate as an owned path.
    pub fn to_path(&self) -> ProbePath {
        ProbePath::from_route(self.id.0, self.nodes.to_vec(), self.links.to_vec())
    }
}

impl<'a> From<&'a ProbePath> for Candidate<'a> {
    fn from(path: &'a ProbePath) -> Self {
        let (nodes, links) = path.route();
        Self {
            id: path.id,
            nodes,
            links,
        }
    }
}

/// Candidates written flat: candidate `i` is its id and run `i` of the
/// nodes and of the links ([`Runs`]); clearing keeps the memory.
#[derive(Clone, Debug, Default)]
pub struct CandidateBatch {
    ids: Vec<PathId>,
    nodes: Runs<NodeId>,
    links: Runs<LinkId>,
    /// Scratch: the links of the candidate being pushed, to sort.
    sorting: Vec<LinkId>,
}

impl CandidateBatch {
    /// Reserves room for `candidates` more candidates of `nodes` more
    /// nodes and `links` more links in all.
    pub fn reserve(&mut self, candidates: usize, nodes: usize, links: usize) {
        self.ids.reserve(candidates);
        self.nodes.reserve(candidates, nodes);
        self.links.reserve(candidates, links);
    }

    /// Empties the batch, keeping the memory.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.nodes.clear();
        self.links.clear();
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch holds no candidate.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends a candidate from its route: `links` in hop order, as
    /// [`ProbePath::from_route`] takes them (sorted and de-duplicated
    /// here).
    pub fn push(&mut self, id: u32, nodes: &[NodeId], links: &[LinkId]) {
        self.sorting.clear();
        self.sorting.extend_from_slice(links);
        self.sorting.sort_unstable();
        self.sorting.dedup();
        self.ids.push(PathId(id));
        self.nodes.push_run(nodes.iter().copied());
        self.links.push_run(self.sorting.iter().copied());
    }

    /// Appends a copy of `candidate`, whose links are already a sorted
    /// set.
    pub(crate) fn push_candidate(&mut self, candidate: Candidate<'_>) {
        self.ids.push(candidate.id);
        self.nodes.push_run(candidate.nodes.iter().copied());
        self.links.push_run(candidate.links.iter().copied());
    }

    /// Candidate `i`; panics past the last.
    pub(crate) fn get(&self, i: usize) -> Candidate<'_> {
        Candidate {
            id: self.ids[i],
            nodes: self.nodes.run(i),
            links: self.links.run(i),
        }
    }

    /// Every candidate, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Candidate<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every candidate's links, back to back.
    pub(crate) fn all_links(&self) -> &[LinkId] {
        self.links.items()
    }
}

impl From<&[ProbePath]> for CandidateBatch {
    fn from(paths: &[ProbePath]) -> Self {
        let mut batch = Self::default();
        batch.reserve(
            paths.len(),
            paths.iter().map(|p| p.nodes().len()).sum(),
            paths.iter().map(ProbePath::len).sum(),
        );
        for p in paths {
            batch.push_candidate(Candidate::from(p));
        }
        batch
    }
}

/// Hand-built paths as a batch, so the entry points that take a
/// candidate set take a `Vec<ProbePath>` as they always did.
impl From<Vec<ProbePath>> for CandidateBatch {
    fn from(paths: Vec<ProbePath>) -> Self {
        Self::from(&paths[..])
    }
}

/// A source of candidate probe paths for one PMC subproblem.
pub trait CandidateProvider {
    /// The physical-link universe the candidates range over. Every link in
    /// the universe must be coverable by some candidate for the coverage
    /// target to be attainable.
    fn universe(&self) -> &[LinkId];

    /// Appends the next batch of candidates to `batch`, which the caller
    /// hands in empty; leaving it empty signals exhaustion (the provider
    /// will not be polled again).
    fn next_batch(&mut self, batch: &mut CandidateBatch);
}

impl<T: CandidateProvider + ?Sized> CandidateProvider for Box<T> {
    fn universe(&self) -> &[LinkId] {
        (**self).universe()
    }

    fn next_batch(&mut self, batch: &mut CandidateBatch) {
        (**self).next_batch(batch)
    }
}

/// Provider over a fully materialized candidate set, handed out in chunks.
#[derive(Clone, Debug)]
pub struct ExhaustiveProvider {
    universe: Vec<LinkId>,
    candidates: CandidateBatch,
    /// The first candidate not handed out yet.
    next: usize,
    batch_size: usize,
}

impl ExhaustiveProvider {
    /// Builds a provider whose universe is inferred from the candidates.
    pub fn new(candidates: impl Into<CandidateBatch>) -> Self {
        let candidates = candidates.into();
        let mut universe = candidates.all_links().to_vec();
        universe.sort_unstable();
        universe.dedup();
        Self::with_universe(universe, candidates)
    }

    /// Builds a provider over an explicit universe.
    pub fn with_universe(universe: Vec<LinkId>, candidates: impl Into<CandidateBatch>) -> Self {
        let candidates = candidates.into();
        Self {
            universe,
            batch_size: candidates.len().max(1),
            candidates,
            next: 0,
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

    fn next_batch(&mut self, batch: &mut CandidateBatch) {
        let end = self.candidates.len().min(self.next + self.batch_size);
        for i in self.next..end {
            batch.push_candidate(self.candidates.get(i));
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
    unfiltered: CandidateBatch,
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
            unfiltered: CandidateBatch::default(),
        }
    }
}

impl<P: CandidateProvider> CandidateProvider for ExcludingProvider<P> {
    fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    fn next_batch(&mut self, batch: &mut CandidateBatch) {
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
                if !c.links.iter().any(|l| self.excluded.contains(l)) {
                    batch.push_candidate(c);
                }
            }
        }
    }
}

/// [`Pool`] fed by a provider: every pulled batch is indexed and the
/// candidates the greedy keeps are copied out of it, so the loop that
/// serves materialized cells serves providers too.
pub(crate) struct ProviderPool<P> {
    provider: P,
    lookup: LinkLookup,
    /// The batch every pull refills.
    batch: CandidateBatch,
    /// The kept candidates, a chunk per pull.
    chunks: Vec<Chunk>,
}

/// The candidates one pull kept and their locals, reserved at their
/// batch's size: one array grown by doubling made a Fattree(32) base
/// solve, which keeps 69 232 candidates, a third slower.
#[derive(Default)]
struct Chunk {
    /// Number of the chunk's first candidate.
    first: u32,
    kept: CandidateBatch,
    /// Candidate `i`'s locals are run `i`.
    index: CandidateIndex,
}

impl<P: CandidateProvider> ProviderPool<P> {
    pub(crate) fn new(provider: P) -> Self {
        Self {
            lookup: LinkLookup::new(provider.universe()),
            provider,
            batch: CandidateBatch::default(),
            chunks: Vec::new(),
        }
    }
}

impl<P: CandidateProvider> Pool for ProviderPool<P> {
    fn pull(
        &mut self,
        mut admit: impl FnMut(u32, &[u32]) -> Result<bool, PmcError>,
    ) -> Result<bool, PmcError> {
        self.batch.clear();
        self.provider.next_batch(&mut self.batch);
        if self.batch.is_empty() {
            return Ok(false);
        }
        let (batch, last) = (&self.batch, self.chunks.last());
        let mut chunk = Chunk {
            first: last.map_or(0, |c| c.first + c.kept.len() as u32),
            ..Chunk::default()
        };
        let (nodes, links) = (batch.nodes.items().len(), batch.links.items().len());
        chunk.kept.ids.reserve(batch.len());
        chunk.kept.nodes.reserve(batch.len(), nodes);
        chunk.kept.links.reserve(batch.len(), links);
        chunk.index.reserve(batch.len(), links);
        for c in batch.iter() {
            if c.links.is_empty() {
                continue;
            }
            let i = chunk.kept.len();
            push_candidate(&mut chunk.index, |link| self.lookup.local(link), c.links)?;
            if admit(chunk.first + i as u32, chunk.index.run(i))? {
                chunk.kept.push_candidate(c);
            } else {
                chunk.index.pop_run();
            }
        }
        if !chunk.kept.is_empty() {
            self.chunks.push(chunk);
        }
        Ok(true)
    }

    fn get(&mut self, i: u32) -> (&[u32], Candidate<'_>) {
        let at = self.chunks.partition_point(|c| c.first <= i) - 1;
        let chunk = &self.chunks[at];
        let k = (i - chunk.first) as usize;
        (chunk.index.run(k), chunk.kept.get(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    /// Every candidate `provider` hands out, one `Vec` per batch.
    fn drain(provider: &mut impl CandidateProvider) -> Vec<Vec<ProbePath>> {
        let mut batch = CandidateBatch::default();
        let mut batches = Vec::new();
        loop {
            batch.clear();
            provider.next_batch(&mut batch);
            if batch.is_empty() {
                return batches;
            }
            batches.push(batch.iter().map(|c| c.to_path()).collect());
        }
    }

    #[test]
    fn a_batch_sorts_and_dedups_links_and_keeps_nodes_in_order() {
        let mut batch = CandidateBatch::default();
        batch.push(
            7,
            &[NodeId(3), NodeId(1), NodeId(3)],
            &[LinkId(5), LinkId(2), LinkId(5)],
        );
        let p = path(9, &[4]);
        batch.push_candidate(Candidate::from(&p));
        batch.push(8, &[], &[]);
        assert_eq!(batch.len(), 3);
        let c = batch.get(0);
        assert_eq!(c.id, PathId(7));
        assert_eq!(c.nodes, &[NodeId(3), NodeId(1), NodeId(3)]);
        assert_eq!(c.links, &[LinkId(2), LinkId(5)]);
        let twin =
            ProbePath::from_route(7, c.nodes.to_vec(), vec![LinkId(5), LinkId(2), LinkId(5)]);
        assert_eq!(c.to_path(), twin);
        assert_eq!(batch.get(1).to_path(), p);
        assert!(batch.get(2).links.is_empty());
        // A refill keeps nothing of what the batch held.
        batch.clear();
        assert!(batch.is_empty());
        batch.push(1, &[], &[LinkId(0)]);
        assert_eq!(
            batch.iter().map(|c| c.to_path()).collect::<Vec<_>>(),
            vec![path(1, &[0])]
        );
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
        let mut batch = CandidateBatch::default();
        p.next_batch(&mut batch);
        assert_eq!(batch.len(), 2);
        batch.clear();
        p.next_batch(&mut batch);
        assert_eq!(
            batch.iter().map(|c| c.to_path()).collect::<Vec<_>>(),
            vec![path(2, &[2])]
        );
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
        let got: Vec<ProbePath> = drain(&mut p).concat();
        assert_eq!(got, vec![path(2, &[2]), path(3, &[0, 2])]);
    }

    #[test]
    fn excluding_provider_skips_fully_filtered_batches() {
        // Batch size 1 forces batches that filtering empties entirely;
        // the adapter must keep pulling instead of reporting exhaustion.
        let inner = ExhaustiveProvider::new(vec![path(0, &[1]), path(1, &[1]), path(2, &[0])])
            .with_batch_size(1);
        let excluded: std::collections::HashSet<LinkId> = [LinkId(1)].into_iter().collect();
        let mut p = ExcludingProvider::new(inner, excluded);
        assert_eq!(drain(&mut p), vec![vec![path(2, &[0])]]);
    }
}
