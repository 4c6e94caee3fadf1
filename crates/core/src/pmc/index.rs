//! Candidate index: every candidate's links as sorted local indices.
//!
//! The greedy loops read candidates as [`PathRef`]s out of a
//! [`PathStore`] and copy one only when they select it. A subproblem's
//! candidates are indexed once — one run per candidate in the crate's
//! run array ([`Runs`]), its links as
//! dense local indices into the subproblem's universe — and a solve
//! addresses candidates by position: heap and alive entries hold a
//! `u32`, scoring reads a `&[u32]`. Excluding links (the incremental
//! re-plan) does not copy or filter the candidates: the pristine locals
//! are renumbered through a monotone remap onto the restricted universe,
//! and a candidate crossing an excluded link fails the alive test
//! instead.

use std::borrow::Cow;
use std::collections::HashSet;

use super::PmcError;
use crate::dense::Runs;
use crate::types::{LinkId, PathRef, PathStore};

/// Remap entry of a link excluded from the restricted universe.
const EXCLUDED: u32 = u32::MAX;

/// Global link id → dense local index of a universe (local `i` is
/// `universe[i]`, whatever order the universe is in): a lookup is a
/// subtraction and a load in a table over the universe's id span, which
/// link ids, dense per topology, keep within its link count. A link named
/// twice resolves to its last local, as a binary search over sorted
/// `(link, local)` pairs does.
#[derive(Clone, Debug)]
pub(crate) struct LinkLookup {
    /// The smallest link id of the universe.
    first: u32,
    /// Per id from `first` on: its local, or `u32::MAX` if unnamed.
    local: Vec<u32>,
}

impl LinkLookup {
    pub(crate) fn new(universe: &[LinkId]) -> Self {
        let first = universe.iter().map(|l| l.0).min().unwrap_or(0);
        let span = universe.iter().map(|l| (l.0 - first) as usize + 1).max();
        let mut local = vec![u32::MAX; span.unwrap_or(0)];
        for (i, l) in universe.iter().enumerate() {
            local[(l.0 - first) as usize] = i as u32;
        }
        Self { first, local }
    }

    #[inline]
    pub(crate) fn local(&self, link: LinkId) -> Option<u32> {
        let slot = link.0.wrapping_sub(self.first) as usize;
        self.local.get(slot).copied().filter(|&l| l != u32::MAX)
    }
}

/// Candidate `i`'s links as sorted local indices: run `i`.
pub(crate) type CandidateIndex = Runs<u32>;

/// Indexes `candidates` over `universe`; a candidate link outside the
/// universe is an error.
pub(crate) fn candidate_index(
    universe: &[LinkId],
    candidates: &PathStore,
) -> Result<CandidateIndex, PmcError> {
    let lookup = LinkLookup::new(universe);
    candidate_index_with(candidates, |link| lookup.local(link))
}

/// Indexes `candidates`, `local` naming each link's local index (`None`
/// for a link outside the universe, an error).
pub(crate) fn candidate_index_with(
    candidates: &PathStore,
    local: impl Fn(LinkId) -> Option<u32>,
) -> Result<CandidateIndex, PmcError> {
    let mut index = Runs::default();
    index.reserve(candidates.len(), candidates.link_runs().items().len());
    for c in candidates.iter() {
        push_candidate(&mut index, &local, c.links())?;
    }
    Ok(index)
}

/// Appends one candidate's `links`; on a link `local` cannot name,
/// appends nothing and names the link in the error.
pub(crate) fn push_candidate(
    index: &mut CandidateIndex,
    local: impl Fn(LinkId) -> Option<u32>,
    links: &[LinkId],
) -> Result<(), PmcError> {
    let mut unknown = None;
    let locals = links.iter().map_while(|&link| {
        let found = local(link);
        unknown = found.is_none().then_some(link);
        found
    });
    index.push_run(locals).sort_unstable();
    match unknown {
        Some(link) => {
            index.pop_run();
            Err(PmcError::UnknownLink { link })
        }
        None => Ok(()),
    }
}

/// The candidates of one solve, addressed by index.
pub(crate) trait Pool {
    /// Offers the next batch: calls `admit(i, locals)` for every candidate
    /// of the batch that covers a link and crosses no excluded one, in
    /// candidate order, `locals` being its sorted links in the solve's
    /// universe. A candidate `admit` turns down is never asked for again.
    /// Returns false once no batch is left.
    fn pull(
        &mut self,
        admit: impl FnMut(u32, &[u32]) -> Result<bool, PmcError>,
    ) -> Result<bool, PmcError>;

    /// The locals and the candidate `pull` offered as `i` and `admit`
    /// kept.
    fn get(&mut self, i: u32) -> (&[u32], PathRef<'_>);
}

/// A materialized subproblem seen through its candidate index.
#[derive(Clone, Copy)]
pub(crate) struct IndexedCell<'a> {
    /// Link universe the index numbers its locals in.
    pub(crate) universe: &'a [LinkId],
    pub(crate) candidates: &'a PathStore,
    pub(crate) index: &'a CandidateIndex,
}

/// [`Pool`] over an [`IndexedCell`] with part of its universe excluded:
/// one batch of every surviving candidate.
pub(crate) struct CellPool<'a> {
    cell: IndexedCell<'a>,
    /// The universe without the excluded links, in the cell's order.
    universe: Cow<'a, [LinkId]>,
    /// Cell local → restricted local ([`EXCLUDED`] for an excluded link);
    /// `None` when nothing is excluded. Monotone, so remapped locals stay
    /// sorted.
    remap: Option<Vec<u32>>,
    /// Remapped locals of the candidate last looked at.
    scratch: Vec<u32>,
    pulled: bool,
}

impl<'a> CellPool<'a> {
    pub(crate) fn new(cell: IndexedCell<'a>, excluded: &HashSet<LinkId>) -> Self {
        let hit = !excluded.is_empty() && cell.universe.iter().any(|l| excluded.contains(l));
        let (universe, remap) = if hit {
            let mut universe = Vec::with_capacity(cell.universe.len());
            let remap = cell
                .universe
                .iter()
                .map(|l| {
                    if excluded.contains(l) {
                        EXCLUDED
                    } else {
                        universe.push(*l);
                        universe.len() as u32 - 1
                    }
                })
                .collect();
            (Cow::Owned(universe), Some(remap))
        } else {
            (Cow::Borrowed(cell.universe), None)
        };
        Self {
            cell,
            universe,
            remap,
            scratch: Vec::new(),
            pulled: false,
        }
    }

    /// The restricted universe candidates' locals index into.
    pub(crate) fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    /// The candidates [`Pool::pull`] would offer that cross a link
    /// flagged in `flagged` (indexed by restricted local), in candidate
    /// order — found on the pristine index rows, one flag lookup per
    /// link, without renumbering a candidate that is not kept.
    pub(crate) fn crossing(&self, flagged: &[bool]) -> Vec<u32> {
        const FLAGGED: u8 = 1;
        const DEAD: u8 = 2;
        // Per cell local: flagged, excluded, or neither.
        let class: Vec<u8> = match &self.remap {
            None => flagged.iter().map(|&f| u8::from(f)).collect(),
            Some(remap) => remap
                .iter()
                .map(|&r| match r {
                    EXCLUDED => DEAD,
                    r => u8::from(flagged[r as usize]),
                })
                .collect(),
        };
        let index = self.cell.index;
        (0..index.len() as u32)
            .filter(|&i| {
                let classes = index.run(i as usize).iter().map(|&l| class[l as usize]);
                classes.fold(0, |seen, c| seen | c) == FLAGGED
            })
            .collect()
    }
}

/// Candidate `i`'s locals in the restricted universe; `None` if it covers
/// no link or crosses an excluded one.
fn restricted<'s>(
    index: &'s CandidateIndex,
    remap: Option<&[u32]>,
    scratch: &'s mut Vec<u32>,
    i: usize,
) -> Option<&'s [u32]> {
    let locals = index.run(i);
    if locals.is_empty() {
        return None;
    }
    let Some(remap) = remap else {
        return Some(locals);
    };
    scratch.clear();
    for &l in locals {
        let r = remap[l as usize];
        if r == EXCLUDED {
            return None;
        }
        scratch.push(r);
    }
    Some(scratch)
}

impl Pool for CellPool<'_> {
    fn pull(
        &mut self,
        mut admit: impl FnMut(u32, &[u32]) -> Result<bool, PmcError>,
    ) -> Result<bool, PmcError> {
        if self.pulled {
            return Ok(false);
        }
        self.pulled = true;
        for i in 0..self.cell.index.len() {
            if let Some(locals) =
                restricted(self.cell.index, self.remap.as_deref(), &mut self.scratch, i)
            {
                admit(i as u32, locals)?;
            }
        }
        Ok(true)
    }

    fn get(&mut self, i: u32) -> (&[u32], PathRef<'_>) {
        let i = i as usize;
        let locals = restricted(self.cell.index, self.remap.as_deref(), &mut self.scratch, i)
            .expect("only offered candidates are asked for");
        (locals, self.cell.candidates.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NodeId, PathId, ProbePath};

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    #[test]
    fn locals_follow_universe_order_and_come_out_sorted() {
        // Local numbering follows the universe's (unsorted) order, so a
        // path's link order and its local order may disagree.
        let universe = [LinkId(30), LinkId(10), LinkId(20)];
        let candidates = vec![path(0, &[10, 30]), path(1, &[]), path(2, &[20])];
        let index = candidate_index(&universe, &candidates.into()).unwrap();
        assert_eq!(index.len(), 3);
        assert_eq!(index.run(0), &[0, 1]);
        assert!(index.run(1).is_empty());
        assert_eq!(index.run(2), &[2]);
    }

    #[test]
    fn unknown_link_is_reported_and_leaves_the_index_intact() {
        let lookup = LinkLookup::new(&[LinkId(0), LinkId(1)]);
        let local = |link| lookup.local(link);
        let mut index = CandidateIndex::default();
        push_candidate(&mut index, local, path(0, &[1]).links()).unwrap();
        let err = push_candidate(&mut index, local, path(1, &[0, 7]).links()).unwrap_err();
        assert_eq!(err, PmcError::UnknownLink { link: LinkId(7) });
        assert_eq!(index.len(), 1);
        push_candidate(&mut index, local, path(2, &[0]).links()).unwrap();
        assert_eq!(index.run(1), &[0]);
        index.pop_run();
        assert_eq!(index.len(), 1);
        assert_eq!(index.run(0), &[1]);
    }

    fn locals(lookup: &LinkLookup, links: std::ops::Range<u32>) -> Vec<Option<u32>> {
        links.map(|l| lookup.local(LinkId(l))).collect()
    }

    #[test]
    fn lookup_follows_an_unsorted_universe_with_a_gap() {
        // Ids 10..=15 with 12 and 13 missing, in no order: the span is
        // 10..=15, and ids below, inside the gap and above name nothing.
        let lookup = LinkLookup::new(&[LinkId(14), LinkId(10), LinkId(15), LinkId(11)]);
        let want = [
            None,
            None,
            Some(1),
            Some(3),
            None,
            None,
            Some(0),
            Some(2),
            None,
        ];
        assert_eq!(locals(&lookup, 8..17), want);
        assert_eq!(lookup.local(LinkId(u32::MAX)), None);
        assert_eq!(lookup.local(LinkId(0)), None);
    }

    #[test]
    fn lookup_of_an_empty_or_single_link_universe() {
        let empty = LinkLookup::new(&[]);
        assert_eq!(locals(&empty, 0..3), [None; 3]);
        let high = LinkLookup::new(&[LinkId(u32::MAX - 1)]);
        assert_eq!(high.local(LinkId(u32::MAX - 1)), Some(0));
        assert_eq!(high.local(LinkId(u32::MAX)), None);
        assert_eq!(high.local(LinkId(0)), None);
    }

    #[test]
    fn a_link_named_twice_resolves_to_its_last_local() {
        // The binary search over sorted `(link, local)` pairs that the
        // table replaced landed on the last of equal keys; the table
        // keeps that answer, wherever the repeats sit.
        for universe in [&[5, 5][..], &[5, 1, 5], &[1, 5, 7, 5, 9], &[5, 5, 5, 2]] {
            let universe: Vec<LinkId> = universe.iter().copied().map(LinkId).collect();
            let last = universe.iter().rposition(|&l| l == LinkId(5)).unwrap() as u32;
            assert_eq!(LinkLookup::new(&universe).local(LinkId(5)), Some(last));
        }
    }

    #[test]
    fn exclusion_renumbers_survivors_and_kills_crossing_candidates() {
        // A cell backed by a batch, as the enumerators write one: links in
        // hop order, nodes kept as given.
        let universe: Vec<LinkId> = (0..4).map(LinkId).collect();
        let mut candidates = PathStore::default();
        let route = |ns: &[u32]| ns.iter().copied().map(NodeId).collect::<Vec<_>>();
        let links = |ls: &[u32]| ls.iter().copied().map(LinkId).collect::<Vec<_>>();
        candidates.push(10, &route(&[0, 1, 2]), &links(&[1, 0]));
        candidates.push(11, &route(&[2, 3]), &links(&[3, 2, 3]));
        candidates.push(12, &route(&[4]), &[]);
        candidates.push(13, &route(&[3, 5]), &links(&[3]));
        let index = candidate_index(&universe, &candidates).unwrap();
        let cell = IndexedCell {
            universe: &universe,
            candidates: &candidates,
            index: &index,
        };
        let excluded: HashSet<LinkId> = [LinkId(1), LinkId(9)].into_iter().collect();
        let mut pool = CellPool::new(cell, &excluded);
        assert_eq!(pool.universe(), &[LinkId(0), LinkId(2), LinkId(3)]);
        let mut offered = Vec::new();
        assert!(pool
            .pull(|i, locals| {
                offered.push((i, locals.to_vec()));
                Ok(true)
            })
            .unwrap());
        assert_eq!(offered, vec![(1, vec![1, 2]), (3, vec![2])]);
        assert!(!pool.pull(|_, _| Ok(true)).unwrap());
        let (locals, c) = pool.get(3);
        assert_eq!(locals, &[2u32][..]);
        assert_eq!(c, candidates.get(3));
        assert_eq!(
            (c.id, c.nodes(), c.links()),
            (PathId(13), &route(&[3, 5])[..], &links(&[3])[..])
        );
        // The one candidate a path is built for reads back whole.
        let (_, c) = pool.get(1);
        let twin = ProbePath::from_route(11, route(&[2, 3]), links(&[2, 3]));
        assert_eq!(c, PathRef::from(&twin));
        // Flags are in restricted locals: link 2 is local 1, link 3 local 2.
        assert_eq!(pool.crossing(&[true, false, false]), Vec::<u32>::new());
        assert_eq!(pool.crossing(&[false, true, false]), vec![1]);
        assert_eq!(pool.crossing(&[true, false, true]), vec![1, 3]);

        // Excluding nothing the universe holds borrows everything.
        let none: HashSet<LinkId> = [LinkId(9)].into_iter().collect();
        let mut pool = CellPool::new(cell, &none);
        assert_eq!(pool.universe(), &universe[..]);
        assert_eq!(pool.get(1).0, &[2, 3]);
        assert_eq!(pool.get(0), (&[0, 1][..], candidates.get(0)));
    }
}
