//! The link → items index in compressed sparse row (CSR) form.
//!
//! One flat array holds every link's items back to back and one offset
//! array says where each link's run starts, so indexing a window of ~15 k
//! paths over ~16 k links is two passes over the paths (count, then
//! fill) and two allocations — not one growing `Vec` per link.

use crate::types::LinkId;

/// For every link, the items through it: link `l`'s run is
/// `items[offsets[l]..offsets[l + 1]]`, in the order the items were
/// given. Two indexes use it: PLL's per-window link → observation index
/// and a probe matrix's link → row incidence
/// ([`ProbeMatrix::link_rows`](super::ProbeMatrix::link_rows)).
///
/// The index spans `max(min_links, largest link named + 1)` links: a
/// link an item names beyond the declared universe is indexed like any
/// other, and a link no item names has an empty run.
#[derive(Clone, Debug, Default)]
pub struct LinkIndex {
    /// One more than the links indexed; ascending, starting at 0.
    offsets: Vec<usize>,
    items: Vec<u32>,
}

impl LinkIndex {
    /// Indexes the `(item, links)` pairs `entries` yields: a link's run
    /// lists the items naming it in `entries`' order, once per naming.
    /// `entries` is called twice — once to count, once to fill — and
    /// must yield the same pairs both times.
    pub fn build<'a, I>(min_links: usize, entries: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (u32, &'a [LinkId])>,
    {
        // Shifted by two: `offsets[l + 2]` counts link `l`'s items, so
        // after the running sum `offsets[l + 1]` is where its run starts.
        // Filling uses that slot as the run's cursor, which leaves it at
        // the run's end — the start of link `l + 1`'s run.
        let mut offsets = vec![0usize; min_links + 2];
        for (_, links) in entries() {
            for l in links {
                let at = l.index() + 2;
                if at >= offsets.len() {
                    offsets.resize(at + 1, 0);
                }
                if let Some(count) = offsets.get_mut(at) {
                    *count += 1;
                }
            }
        }
        let mut total = 0;
        for o in &mut offsets {
            total += *o;
            *o = total;
        }
        let mut items = vec![0; total];
        for (item, links) in entries() {
            for l in links {
                let Some(cursor) = offsets.get_mut(l.index() + 1) else {
                    continue;
                };
                if let Some(slot) = items.get_mut(*cursor) {
                    *slot = item;
                }
                *cursor += 1;
            }
        }
        offsets.pop();
        Self { offsets, items }
    }

    /// Number of links indexed (see the type doc for the span).
    pub fn num_links(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The items through `link`; empty past the indexed links.
    pub fn items(&self, link: LinkId) -> &[u32] {
        let run = self.offsets.get(link.index()..link.index() + 2);
        match run {
            Some(&[from, to]) => self.items.get(from..to).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Every link's run, ascending by link.
    pub fn runs(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|run| match *run {
            [from, to] => self.items.get(from..to).unwrap_or_default(),
            _ => &[],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn index(min_links: usize, entries: &[(u32, Vec<LinkId>)]) -> LinkIndex {
        LinkIndex::build(min_links, || {
            entries.iter().map(|(i, ls)| (*i, ls.as_slice()))
        })
    }

    #[test]
    fn links_beyond_the_declared_universe_widen_the_index() {
        let ls = |ids: &[u32]| ids.iter().map(|&l| LinkId(l)).collect::<Vec<_>>();
        let idx = index(2, &[(0, ls(&[0, 7])), (1, ls(&[7])), (2, ls(&[9]))]);
        assert_eq!(idx.num_links(), 10);
        assert_eq!(idx.items(LinkId(7)), &[0, 1]);
        assert_eq!(idx.items(LinkId(9)), &[2]);
        assert!(idx.items(LinkId(1)).is_empty() && idx.items(LinkId(10)).is_empty());
        assert_eq!(index(4, &[]).runs().count(), 4);
        assert_eq!(LinkIndex::default().num_links(), 0);
    }

    proptest! {
        /// Every run equals what pushing each item onto a per-link `Vec`
        /// gives, order included, for links on both sides of `min_links`.
        #[test]
        fn runs_equal_per_link_vecs(
            entries in proptest::collection::vec(proptest::collection::vec(0u32..30, 0..5), 0..20),
            min_links in 0usize..20,
        ) {
            let entries: Vec<(u32, Vec<LinkId>)> = (entries.into_iter().enumerate())
                .map(|(i, ls)| (i as u32 * 3, ls.into_iter().map(LinkId).collect()))
                .collect();
            let max = entries.iter().flat_map(|(_, ls)| ls).map(|l| l.index() + 1).max();
            let mut want: Vec<Vec<u32>> = vec![Vec::new(); min_links.max(max.unwrap_or(0))];
            for (i, ls) in &entries {
                for l in ls {
                    want[l.index()].push(*i);
                }
            }
            let idx = index(min_links, &entries);
            prop_assert_eq!(idx.num_links(), want.len());
            prop_assert_eq!(idx.runs().map(<[u32]>::to_vec).collect::<Vec<_>>(), want.clone());
            for (l, run) in want.iter().enumerate() {
                prop_assert_eq!(idx.items(LinkId(l as u32)), run.as_slice());
            }
        }
    }
}
