//! The two tools §4.3's Observation 1 is built from, over dense `u32`
//! keys: [`Runs`], runs of items back to back in one array (compressed
//! sparse rows), and [`UnionFind`], whose sets number in order of their
//! smallest key.
//!
//! PMC splits its candidates into independent subproblems with them
//! ([`decompose`](crate::pmc::decompose) and each subproblem's candidate
//! index); the diagnoser's localizer splits a window's lossy incidence
//! into components with them
//! ([`ComponentPll`](crate::pll::ComponentPll)); the window walk keeps
//! the matrix's row → links incidence and `localize` its link →
//! observations index in a [`Runs`]. Both keep their memory when
//! refilled, so a caller that keeps one across windows or rebuilds
//! allocates only while it grows.

use std::ops::Range;

/// Runs of items, one per key, back to back in one array: run `k` is
/// `items[offsets[k]..offsets[k + 1]]`. Indexing a window of ~15 k paths
/// over ~16 k links is two passes over the pairs (count, then fill) into
/// two arrays — not one growing `Vec` per key. Offsets are `u32`, so one
/// array holds fewer than 2³² items.
#[derive(Clone, Debug, Default)]
pub struct Runs<T> {
    /// One more than the runs (or empty for none); ascending from 0.
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Runs<T> {
    /// Empties to no runs, keeping the memory.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.items.clear();
    }

    /// Reserves room for `runs` more runs of `items` more items.
    pub fn reserve(&mut self, runs: usize, items: usize) {
        self.offsets.reserve(runs + 1);
        self.items.reserve(items);
    }

    /// Appends one run and returns it.
    pub fn push_run(&mut self, items: impl IntoIterator<Item = T>) -> &mut [T] {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let start = self.items.len();
        self.items.extend(items);
        self.offsets.push(self.items.len() as u32);
        self.items.get_mut(start..).unwrap_or_default()
    }

    /// Removes the last run, if any.
    pub fn pop_run(&mut self) {
        if self.offsets.len() > 1 {
            self.offsets.pop();
            let end = self.offsets.last().copied().unwrap_or(0);
            self.items.truncate(end as usize);
        }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether there is no run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `k`; empty past the last.
    #[inline]
    pub fn run(&self, k: usize) -> &[T] {
        self.items.get(self.span(k)).unwrap_or_default()
    }

    /// Where run `k` sits in [`items`](Self::items); empty past the last.
    #[inline]
    pub fn span(&self, k: usize) -> Range<usize> {
        match self.offsets.get(k..k.saturating_add(2)) {
            Some(&[from, to]) => from as usize..to as usize,
            _ => 0..0,
        }
    }

    /// Every run, in key order.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.offsets.windows(2).map(|run| match *run {
            [from, to] => self
                .items
                .get(from as usize..to as usize)
                .unwrap_or_default(),
            _ => &[],
        })
    }

    /// Every run's items, back to back.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// Two run arrays are equal when they hold the same runs: an empty one
/// equals a cleared one whatever its memory or offsets sentinel.
impl<T: PartialEq> PartialEq for Runs<T> {
    fn eq(&self, other: &Self) -> bool {
        self.runs().eq(other.runs())
    }
}

impl<T: Eq> Eq for Runs<T> {}

impl<T: Copy + Default> Runs<T> {
    /// Appends `other`'s runs `keys`, in order, each item through `f`, in
    /// one pass over their items; a range past `other`'s last run appends
    /// nothing.
    pub fn extend_runs(&mut self, other: &Self, keys: Range<usize>, f: impl FnMut(T) -> T) {
        let range = keys.start..keys.end.saturating_add(1);
        let Some(ends @ &[from, .., to]) = other.offsets.get(range) else {
            return;
        };
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let base = self.items.len() as u32;
        (self.offsets).extend(ends.iter().skip(1).map(|&end| end - from + base));
        let items = other.items.get(from as usize..to as usize);
        self.items
            .extend(items.unwrap_or_default().iter().copied().map(f));
    }

    /// Refills, keeping the memory, with the `(key, item)` pairs
    /// `entries` yields: a key's run lists its items in `entries`' order.
    /// There are `keys` runs, or one past the largest key named if that
    /// is more, and a key no pair names has an empty run. `entries` is
    /// called twice — once to count, once to fill — and must yield the
    /// same pairs both times.
    pub fn refill<I>(&mut self, keys: usize, entries: impl Fn() -> I)
    where
        I: Iterator<Item = (u32, T)>,
    {
        // Shifted by two: `offsets[k + 2]` counts key `k`'s items, so
        // after the running sum `offsets[k + 1]` is where its run starts.
        // Filling uses that slot as the run's cursor, which leaves it at
        // the run's end — the start of run `k + 1`.
        self.offsets.clear();
        self.offsets.resize(keys + 2, 0);
        for (k, _) in entries() {
            let at = k as usize + 2;
            if at >= self.offsets.len() {
                self.offsets.resize(at + 1, 0);
            }
            if let Some(count) = self.offsets.get_mut(at) {
                *count += 1;
            }
        }
        let mut total = 0;
        for o in &mut self.offsets {
            total += *o;
            *o = total;
        }
        self.items.clear();
        self.items.resize(total as usize, T::default());
        for (k, item) in entries() {
            let Some(cursor) = self.offsets.get_mut(k as usize + 1) else {
                continue;
            };
            if let Some(slot) = self.items.get_mut(*cursor as usize) {
                *slot = item;
            }
            *cursor += 1;
        }
        self.offsets.pop();
    }
}

/// What [`UnionFind::number`] gives a key no clique named.
pub const UNNAMED: u32 = u32::MAX;

/// A union-find over dense `u32` keys, with an iterative, path-halving
/// find so a long chain of keys costs no stack. The smaller root always
/// wins, so every parent is at most its child and a root is the smallest
/// key of its set; one ascending pass then numbers the sets in that
/// order.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    /// Per key: its parent, or [`UNNAMED`]; after
    /// [`number`](Self::number), its set.
    parent: Vec<u32>,
}

impl UnionFind {
    /// Forgets every key, keeping the memory.
    pub fn clear(&mut self) {
        self.parent.clear();
    }

    /// Names every key of `clique` and joins them into one set. A key
    /// past those named so far widens the span; [`UNNAMED`] itself is
    /// skipped.
    pub fn join(&mut self, clique: impl IntoIterator<Item = u32>) {
        let mut root = UNNAMED;
        for key in clique {
            if key as usize >= self.parent.len() {
                if key == UNNAMED {
                    continue;
                }
                self.parent.resize(key as usize + 1, UNNAMED);
            }
            // A key named here is a root of its own.
            let other = match self.parent.get_mut(key as usize) {
                Some(p) if *p == UNNAMED => {
                    *p = key;
                    key
                }
                _ => self.find(key),
            };
            let (lo, hi) = (root.min(other), root.max(other));
            if let Some(p) = self.parent.get_mut(hi as usize) {
                *p = lo;
            }
            root = lo;
        }
    }

    /// The root of named key `x`'s set, halving the path on the way.
    fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let Some(&p) = self.parent.get(x as usize) else {
                return x;
            };
            let grand = self.parent.get(p as usize).copied().unwrap_or(p);
            if p == x || grand == p {
                return p;
            }
            if let Some(slot) = self.parent.get_mut(x as usize) {
                *slot = grand;
            }
            x = grand;
        }
    }

    /// Numbers the sets in order of their smallest key and returns how
    /// many there are with every key's set, [`UNNAMED`] for a key no
    /// clique named. The keys are left numbered: [`clear`](Self::clear)
    /// before joining again.
    pub fn number(&mut self) -> (usize, &[u32]) {
        // Parents only ever point down, so in one ascending pass a root
        // opens the next set, and any other key's parent has already been
        // turned into its set.
        let mut sets = 0;
        for k in 0..self.parent.len() {
            let set = match self.parent.get(k).copied() {
                Some(UNNAMED) | None => continue,
                Some(p) if p as usize == k => {
                    sets += 1;
                    sets as u32 - 1
                }
                Some(p) => self.parent.get(p as usize).copied().unwrap_or(UNNAMED),
            };
            if let Some(slot) = self.parent.get_mut(k) {
                *slot = set;
            }
        }
        (sets, &self.parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keys_beyond_the_requested_span_widen_the_runs() {
        let pairs = [(0, 10), (7, 11), (7, 12), (9, 13), (0, 14)];
        let mut runs = Runs::default();
        runs.refill(2, || pairs.iter().copied());
        assert_eq!(runs.len(), 10);
        assert_eq!(runs.run(0), &[10, 14]);
        assert_eq!(runs.run(7), &[11, 12]);
        assert_eq!(runs.run(9), &[13]);
        assert!(runs.run(1).is_empty() && runs.run(10).is_empty());
        assert!(runs.run(usize::MAX).is_empty());
        runs.refill(4, std::iter::empty);
        assert_eq!(runs.runs().count(), 4);
        assert!(runs.items().is_empty());
        assert!(Runs::<u32>::default().is_empty() && Runs::<u32>::default().run(0).is_empty());
    }

    #[test]
    fn runs_are_equal_by_their_runs_not_their_layout() {
        let mut a = Runs::default();
        a.push_run([1, 2]);
        a.push_run([]);
        let mut b = Runs::default();
        b.push_run([1]);
        assert_ne!(a, b);
        b.pop_run();
        b.push_run([1, 2]);
        assert_ne!(a, b, "one run fewer");
        b.push_run([]);
        assert_eq!(a, b);
        b.clear();
        assert_eq!(b, Runs::<u32>::default(), "cleared equals never filled");
        b.push_run([1]);
        b.push_run([2]);
        assert_ne!(a, b, "the same items split differently");
    }

    #[test]
    fn a_union_find_numbers_only_named_keys() {
        let mut sets = UnionFind::default();
        sets.join([9, 4]);
        sets.join([2]);
        sets.join([]);
        sets.join([7, UNNAMED, 4]);
        assert_eq!(
            sets.number(),
            (
                2,
                &[UNNAMED, UNNAMED, 0, UNNAMED, 1, UNNAMED, UNNAMED, 1, UNNAMED, 1][..]
            )
        );
        sets.clear();
        assert_eq!(sets.number(), (0, &[][..]));
    }

    /// The `(key, item)` pairs of `lists`: item `i` under each key of
    /// list `i`, in list order.
    fn pairs(lists: &[Vec<u32>]) -> impl Iterator<Item = (u32, u32)> + '_ {
        (lists.iter().enumerate()).flat_map(|(i, keys)| keys.iter().map(move |&k| (k, i as u32)))
    }

    proptest! {
        /// A grouped refill equals pushing each pair onto a per-key `Vec`,
        /// order included, for keys on both sides of the requested span,
        /// and a refill after a larger one leaves nothing of it behind.
        #[test]
        fn a_refill_equals_naive_bucketing(
            first in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..6), 0..24),
            second in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..3), 0..8),
            keys in (0usize..30, 0usize..6),
        ) {
            let mut runs = Runs::default();
            for (lists, keys) in [(&first, keys.0), (&second, keys.1)] {
                let span = pairs(lists).map(|(k, _)| k as usize + 1).max().unwrap_or(0);
                let mut want: Vec<Vec<u32>> = vec![Vec::new(); keys.max(span)];
                for (k, item) in pairs(lists) {
                    want[k as usize].push(item);
                }
                runs.refill(keys, || pairs(lists));
                prop_assert_eq!(runs.len(), want.len());
                prop_assert_eq!(runs.runs().map(<[u32]>::to_vec).collect::<Vec<_>>(), want.clone());
                for (k, run) in want.iter().enumerate() {
                    prop_assert_eq!(runs.run(k), run.as_slice());
                }
                prop_assert!(runs.run(want.len()).is_empty());
                prop_assert_eq!(runs.items(), want.concat().as_slice());
            }
        }

        /// Appending and popping runs equals doing so on a list of lists,
        /// empty runs and pops of nothing included; one op in three pops.
        #[test]
        fn push_and_pop_equal_a_list_of_lists(
            ops in proptest::collection::vec((0u8..3, proptest::collection::vec(0u8..255, 0..5)), 0..32),
        ) {
            let (mut runs, mut want) = (Runs::default(), Vec::<Vec<u8>>::new());
            for (op, items) in ops {
                if op == 0 {
                    runs.pop_run();
                    want.pop();
                } else {
                    prop_assert_eq!(&*runs.push_run(items.iter().copied()), items.as_slice());
                    want.push(items);
                }
                prop_assert_eq!(runs.len(), want.len());
                prop_assert_eq!(runs.runs().map(<[u8]>::to_vec).collect::<Vec<_>>(), want.clone());
                prop_assert_eq!(runs.items(), want.concat().as_slice());
            }
            runs.clear();
            prop_assert!(runs.is_empty() && runs.items().is_empty());
        }

        /// Appending a range of another array's runs, each item mapped,
        /// equals pushing each of those runs mapped, for empty runs and
        /// ranges too; a range past the other's end appends nothing.
        #[test]
        fn extending_by_runs_equals_pushing_each(
            base in proptest::collection::vec(proptest::collection::vec(0u8..255, 0..3), 0..3),
            other in proptest::collection::vec(proptest::collection::vec(0u8..255, 0..4), 0..8),
            keys in (0usize..10, 0usize..10),
        ) {
            let fill = |lists: &[Vec<u8>]| {
                let mut runs = Runs::default();
                for list in lists {
                    runs.push_run(list.iter().copied());
                }
                runs
            };
            let (mut runs, from) = (fill(&base), fill(&other));
            runs.extend_runs(&from, keys.0..keys.1, |b| b ^ 1);
            let mut want = base.clone();
            if keys.1 <= other.len() && keys.0 <= keys.1 {
                want.extend(other[keys.0..keys.1].iter().map(|r| r.iter().map(|b| b ^ 1).collect()));
            }
            prop_assert_eq!(runs.runs().map(<[u8]>::to_vec).collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(runs.items(), want.concat().as_slice());
            for (k, run) in want.iter().enumerate() {
                prop_assert_eq!(runs.span(k).len(), run.len());
            }
        }

        /// The union-find's sets are the connected components a
        /// breadth-first search finds over the same cliques, numbered in
        /// order of their smallest key, on keys named in any order.
        #[test]
        fn sets_equal_a_breadth_first_search(
            cliques in proptest::collection::vec(proptest::collection::vec(0u32..48, 0..4), 0..24),
        ) {
            let span = cliques.iter().flatten().map(|&k| k as usize + 1).max().unwrap_or(0);
            let mut want = vec![UNNAMED; span];
            let named = |k: u32| cliques.iter().any(|c| c.contains(&k));
            let mut count = 0;
            for start in (0..span as u32).filter(|&k| named(k)) {
                if want[start as usize] != UNNAMED {
                    continue;
                }
                want[start as usize] = count;
                let mut frontier = vec![start];
                while let Some(k) = frontier.pop() {
                    for &m in cliques.iter().filter(|c| c.contains(&k)).flatten() {
                        if want[m as usize] == UNNAMED {
                            want[m as usize] = count;
                            frontier.push(m);
                        }
                    }
                }
                count += 1;
            }
            let mut sets = UnionFind::default();
            for clique in &cliques {
                sets.join(clique.iter().copied());
            }
            prop_assert_eq!(sets.number(), (count as usize, want.as_slice()));
        }
    }
}
