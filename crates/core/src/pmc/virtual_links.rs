//! Extended link universe: physical links plus virtual links.
//!
//! To achieve β-identifiability, the paper extends the routing matrix with
//! a *virtual link* for every combination of 2..β physical links; the
//! column of a virtual link is the OR of its constituents' columns
//! (Fig. 3). A probe matrix is β-identifiable exactly when every extended
//! link (physical or virtual) ends up with a distinct set of covering
//! paths, which the greedy certifies by refining a partition of extended
//! links into singleton cells.
//!
//! Virtual links are never materialized: an extended link is an integer
//! *element id* computed from the combinatorial number system, and this
//! module enumerates, for a given path, exactly the element ids whose
//! columns contain that path (its *incident* elements: every subset with at
//! least one constituent on the path).

use super::index::LinkLookup;
use super::PmcError;
use crate::types::LinkId;

/// The extended universe of one subproblem: a dense local numbering of the
/// physical links plus implicit virtual links up to size β.
#[derive(Clone, Debug)]
pub struct ExtendedUniverse {
    /// Dense local index → global link id.
    links: Vec<LinkId>,
    /// Global link id → dense local index.
    index: LinkLookup,
    beta: u32,
    n: u64,
    /// Element ids `[n, pairs_end)` are pairs.
    pairs_end: u64,
    /// Element ids `[pairs_end, total)` are triples.
    total: u64,
    /// `triple_prefix[i]` = number of triples whose smallest member is < i.
    triple_prefix: Vec<u64>,
}

#[inline]
fn c2(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

#[inline]
fn c3(n: u64) -> u64 {
    if n < 3 {
        0
    } else {
        n * (n - 1) * (n - 2) / 6
    }
}

impl ExtendedUniverse {
    /// Builds the extended universe over `universe` for identifiability
    /// level `beta` (0..=3), rejecting configurations whose element count
    /// exceeds `cap`.
    pub fn new(universe: &[LinkId], beta: u32, cap: u64) -> Result<Self, PmcError> {
        if beta > 3 {
            return Err(PmcError::BetaTooLarge { beta });
        }
        let links: Vec<LinkId> = universe.to_vec();
        let n = links.len() as u64;
        let pairs = if beta >= 2 { c2(n) } else { 0 };
        let triples = if beta >= 3 { c3(n) } else { 0 };
        let total = n + pairs + triples;
        if total > cap {
            return Err(PmcError::UniverseTooLarge {
                required: total,
                limit: cap,
            });
        }
        let index = LinkLookup::new(&links);
        let triple_prefix = if beta >= 3 {
            // triple_prefix[i] = Σ_{a<i} C(n-1-a, 2).
            let mut pre = Vec::with_capacity(n as usize + 1);
            let mut acc = 0u64;
            pre.push(0);
            for a in 0..n {
                acc += c2(n - 1 - a);
                pre.push(acc);
            }
            pre
        } else {
            Vec::new()
        };
        Ok(Self {
            links,
            index,
            beta,
            n,
            pairs_end: n + pairs,
            total,
            triple_prefix,
        })
    }

    /// Number of physical links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.n as usize
    }

    /// Total number of extended elements (physical + virtual links).
    #[inline]
    pub fn num_elements(&self) -> u64 {
        self.total
    }

    /// The identifiability level this universe encodes.
    #[inline]
    pub fn beta(&self) -> u32 {
        self.beta
    }

    /// Maps a global link id to its dense local index.
    #[inline]
    pub fn local(&self, link: LinkId) -> Option<u32> {
        self.index.local(link)
    }

    /// Maps a dense local index back to the global link id.
    #[inline]
    pub fn global(&self, local: u32) -> LinkId {
        self.links[local as usize]
    }

    /// All global links of this universe in local order.
    #[inline]
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Element id of the pair `{i, j}` with `i < j` (local indices).
    #[inline]
    pub fn pair_element(&self, i: u64, j: u64) -> u64 {
        debug_assert!(i < j && j < self.n);
        // Pairs with smaller member < i precede: Σ_{a<i} (n-1-a).
        let before = i * (self.n - 1) - i * i.saturating_sub(1) / 2;
        self.n + before + (j - i - 1)
    }

    /// Element id of the triple `{i, j, k}` with `i < j < k`.
    #[inline]
    pub fn triple_element(&self, i: u64, j: u64, k: u64) -> u64 {
        debug_assert!(i < j && j < k && k < self.n);
        let base = self.pairs_end;
        let at_i = self.triple_prefix[i as usize];
        // Within fixed i, pairs (j, k) over the (n - i - 1)-element suffix.
        let m = self.n - i - 1;
        let jj = j - i - 1;
        let kk = k - i - 1;
        let pair_rank = jj * (m - 1) - jj * jj.saturating_sub(1) / 2 + (kk - jj - 1);
        base + at_i + pair_rank
    }

    /// Calls `f` with every extended element *incident* to a path, i.e.
    /// every subset of size 1..=β containing at least one of the path's
    /// links.
    ///
    /// `locals` must be the path's links as sorted, de-duplicated local
    /// indices; `in_path` is a caller-owned scratch bitmap of length
    /// [`Self::num_links`] that must be all-false on entry and is restored
    /// to all-false before returning.
    pub fn for_each_incident(&self, locals: &[u32], in_path: &mut [bool], mut f: impl FnMut(u64)) {
        debug_assert_eq!(in_path.len(), self.n as usize);
        for &l in locals {
            in_path[l as usize] = true;
        }

        // Singles.
        for &l in locals {
            f(l as u64);
        }

        if self.beta >= 2 {
            // Pairs with exactly one member on the path.
            for &l in locals {
                let i = l as u64;
                for x in 0..self.n {
                    if in_path[x as usize] {
                        continue;
                    }
                    let (a, b) = if x < i { (x, i) } else { (i, x) };
                    f(self.pair_element(a, b));
                }
            }
            // Pairs with both members on the path.
            for (ai, &a) in locals.iter().enumerate() {
                for &b in &locals[ai + 1..] {
                    f(self.pair_element(a as u64, b as u64));
                }
            }
        }

        if self.beta >= 3 {
            // Triples with exactly one member on the path.
            for &l in locals {
                let i = l as u64;
                for x in 0..self.n {
                    if in_path[x as usize] {
                        continue;
                    }
                    for y in (x + 1)..self.n {
                        if in_path[y as usize] {
                            continue;
                        }
                        let mut t = [i, x, y];
                        t.sort_unstable();
                        f(self.triple_element(t[0], t[1], t[2]));
                    }
                }
            }
            // Triples with exactly two members on the path.
            for (ai, &a) in locals.iter().enumerate() {
                for &b in &locals[ai + 1..] {
                    for x in 0..self.n {
                        if in_path[x as usize] {
                            continue;
                        }
                        let mut t = [a as u64, b as u64, x];
                        t.sort_unstable();
                        f(self.triple_element(t[0], t[1], t[2]));
                    }
                }
            }
            // Triples fully on the path.
            for (ai, &a) in locals.iter().enumerate() {
                for (bi, &b) in locals.iter().enumerate().skip(ai + 1) {
                    for &c in &locals[bi + 1..] {
                        f(self.triple_element(a as u64, b as u64, c as u64));
                    }
                }
            }
        }

        for &l in locals {
            in_path[l as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(n: u32, beta: u32) -> ExtendedUniverse {
        let links: Vec<LinkId> = (0..n).map(LinkId).collect();
        ExtendedUniverse::new(&links, beta, u64::MAX).unwrap()
    }

    #[test]
    fn element_counts() {
        assert_eq!(universe(5, 0).num_elements(), 5);
        assert_eq!(universe(5, 1).num_elements(), 5);
        assert_eq!(universe(5, 2).num_elements(), 5 + 10);
        assert_eq!(universe(5, 3).num_elements(), 5 + 10 + 10);
    }

    #[test]
    fn pair_elements_are_a_bijection() {
        let u = universe(7, 2);
        let mut seen = vec![false; u.num_elements() as usize];
        for i in 0..7u64 {
            seen[i as usize] = true;
        }
        for i in 0..7u64 {
            for j in (i + 1)..7 {
                let e = u.pair_element(i, j) as usize;
                assert!(!seen[e], "duplicate element for pair ({i},{j})");
                seen[e] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn triple_elements_are_a_bijection() {
        let u = universe(9, 3);
        let mut seen = vec![false; u.num_elements() as usize];
        let n = 9u64;
        for i in 0..n {
            seen[i as usize] = true;
        }
        for i in 0..n {
            for j in (i + 1)..n {
                seen[u.pair_element(i, j) as usize] = true;
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    let e = u.triple_element(i, j, k) as usize;
                    assert!(!seen[e], "duplicate element for ({i},{j},{k})");
                    seen[e] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn incident_enumeration_matches_naive() {
        // Compare against a brute-force enumeration of all subsets.
        let n = 8u64;
        for beta in 1..=3u32 {
            let u = universe(n as u32, beta);
            let locals = vec![1u32, 4, 6];
            let mut scratch = vec![false; n as usize];
            let mut got: Vec<u64> = Vec::new();
            u.for_each_incident(&locals, &mut scratch, |e| got.push(e));
            got.sort_unstable();

            let on_path = |x: u64| locals.contains(&(x as u32));
            let mut want: Vec<u64> = Vec::new();
            for i in 0..n {
                if on_path(i) {
                    want.push(i);
                }
            }
            if beta >= 2 {
                for i in 0..n {
                    for j in (i + 1)..n {
                        if on_path(i) || on_path(j) {
                            want.push(u.pair_element(i, j));
                        }
                    }
                }
            }
            if beta >= 3 {
                for i in 0..n {
                    for j in (i + 1)..n {
                        for k in (j + 1)..n {
                            if on_path(i) || on_path(j) || on_path(k) {
                                want.push(u.triple_element(i, j, k));
                            }
                        }
                    }
                }
            }
            want.sort_unstable();
            assert_eq!(got, want, "beta={beta}");
            assert!(scratch.iter().all(|&b| !b), "scratch must be restored");
        }
    }

    #[test]
    fn cap_is_enforced() {
        let links: Vec<LinkId> = (0..100).map(LinkId).collect();
        let err = ExtendedUniverse::new(&links, 2, 1000).unwrap_err();
        assert!(matches!(err, PmcError::UniverseTooLarge { .. }));
    }

    #[test]
    fn beta_above_three_rejected() {
        let links: Vec<LinkId> = (0..4).map(LinkId).collect();
        let err = ExtendedUniverse::new(&links, 4, u64::MAX).unwrap_err();
        assert_eq!(err, PmcError::BetaTooLarge { beta: 4 });
    }

    #[test]
    fn local_global_round_trip() {
        let links = vec![LinkId(10), LinkId(20), LinkId(30)];
        let u = ExtendedUniverse::new(&links, 1, u64::MAX).unwrap();
        for (i, &l) in links.iter().enumerate() {
            assert_eq!(u.local(l), Some(i as u32));
            assert_eq!(u.global(i as u32), l);
        }
        assert_eq!(u.local(LinkId(99)), None);
    }
}
