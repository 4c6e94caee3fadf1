//! Independent verification of probe-matrix properties.
//!
//! Construction certifies (α, β) through its partition state; this module
//! re-checks the claims directly from the matrix definition — every
//! failure set of size ≤ β must induce a distinct set of lossy paths — so
//! tests can cross-validate the two implementations against each other.
//!
//! Verification decomposes the matrix into link-connected components
//! first: a failure set spanning several components induces per-component
//! observations that are distinguishable independently, so β-identifiability
//! of the whole matrix reduces to β-identifiability of each component (the
//! same argument the paper uses when it observes that the composed probe
//! matrix achieves β′ > β overall, §6.4).

use std::collections::{HashMap, HashSet};

use super::decompose::decompose;
use super::ProbeMatrix;
use crate::types::LinkId;

/// Summary of verified matrix properties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Number of probe paths (matrix rows).
    pub num_paths: usize,
    /// Number of physical links (matrix columns).
    pub num_links: usize,
    /// Verified coverage: minimum paths-per-link over all links.
    pub coverage: u32,
    /// Verified identifiability level (≤ the requested check level).
    pub identifiability: u32,
}

/// Verifies coverage and identifiability up to `beta`.
pub fn verify(matrix: &ProbeMatrix, beta: u32) -> VerifyReport {
    VerifyReport {
        num_paths: matrix.paths.len(),
        num_links: matrix.num_links,
        coverage: min_coverage(matrix),
        identifiability: max_identifiability(matrix, beta),
    }
}

/// Minimum number of probe paths over any link of the universe.
pub fn min_coverage(matrix: &ProbeMatrix) -> u32 {
    let mut counts = vec![0u32; matrix.num_links];
    for p in &matrix.paths {
        for l in p.links() {
            counts[l.index()] += 1;
        }
    }
    counts.into_iter().min().unwrap_or(0)
}

/// 64-bit FNV-1a over a u32 stream.
fn fnv64(seed: u64, stream: impl Iterator<Item = u32>) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for v in stream {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// 128-bit signature of a sorted path-id set (two independent FNV seeds).
fn signature(ids: &[u32]) -> (u64, u64) {
    (
        fnv64(0, ids.iter().copied()),
        fnv64(0x9e37_79b9_7f4a_7c15, ids.iter().copied()),
    )
}

/// Signature of the merged union of two sorted id sets.
fn union2(a: &[u32], b: &[u32]) -> (u64, u64) {
    let merged = MergeIter::new(a, b);
    let v: Vec<u32> = merged.collect();
    signature(&v)
}

fn union3(a: &[u32], b: &[u32], c: &[u32]) -> (u64, u64) {
    let ab: Vec<u32> = MergeIter::new(a, b).collect();
    let v: Vec<u32> = MergeIter::new(&ab, c).collect();
    signature(&v)
}

/// Merge-dedup iterator over two sorted slices.
struct MergeIter<'a> {
    a: &'a [u32],
    b: &'a [u32],
}

impl<'a> MergeIter<'a> {
    fn new(a: &'a [u32], b: &'a [u32]) -> Self {
        Self { a, b }
    }
}

impl Iterator for MergeIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        match (self.a.first(), self.b.first()) {
            (None, None) => None,
            (Some(&x), None) => {
                self.a = &self.a[1..];
                Some(x)
            }
            (None, Some(&y)) => {
                self.b = &self.b[1..];
                Some(y)
            }
            (Some(&x), Some(&y)) => {
                if x < y {
                    self.a = &self.a[1..];
                    Some(x)
                } else if y < x {
                    self.b = &self.b[1..];
                    Some(y)
                } else {
                    self.a = &self.a[1..];
                    self.b = &self.b[1..];
                    Some(x)
                }
            }
        }
    }
}

/// Largest j ≤ `up_to` such that the matrix is j-identifiable.
///
/// Level 0 means that not even all single-link failures can be told apart
/// (some link is uncovered, or two links lie on exactly the same paths).
/// The check is exact up to hash collisions on 128-bit signatures.
pub fn max_identifiability(matrix: &ProbeMatrix, up_to: u32) -> u32 {
    if up_to == 0 {
        return 0;
    }
    if !matrix.uncoverable.is_empty() {
        return 0;
    }

    // Per-component verification (see module docs for the reduction).
    let comps = decompose(matrix.paths.clone());

    // Links never covered at all → not even 1-identifiable. (Components
    // only contain covered links, so compare against the universe size.)
    let covered: usize = comps.iter().map(|c| c.universe().len()).sum();
    if covered < matrix.num_links {
        return 0;
    }

    let mut achieved = up_to.min(3);
    for comp in &comps {
        // Dense path numbering within the component.
        let link_pos: HashMap<LinkId, usize> = comp
            .universe()
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i))
            .collect();
        let mut sigs: Vec<Vec<u32>> = vec![Vec::new(); comp.universe().len()];
        for (pi, p) in comp.candidates().iter().enumerate() {
            for l in p.links() {
                sigs[link_pos[l]].push(pi as u32);
            }
        }
        for s in &mut sigs {
            s.sort_unstable();
            s.dedup();
        }

        // Level 1: all single-link signatures distinct and non-empty.
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        let mut ok = true;
        for s in &sigs {
            if s.is_empty() || !seen.insert(signature(s)) {
                ok = false;
                break;
            }
        }
        if !ok {
            return 0;
        }

        let n = sigs.len();
        // Level 2: all pair unions distinct among themselves and from
        // singles.
        if achieved >= 2 {
            let mut ok2 = true;
            'outer2: for i in 0..n {
                for j in (i + 1)..n {
                    if !seen.insert(union2(&sigs[i], &sigs[j])) {
                        ok2 = false;
                        break 'outer2;
                    }
                }
            }
            if !ok2 {
                achieved = 1;
            }
        }

        // Level 3: all triple unions distinct as well.
        if achieved >= 3 {
            let mut ok3 = true;
            'outer3: for i in 0..n {
                for j in (i + 1)..n {
                    for k in (j + 1)..n {
                        if !seen.insert(union3(&sigs[i], &sigs[j], &sigs[k])) {
                            ok3 = false;
                            break 'outer3;
                        }
                    }
                }
            }
            if !ok3 {
                achieved = achieved.min(2);
            }
        }
    }
    achieved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProbePath;

    fn matrix(num_links: usize, paths: Vec<Vec<u32>>) -> ProbeMatrix {
        let paths = paths
            .into_iter()
            .enumerate()
            .map(|(i, ls)| ProbePath::from_links(i as u32, ls.into_iter().map(LinkId).collect()))
            .collect::<Vec<_>>();
        ProbeMatrix::from_paths(num_links, paths)
    }

    #[test]
    fn uncovered_link_gives_zero() {
        let m = matrix(2, vec![vec![0]]);
        assert_eq!(max_identifiability(&m, 2), 0);
        assert_eq!(min_coverage(&m), 0);
    }

    #[test]
    fn identical_columns_give_zero() {
        let m = matrix(2, vec![vec![0, 1], vec![0, 1]]);
        assert_eq!(max_identifiability(&m, 1), 0);
    }

    #[test]
    fn fig3_full_matrix_is_one_identifiable() {
        // p1={0,1}, p2={0,2}, p3={2}: 1-identifiable but not 2 (the
        // {0,2}/{1,2} ambiguity from §4.1).
        let m = matrix(3, vec![vec![0, 1], vec![0, 2], vec![2]]);
        assert_eq!(max_identifiability(&m, 3), 1);
        assert_eq!(min_coverage(&m), 1);
    }

    #[test]
    fn singletons_matrix_is_fully_identifiable() {
        // One dedicated path per link distinguishes every subset.
        let m = matrix(4, vec![vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(max_identifiability(&m, 3), 3);
    }

    #[test]
    fn components_verify_independently() {
        // Two disjoint Fig.3-style components, each 1-identifiable.
        let m = matrix(
            6,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![2],
                vec![3, 4],
                vec![3, 5],
                vec![5],
            ],
        );
        assert_eq!(max_identifiability(&m, 2), 1);
    }

    #[test]
    fn verify_bundles_everything() {
        let m = matrix(3, vec![vec![0, 1], vec![0, 2], vec![2]]);
        let r = verify(&m, 2);
        assert_eq!(r.num_paths, 3);
        assert_eq!(r.num_links, 3);
        assert_eq!(r.coverage, 1);
        assert_eq!(r.identifiability, 1);
    }

    #[test]
    fn merge_iter_dedups() {
        let a = [1u32, 3, 5];
        let b = [1u32, 2, 5, 9];
        let v: Vec<u32> = MergeIter::new(&a, &b).collect();
        assert_eq!(v, vec![1, 2, 3, 5, 9]);
    }
}
