//! Pre-filtering of a window's observations before localization.
//!
//! PLL only ever blames links that lie on at least one lossy observed
//! path, and only ever needs, for each such link, *every* observed path
//! through it (the hit-ratio denominator). So a window's diagnosis is
//! exactly determined by the **keep set**: the lossy paths plus every
//! observed path sharing at least one link with a lossy path. Everything
//! else is clean evidence about links nobody suspects — dropping it
//! changes nothing, and on a healthy fabric it is almost the whole
//! window.
//!
//! The filter is always the same two passes over the window:
//! mark the links of every lossy path, then keep what touches them. The
//! marks are one flag per link of the matrix's universe and ids resolve
//! through the matrix's flat row table, so a window's ~30 k path look-ups
//! and ~90 k link probes hash nothing.
//! `k`, a top-K budget, only shapes the `topk_hits` statistic — the
//! number of lossy paths while they fit the budget, zero once the window
//! holds more than `k` of them — never the kept set. Only the
//! benchmark's traced run reads it (ROADMAP item 1(d)).
//!
//! Lossiness here is the raw `lost > 0`, deliberately *wider* than
//! PLL's noise filter (`preprocess` may normalize small losses away):
//! keeping a superset of the post-filter lossy paths and their link
//! closures preserves exact equivalence — see
//! `filtered_diagnosis_is_exact` and the property tests.

use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, PathObservation};

/// The links on at least one lossy path: a flag per link of the matrix's
/// universe, plus the (normally absent) links a path names beyond it.
struct SuspectLinks {
    flags: Vec<bool>,
    beyond: Vec<LinkId>,
}

impl SuspectLinks {
    fn mark(&mut self, link: LinkId) {
        match self.flags.get_mut(link.index()) {
            Some(flag) => *flag = true,
            None if self.beyond.contains(&link) => {}
            None => self.beyond.push(link),
        }
    }

    fn contains(&self, link: LinkId) -> bool {
        match self.flags.get(link.index()) {
            Some(&flag) => flag,
            None => self.beyond.contains(&link),
        }
    }
}

/// Outcome of pre-filtering one window.
#[derive(Clone, Debug)]
pub struct Prefiltered {
    /// The kept observations, in the input (sorted-by-path) order.
    pub observations: Vec<PathObservation>,
    /// Lossy paths of the window while there are at most `k` of them;
    /// zero when the window saturates the top-K budget (more than `k`).
    pub topk_hits: u64,
    /// Observations dropped as irrelevant to any suspect link.
    pub dropped: usize,
}

/// Filters `observations` (sorted by path id, one per path, as a sealed
/// window holds them) down to the paths that can
/// influence PLL's verdict against `matrix`. `k` is the top-K budget
/// `topk_hits` is reported against; the kept set does not depend on it.
pub fn prefilter(matrix: &ProbeMatrix, observations: &[PathObservation], k: usize) -> Prefiltered {
    // Links on any lossy path. Paths the matrix cannot resolve (retired
    // pre-re-base ids) contribute no links but are kept when lossy: they
    // surface as unexplained, exactly as without the filter.
    let mut suspects = SuspectLinks {
        flags: vec![false; matrix.num_links],
        beyond: Vec::new(),
    };
    let mut lossy = 0u64;
    for o in observations.iter().filter(|o| o.is_lossy()) {
        lossy += 1;
        if let Some(path) = matrix.path(o.path) {
            path.links().iter().for_each(|&l| suspects.mark(l));
        }
    }
    let topk_hits = if lossy > k as u64 { 0 } else { lossy };

    let mut kept = Vec::with_capacity(observations.len());
    for o in observations {
        let keep = o.is_lossy()
            || matrix
                .path(o.path)
                .is_some_and(|p| p.links().iter().any(|&l| suspects.contains(l)));
        if keep {
            kept.push(*o);
        }
    }
    let dropped = observations.len() - kept.len();
    Prefiltered {
        observations: kept,
        topk_hits,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::pll::{localize, PllConfig};
    use detector_core::types::{PathId, ProbePath};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The filter as it was written over a `HashSet<LinkId>`, kept as the
    /// oracle for the flag vector: returns `(kept, topk_hits, dropped)`.
    fn prefilter_reference(
        matrix: &ProbeMatrix,
        observations: &[PathObservation],
        k: usize,
    ) -> (Vec<PathObservation>, u64, usize) {
        let mut suspect_links: HashSet<LinkId> = HashSet::new();
        let mut lossy = 0u64;
        for o in observations.iter().filter(|o| o.is_lossy()) {
            lossy += 1;
            if let Some(path) = matrix.path(o.path) {
                suspect_links.extend(path.links());
            }
        }
        let kept: Vec<PathObservation> = (observations.iter())
            .filter(|o| {
                let path = matrix.path(o.path);
                o.is_lossy()
                    || path.is_some_and(|p| p.links().iter().any(|l| suspect_links.contains(l)))
            })
            .copied()
            .collect();
        let dropped = observations.len() - kept.len();
        (kept, if lossy > k as u64 { 0 } else { lossy }, dropped)
    }

    fn assert_matches_reference(matrix: &ProbeMatrix, o: &[PathObservation], k: usize) {
        let got = prefilter(matrix, o, k);
        let want = prefilter_reference(matrix, o, k);
        assert_eq!((got.observations, got.topk_hits, got.dropped), want);
    }

    /// p0={0,1}, p1={0,2}, p2={2,3}, p3={3}, p4={1}, p5={4}.
    fn matrix() -> ProbeMatrix {
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
            ProbePath::from_links(2, vec![LinkId(2), LinkId(3)]),
            ProbePath::from_links(3, vec![LinkId(3)]),
            ProbePath::from_links(4, vec![LinkId(1)]),
            ProbePath::from_links(5, vec![LinkId(4)]),
        ];
        ProbeMatrix::from_paths(5, paths)
    }

    fn obs(rows: &[(u32, u64, u64)]) -> Vec<PathObservation> {
        rows.iter()
            .map(|&(p, s, l)| PathObservation::new(PathId(p), s, l))
            .collect()
    }

    #[test]
    fn keeps_lossy_paths_and_their_link_neighbours() {
        // Only p0 lossy (links 0, 1): p1 shares link 0, p4 shares link
        // 1; p2/p3/p5 touch no suspect link and drop out.
        let o = obs(&[
            (0, 100, 40),
            (1, 100, 0),
            (2, 100, 0),
            (3, 100, 0),
            (4, 100, 0),
            (5, 100, 0),
        ]);
        let f = prefilter(&matrix(), &o, 8);
        let kept: Vec<u32> = f.observations.iter().map(|o| o.path.0).collect();
        assert_eq!(kept, vec![0, 1, 4]);
        assert_eq!(f.dropped, 3);
        assert_eq!(f.topk_hits, 1);
    }

    #[test]
    fn clean_window_drops_everything() {
        let o = obs(&[(0, 100, 0), (3, 100, 0)]);
        let f = prefilter(&matrix(), &o, 8);
        assert!(f.observations.is_empty());
        assert_eq!(f.topk_hits, 0);
        assert_eq!(f.dropped, 2);
    }

    #[test]
    fn saturated_tracker_falls_back_but_keeps_the_same_set() {
        // "Saturated": more lossy paths than the top-K budget. Only the
        // statistic reacts; there is no tracker whose state could differ.
        let o = obs(&[
            (0, 100, 10),
            (1, 100, 10),
            (2, 100, 10),
            (3, 100, 10),
            (4, 100, 10),
            (5, 100, 0),
        ]);
        // k=2 saturates (5 distinct lossy paths).
        let small = prefilter(&matrix(), &o, 2);
        assert_eq!(small.topk_hits, 0);
        let large = prefilter(&matrix(), &o, 64);
        assert_eq!(large.topk_hits, 5);
        assert_eq!(small.observations, large.observations);
    }

    #[test]
    fn unresolvable_lossy_ids_are_kept() {
        let o = obs(&[(99, 100, 50), (3, 100, 0)]);
        let f = prefilter(&matrix(), &o, 8);
        let kept: Vec<u32> = f.observations.iter().map(|o| o.path.0).collect();
        assert_eq!(kept, vec![99]);
    }

    #[test]
    fn links_beyond_the_universe_are_marked_like_any_other() {
        // The matrix declares 2 links but its paths name links 7 and 9:
        // no flag exists for those, and they must still tie p1 to the
        // lossy p0 (and leave p2, on link 9 alone, out) without a panic.
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(7)]),
            ProbePath::from_links(1, vec![LinkId(7)]),
            ProbePath::from_links(2, vec![LinkId(9)]),
            ProbePath::from_links(3, vec![LinkId(1)]),
        ];
        let m = ProbeMatrix::from_paths(2, paths);
        let o = obs(&[(0, 100, 40), (1, 100, 0), (2, 100, 0), (3, 100, 0)]);
        let kept: Vec<u32> = (prefilter(&m, &o, 8).observations.iter())
            .map(|o| o.path.0)
            .collect();
        assert_eq!(kept, vec![0, 1]);
        assert_matches_reference(&m, &o, 8);
        // The same with no universe at all: every link is beyond it.
        let m = ProbeMatrix::from_paths(0, m.paths.clone());
        assert_matches_reference(&m, &o, 8);
    }

    proptest! {
        /// Kept set, its order, `topk_hits` and `dropped` are the
        /// `HashSet` filter's on random segmented matrices — link ids on
        /// both sides of `num_links`, observations of ids the matrix
        /// resolves and of ids it does not, lossy or clean.
        #[test]
        fn flag_vector_filter_equals_the_hash_set_filter(
            link_sets in proptest::collection::vec(
                (0u32..400, proptest::collection::vec(0u32..40, 0..5)), 0..30),
            num_links in 0usize..40,
            raw_obs in proptest::collection::vec((0u32..420, 1u64..200, 0u64..4), 0..40),
            k in 0usize..12,
        ) {
            let mut ids = HashSet::new();
            let paths = (link_sets.into_iter())
                .filter(|(id, _)| ids.insert(*id))
                .map(|(id, links)| {
                    ProbePath::from_links(id, links.into_iter().map(LinkId).collect())
                })
                .collect::<Vec<_>>();
            let matrix = ProbeMatrix::from_segmented(num_links, paths);
            // A sealed window: ascending, one observation per path.
            let mut o: Vec<PathObservation> = (raw_obs.into_iter())
                .map(|(id, sent, lost)| PathObservation::new(PathId(id), sent, lost.min(sent)))
                .collect();
            o.sort_unstable_by_key(|o| o.path);
            o.dedup_by_key(|o| o.path);
            assert_matches_reference(&matrix, &o, k);
        }
    }

    #[test]
    fn filtered_diagnosis_is_exact() {
        let cfg = PllConfig::default();
        let m = matrix();
        let o = obs(&[
            (0, 100, 30),
            (1, 100, 0),
            (2, 100, 35),
            (3, 100, 30),
            (4, 100, 25),
            (5, 100, 0),
        ]);
        let full = localize(&m, &o, &cfg);
        let f = prefilter(&m, &o, 8);
        let filtered = localize(&m, &f.observations, &cfg);
        assert_eq!(full, filtered);
    }
}
