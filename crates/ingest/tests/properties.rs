//! Property tests for the crate's correctness claims:
//!
//! * the pre-filter never changes a diagnosis: PLL over the kept set
//!   equals PLL over the full window, for arbitrary matrices and
//!   observations (β-identifiable failure sets are a subset of this);
//! * the benchmark twin's fold/seal agree with the naive per-window
//!   aggregation, with several windows open at once and tables that grow
//!   mid-window.

use std::collections::HashMap;

use detector_core::pll::{localize, PllConfig};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, PathId, PathObservation, ProbePath};
use detector_ingest::{prefilter, IngestPlane, SealedWindow};
use proptest::prelude::*;

/// A matrix from raw link-id sets (empty sets are dropped; ids are
/// dense from 0 so every path resolves).
fn matrix_from(link_sets: &[Vec<u32>]) -> ProbeMatrix {
    let paths: Vec<ProbePath> = link_sets
        .iter()
        .enumerate()
        .map(|(i, links)| {
            ProbePath::from_links(i as u32, links.iter().map(|&l| LinkId(l % 24)).collect())
        })
        .collect();
    ProbeMatrix::from_paths(24, paths)
}

/// One report's `(path, sent, lost)` entries.
type Entries = Vec<(PathId, u64, u64)>;

/// The plane's contract spelled out the slow way: one map per open
/// window.
#[derive(Default)]
struct Naive {
    open: HashMap<u64, HashMap<PathId, (u64, u64)>>,
}

impl Naive {
    fn fold(&mut self, window: u64, entries: &[(PathId, u64, u64)]) {
        let w = self.open.entry(window).or_default();
        for &(path, sent, lost) in entries {
            let have = w.entry(path).or_default();
            *have = (have.0 + sent, have.1 + lost);
        }
    }

    fn seal(&mut self, window: u64) -> SealedWindow {
        let w = self.open.remove(&window).unwrap_or_default();
        let mut observations: Vec<PathObservation> = (w.into_iter())
            .filter(|&(_, (s, l))| s > 0 || l > 0)
            .map(|(p, (s, l))| PathObservation::new(p, s, l))
            .collect();
        observations.sort_unstable_by_key(|o| o.path);
        SealedWindow { observations }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pre-filter exactness: PLL over the kept observations equals PLL
    /// over the whole window — for any matrix shape, loss pattern and
    /// top-K budget (saturated or not).
    #[test]
    fn prefiltered_diagnosis_equals_full_diagnosis(
        link_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..24, 1..5), 1..30),
        raw_obs in proptest::collection::vec((0u8..2, 1u64..200, 0u64..200), 0..30),
        k in 1usize..16,
    ) {
        let matrix = matrix_from(&link_sets);
        // Observe a subset of paths, sorted by id as a sealed window is.
        let observations: Vec<PathObservation> = raw_obs
            .iter()
            .enumerate()
            .filter(|&(i, &(observed, _, _))| observed == 1 && i < matrix.num_paths())
            .map(|(i, &(_, sent, lost))| {
                PathObservation::new(PathId(i as u32), sent, lost.min(sent))
            })
            .collect();
        let cfg = PllConfig::default();
        let full = localize(&matrix, &observations, &cfg);
        let kept = prefilter(&matrix, &observations, k);
        let filtered = localize(&matrix, &kept.observations, &cfg);
        prop_assert_eq!(full, filtered, "k={} dropped {}", k, kept.dropped);
    }

    /// The plane against the naive model: any interleaving of folds —
    /// zero entries included — and seals, over up to six windows open at
    /// once, from a table of 2–8 slots that has to grow.
    #[test]
    fn plane_seal_matches_naive_aggregation(
        ops in proptest::collection::vec(
            (0u64..6, 0u8..4,
             proptest::collection::vec((0u32..50, 0u64..100, 0u64..100), 0..8)),
            0..60),
        hint in 0usize..4,
    ) {
        let mut plane = IngestPlane::for_paths(hint);
        let mut naive = Naive::default();
        for (window, kind, entries) in &ops {
            if *kind == 0 {
                let (sealed, expect) = (plane.seal(*window), naive.seal(*window));
                prop_assert_eq!(sealed, expect, "window {} sealed mid-run", window);
                continue;
            }
            // Reports never carry lost > sent.
            let entries: Entries =
                entries.iter().map(|&(p, s, l)| (PathId(p), s, l.min(s))).collect();
            plane.fold(*window, entries.iter().copied());
            naive.fold(*window, &entries);
        }
        for window in 0..6u64 {
            prop_assert_eq!(plane.seal(window), naive.seal(window), "window {}", window);
        }
    }

    /// Window isolation of the top-K pre-filter: with folds for windows
    /// w and w+1 interleaved through the plane, each sealed window's
    /// pre-filter — kept set *and* `topk_hits` — equals the pre-filter
    /// of that window's naive totals alone. A heavy hitter of window w
    /// contributes nothing to window w+1: a path lossy only in w never
    /// appears in w+1's kept observations or its `topk_hits`.
    #[test]
    fn topk_window_state_never_leaks_across_windows(
        link_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..24, 1..5), 1..20),
        folds in proptest::collection::vec(
            (0u64..2, proptest::collection::vec((0u32..20, 1u64..100, 0u64..100), 1..6)),
            0..20),
        k in 1usize..8,
    ) {
        let matrix = matrix_from(&link_sets);
        let mut plane = IngestPlane::for_paths(4);
        let mut naive = Naive::default();
        for (window, entries) in &folds {
            let entries: Entries = entries
                .iter()
                .map(|&(p, s, l)| (PathId(p), s, l.min(s)))
                .collect();
            plane.fold(*window, entries.iter().copied());
            naive.fold(*window, &entries);
        }
        for window in 0..2u64 {
            let sealed = plane.seal(window);
            let expect = naive.seal(window).observations;
            let from_plane = prefilter(&matrix, &sealed.observations, k);
            let from_naive = prefilter(&matrix, &expect, k);
            prop_assert_eq!(
                &from_plane.observations,
                &from_naive.observations,
                "window {}'s kept set must come from its own folds only",
                window
            );
            prop_assert_eq!(
                from_plane.topk_hits,
                from_naive.topk_hits,
                "window {}'s topk_hits must count its own folds only",
                window
            );
            // Explicitly: nothing from the other window's fold stream
            // crosses the boundary.
            let own: std::collections::HashSet<u32> =
                expect.iter().map(|o| o.path.0).collect();
            for o in &from_plane.observations {
                prop_assert!(
                    own.contains(&o.path.0),
                    "path {} leaked into window {}",
                    o.path.0,
                    window
                );
            }
        }
    }
}
