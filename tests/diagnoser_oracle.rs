//! The independent oracle of the single diagnosis path.
//!
//! Every driver's diagnosis goes through `Diagnoser::diagnose` — one
//! walk that sums the window without its excluded pingers and keeps only
//! the paths that can move the verdict → component-decomposed PLL with
//! its cached skeleton — so the driver equivalence suites compare that
//! path with itself. This property holds it against code it shares
//! nothing but the greedy with: plain whole-window `localize` over the
//! raw report store's aggregation, and a naive reference count of the
//! lossy incidence's shape, across multi-window runs that exercise every
//! cache state (rebuild, skeleton reuse, verdict reuse, invalidation by
//! `set_matrix`), over dense and segmented matrices (row order ≠ id
//! order), some declaring fewer links than their paths name.

use std::collections::HashSet;

use detector_core::pll::{localize, preprocess, PllConfig};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, NodeId, PathId, PathObservation, ProbePath};
use detector_system::{Diagnoser, PathCounters, PingerReport, Watchdog};
use proptest::prelude::*;

/// How a case numbers and declares its matrices.
#[derive(Clone, Copy, Debug)]
struct Layout {
    /// Segmented ids (`from_segmented`) instead of dense ones.
    segmented: bool,
    /// The matrices declare 9 links, so paths over links 9..12 name links
    /// beyond the universe.
    short: bool,
}

impl Layout {
    /// The id of path `i`. Segmented, paths come in cells of four with a
    /// free id after each path, and the first cell's range sorts after
    /// the next two's, as a re-based cell's does: row order is not id
    /// order.
    fn id(self, i: usize) -> u32 {
        if !self.segmented {
            return i as u32;
        }
        let base = [24, 0, 12][i / 4 % 3];
        base + 2 * (i % 4) as u32
    }
}

/// A matrix from raw link-id lists over 12 links (the generator of
/// `components.rs`'s proptest), numbered and declared as `layout` says.
fn matrix_from(paths: &[Vec<u32>], layout: Layout) -> ProbeMatrix {
    let probe_paths: Vec<ProbePath> = paths
        .iter()
        .enumerate()
        .map(|(i, ls)| {
            let mut ls: Vec<LinkId> = ls.iter().map(|&l| LinkId(l)).collect();
            ls.sort_unstable();
            ls.dedup();
            ProbePath::from_links(layout.id(i), ls)
        })
        .collect();
    let num_links = if layout.short { 9 } else { 12 };
    if layout.segmented {
        ProbeMatrix::from_segmented(num_links, probe_paths)
    } else {
        ProbeMatrix::from_paths(num_links, probe_paths)
    }
}

/// Lost packets of 100 sent per severity: clean, below the noise filter
/// (`min_loss_count = 3`), partial, heavy. Severity 4 is "not covered by
/// this report".
const LOST: [u64; 4] = [0, 2, 40, 80];

/// One pinger's report: path `i` at `rows[i]`'s severity, plus an id no
/// matrix resolves (40) at `stray`'s.
fn report(
    pinger: u32,
    window: u64,
    rows: &[u8],
    stray: u8,
    jitter: bool,
    layout: Layout,
) -> PingerReport {
    let counters = |sev: u8| {
        let lost = LOST[sev as usize];
        PathCounters {
            sent: 100,
            // Same lossy flags, other counters: noise stays noise.
            lost: if jitter && lost > 2 {
                lost / 2 + 7
            } else {
                lost
            },
        }
    };
    let mut paths: Vec<(PathId, PathCounters)> = rows
        .iter()
        .enumerate()
        .filter(|(_, &sev)| sev < 4)
        .map(|(i, &sev)| (PathId(layout.id(i)), counters(sev)))
        .collect();
    if stray < 4 {
        paths.push((PathId(40), counters(stray)));
    }
    paths.sort_unstable_by_key(|&(p, _)| p);
    PingerReport {
        pinger: NodeId(pinger),
        window,
        paths,
        ..Default::default()
    }
}

/// `(lossy_paths, components)` counted the slow way: lossy after
/// pre-processing, and link sets merged pairwise until disjoint.
fn reference_shape(matrix: &ProbeMatrix, obs: &[PathObservation], cfg: &PllConfig) -> (u64, u64) {
    let lossy: Vec<PathObservation> = preprocess(obs, cfg, &HashSet::new())
        .into_iter()
        .filter(PathObservation::is_lossy)
        .collect();
    let mut groups: Vec<HashSet<LinkId>> = Vec::new();
    for o in &lossy {
        let Some(path) = matrix.path(o.path) else {
            continue;
        };
        let mut merged: HashSet<LinkId> = path.links().iter().copied().collect();
        if merged.is_empty() {
            continue;
        }
        groups.retain(|g| {
            let touches = !g.is_disjoint(&merged);
            if touches {
                merged.extend(g);
            }
            !touches
        });
        groups.push(merged);
    }
    (lossy.len() as u64, groups.len() as u64)
}

/// One window's reports: per pinger, the severity of each path and of
/// the unresolvable id.
type Reports = Vec<(Vec<u8>, u8)>;

type WindowSpec = (
    // 0 = fresh reports, 1 = the previous window's again (verdict
    // reuse), 2 = the previous window's with other loss counters
    // (skeleton reuse).
    u8,
    Reports,
    // Bit p set ⇒ the watchdog excludes pinger p this window.
    u8,
    // 0 ⇒ install the other matrix before this window.
    u8,
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn diagnoser_equals_plain_localize_over_the_report_store(
        paths_a in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..4), 4..12),
        paths_b in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..4), 4..12),
        windows in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(
                    (proptest::collection::vec(0u8..5, 4..12), 0u8..12), 1..4),
                0u8..8,
                0u8..4,
            ),
            1..7,
        ),
        segmented in 0u8..2,
        short in 0u8..2,
    ) {
        let windows: Vec<WindowSpec> = windows;
        let layout = Layout { segmented: segmented == 1, short: short == 1 };
        let matrices = [matrix_from(&paths_a, layout), matrix_from(&paths_b, layout)];
        let cfg = PllConfig { min_loss_count: 3, ..PllConfig::default() };
        let mut d = Diagnoser::new(matrices[0].clone(), cfg);
        let mut installed = 0usize;
        let mut previous: Option<(&Reports, bool)> = None;

        for (w, (kind, fresh, excluded, swap)) in windows.iter().enumerate() {
            let w = w as u64;
            if *swap == 0 {
                installed ^= 1;
                d.set_matrix(matrices[installed].clone());
            }
            let (reports, jitter) = match (kind, previous) {
                (1, Some(same)) => same,
                (2, Some((prev, jittered))) => (prev, !jittered),
                _ => (fresh, false),
            };
            previous = Some((reports, jitter));
            for (p, (rows, stray)) in reports.iter().enumerate() {
                d.ingest(report(p as u32, w, rows, *stray, jitter, layout));
            }
            let mut watchdog = Watchdog::new();
            for p in (0..3u32).filter(|p| excluded & (1 << p) != 0) {
                watchdog.mark_unhealthy(NodeId(p));
            }

            let oracle = d.observations(w, &watchdog);
            let ev = d.diagnose(w, &watchdog);
            prop_assert_eq!(ev.num_observations, oracle.len(), "window {}", w);
            prop_assert_eq!(
                &ev.diagnosis,
                &localize(d.matrix(), &oracle, &cfg),
                "window {}", w
            );
            prop_assert_eq!(
                (ev.lossy_paths, ev.components),
                reference_shape(d.matrix(), &oracle, &cfg),
                "window {}", w
            );
        }
    }
}
