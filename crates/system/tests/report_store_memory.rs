//! The report store's memory is bounded, pinned as a property a clock
//! cannot gate: over ten thousand windows of ingest, the diagnoser's one
//! walk of the window and `prune_before(w − 20)` — what every driver's
//! close half does — once the retained windows have sized their logs,
//! filing a window allocates nothing, the walk allocates only the kept
//! observations it returns, and nothing the store or the walk's
//! accumulator holds grows. The matrix's link → row incidence is built
//! once, with the accumulator, never by the walk. A pruned window's log
//! is reused, not freed: the reports' own blocks are the only memory
//! released.
//!
//! Beside it, the diagnoser's steady-state window is pinned at its exact
//! allocation count, once for a window that reuses the cached skeleton
//! and once for one that rebuilds it.
//!
//! Only the allocations of the thread a test runs on are counted, into
//! that thread's own counters: the harness's main thread allocates for
//! its own bookkeeping right after spawning a test, and on a busy host
//! that can land past the warm-up, inside a counted window; the two
//! tests may run at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use detector_core::pll::PllConfig;
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, NodeId, PathId, ProbePath};
use detector_system::{
    Diagnoser, FlowRecord, PathCounters, PingerReport, ReportStore, RowSums, Watchdog,
};

thread_local! {
    /// Whether this thread's allocations are counted: set by the test.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Allocations (and growths) this thread made while counted.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated while counted and not yet freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator plus counts of the test thread's allocations.
struct Count;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract is this allocator's contract; reading or writing a
// `const` thread-local of a type without `Drop` never allocates, so the
// allocator does not re-enter itself.
unsafe impl GlobalAlloc for Count {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
            LIVE_BYTES.set(LIVE_BYTES.get() + layout.size() as isize);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTED.get() {
            LIVE_BYTES.set(LIVE_BYTES.get() - layout.size() as isize);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
            LIVE_BYTES.set(LIVE_BYTES.get() + new_size as isize - layout.size() as isize);
        }
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Count = Count;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.get();
    let out = f();
    (ALLOCATIONS.get() - before, out)
}

const WINDOWS: u64 = 10_000;
/// Windows the store retains besides the newest, as the drivers prune.
const HISTORY: u64 = 20;
/// Past the first `HISTORY + 1` windows, each of which sizes a new log.
const WARM_UP: u64 = 30;

/// Pinger `p`'s fixed-shape report: 64 paths (the last 16 without a
/// `flows_probed` entry), 16 in-rack probes, 2 lossy flows on every
/// fourth path.
fn report(p: u32) -> PingerReport {
    let counters = |sent, lost| PathCounters { sent, lost };
    let paths: Vec<(PathId, PathCounters)> = (0..64)
        .map(|i| (PathId(p * 100 + i), counters(12, u64::from(i % 4 == 0) * 4)))
        .collect();
    let flows = (paths.iter().step_by(4))
        .flat_map(|&(path, _)| {
            (0..2).map(move |s| FlowRecord {
                path,
                sport: 33000 + s,
                dscp: 0,
                sent: 3,
                lost: 2,
            })
        })
        .collect();
    PingerReport {
        pinger: NodeId(p),
        window: 0,
        paths,
        flows_probed: vec![6; 48],
        in_rack: counters(16, 0),
        flows,
    }
}

#[test]
fn ten_thousand_windows_hold_what_twenty_one_do() {
    COUNTED.set(true);
    let templates: Vec<PingerReport> = (0..4).map(report).collect();
    // The first 60 of each pinger's paths: the last 4 are ids the matrix
    // cannot resolve, summed on the walk's side list. Path `i` of pinger
    // `p` crosses link `(4p + i) % 6`; the odd windows leave pinger 3's
    // rows unobserved, which the walk counts per link.
    let paths = (0..4u32)
        .flat_map(|p| (0..60).map(move |i| p * 100 + i))
        .map(|id| ProbePath::from_links(id, vec![LinkId(id % 6)]));
    let matrix = ProbeMatrix::from_segmented(6, paths.collect());
    let store = ReportStore::new();
    let mut sums = RowSums::new(&matrix);
    let mut live_after_warm_up = 0;
    for w in 0..WINDOWS {
        // Decoding a frame is what allocates a report; not the store.
        let reports: Vec<PingerReport> = (templates.iter())
            .map(|t| PingerReport {
                window: w,
                ..t.clone()
            })
            .collect();
        let (filing, ()) = allocations_of(|| {
            for r in reports {
                store.ingest(r);
            }
            store.prune_before(w.saturating_sub(HISTORY));
        });
        assert_eq!(store.reports_in_window(w), templates.len(), "window {w}");
        // Odd windows exclude pinger 3 and its 64 paths.
        let excluded = |p: NodeId| w % 2 == 1 && p == NodeId(3);
        let (walking, (kept, observed, reports)) =
            allocations_of(|| store.window_lossy(w, &matrix, &excluded, &mut sums));
        let pingers = 4 - w % 2;
        assert_eq!(reports, pingers, "window {w}");
        assert_eq!(observed as u64, 64 * pingers, "window {w}");
        // A pinger's 15 lossy paths and its lossy stray.
        assert_eq!(kept.len() as u64, 16 * pingers, "window {w}");
        drop(kept);
        if w > HISTORY {
            assert_eq!(store.reports_in_window(w - HISTORY - 1), 0, "window {w}");
        }
        let live = LIVE_BYTES.get();
        match w {
            0..WARM_UP => {}
            WARM_UP => live_after_warm_up = live,
            _ => {
                assert_eq!(filing, 0, "window {w}: ingest + prune allocated");
                assert_eq!(
                    walking, 1,
                    "window {w}: the walk allocated beside its result"
                );
                assert_eq!(
                    live, live_after_warm_up,
                    "window {w}: a pruned log was kept beside its reuse, or a log or the sums grew"
                );
            }
        }
    }
}

/// Three islands of two links each, every path from both pingers:
/// island `k` has paths `3k` over links `{2k, 2k + 1}`, `3k + 1` over
/// link `2k` and `3k + 2` over link `2k + 1`.
fn islands() -> ProbeMatrix {
    let paths = (0..3u32).flat_map(|k| {
        let (a, b) = (LinkId(2 * k), LinkId(2 * k + 1));
        [
            ProbePath::from_links(3 * k, vec![a, b]),
            ProbePath::from_links(3 * k + 1, vec![a]),
            ProbePath::from_links(3 * k + 2, vec![b]),
        ]
    });
    ProbeMatrix::from_paths(6, paths.collect())
}

/// Pinger `p`'s window-`w` report over the nine paths of [`islands`]:
/// the first two paths of each island in `lossy` lose `lost` of 100.
fn island_report(p: u32, w: u64, lossy: &[u32], lost: u64) -> PingerReport {
    let paths = (0..9u32)
        .map(|i| {
            let lost = if lossy.contains(&(i / 3)) && i % 3 < 2 {
                lost
            } else {
                0
            };
            (PathId(i), PathCounters { sent: 100, lost })
        })
        .collect();
    PingerReport {
        pinger: NodeId(p),
        window: w,
        paths,
        ..Default::default()
    }
}

/// Allocations of one `Diagnoser::diagnose` of a two-component window
/// whose lossy paths are the same as its predecessor's and whose loss
/// counters are not: the skeleton is reused and both greedies run.
const REUSED_SKELETON: usize = 9;
/// Allocations of one `Diagnoser::diagnose` of a two-component window
/// whose lossy paths differ from its predecessor's: the skeleton is
/// rebuilt and both greedies run.
const REBUILT_SKELETON: usize = 20;

#[test]
fn a_diagnosed_window_allocates_a_pinned_count() {
    COUNTED.set(true);
    let mut d = Diagnoser::new(islands(), PllConfig::default());
    let watchdog = Watchdog::new();
    for w in 0..200u64 {
        // The first half keeps islands 0 and 1 lossy and alternates the
        // loss counters; the second half alternates island 1 with 2.
        let (lossy, lost) = match (w < 100, w % 2) {
            (true, 0) => ([0, 1], 40),
            (true, _) => ([0, 1], 60),
            (false, 0) => ([0, 1], 40),
            (false, _) => ([0, 2], 40),
        };
        for p in 0..2 {
            d.ingest(island_report(p, w, &lossy, lost));
        }
        let (allocations, ev) = allocations_of(|| d.diagnose(w, &watchdog));
        assert_eq!((ev.lossy_paths, ev.components), (4, 2), "window {w}");
        assert_eq!(ev.diagnosis.suspects.len(), 2, "window {w}");
        d.prune_before(w.saturating_sub(HISTORY));
        match w {
            WARM_UP..100 => assert_eq!(allocations, REUSED_SKELETON, "window {w}"),
            130.. => assert_eq!(allocations, REBUILT_SKELETON, "window {w}"),
            _ => {}
        }
    }
}
