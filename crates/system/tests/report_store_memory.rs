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
//! One `#[test]` in its own binary: the counts are process-wide, so no
//! sibling test may allocate while they are read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, NodeId, PathId, ProbePath};
use detector_system::{FlowRecord, PathCounters, PingerReport, ReportStore, RowSums};

/// Allocations (and growths) made so far.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// The system allocator plus process-wide counts.
struct Count;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract is this allocator's contract; bumping an atomic
// never allocates, so the allocator does not re-enter itself.
unsafe impl GlobalAlloc for Count {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Count = Count;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
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
    let templates: Vec<PingerReport> = (0..4).map(report).collect();
    // The first 60 of each pinger's paths: the last 4 are ids the matrix
    // cannot resolve, summed on the walk's side list. Path `i` of pinger
    // `p` crosses link `(4p + i) % 6`, so the lossy paths (every fourth)
    // mark the even links, and the even paths are kept.
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
            allocations_of(|| store.window_kept(w, &matrix, &excluded, &mut sums));
        let pingers = 4 - w % 2;
        assert_eq!(reports, pingers, "window {w}");
        assert_eq!(observed as u64, 64 * pingers, "window {w}");
        // A pinger's 30 even paths and its lossy stray.
        assert_eq!(kept.len() as u64, 31 * pingers, "window {w}");
        drop(kept);
        if w > HISTORY {
            assert_eq!(store.reports_in_window(w - HISTORY - 1), 0, "window {w}");
        }
        let live = LIVE_BYTES.load(Ordering::SeqCst);
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
