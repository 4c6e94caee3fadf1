//! The plane's memory is bounded, pinned as a property a clock cannot
//! gate: over ten thousand windows of fold / seal — every seventh sealed
//! after one report — once the first few windows have sized the table,
//! folding allocates nothing, sealing allocates only the observations it
//! hands out, and nothing the plane holds grows.
//!
//! One `#[test]` in its own binary: the counts are process-wide, so no
//! sibling test may allocate while they are read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use detector_core::types::PathId;
use detector_ingest::IngestPlane;

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
const WARM_UP: u64 = 10;

#[test]
fn ten_thousand_windows_hold_what_ten_do() {
    // Three reports that overlap on some paths; which two a window folds
    // rotates, so the set of paths a table holds changes window by window.
    let reports: Vec<Vec<(PathId, u64, u64)>> = (0..3u32)
        .map(|r| {
            (0..300)
                .map(|p| (PathId(p * 2 + r * 100), 8, u64::from(p % 2)))
                .collect()
        })
        .collect();
    // A hint far below the 350–400 paths a window sees: the table has to
    // grow to its size, and then has to stay there.
    let mut plane = IngestPlane::for_paths(4);
    let mut live_after_warm_up = 0;
    for w in 0..WINDOWS {
        let (a, b) = (&reports[(w % 3) as usize], &reports[((w + 1) % 3) as usize]);
        let short = w % 7 == 6;
        let (folding, ()) = allocations_of(|| {
            plane.fold(w, a.iter().copied());
            if !short {
                plane.fold(w, b.iter().copied());
            }
        });
        let (sealing, sealed) = allocations_of(|| plane.seal(w));
        assert!(sealed.observations.len() >= 300, "window {w}");
        drop(sealed);
        let live = LIVE_BYTES.load(Ordering::SeqCst);
        match w {
            0..WARM_UP => {}
            WARM_UP => live_after_warm_up = live,
            _ => {
                assert_eq!(folding, 0, "window {w}: fold allocated");
                assert_eq!(sealing, 1, "window {w}: seal allocates its observations");
                assert_eq!(
                    live, live_after_warm_up,
                    "window {w}: an open window or a second spare table was left behind"
                );
            }
        }
    }
}
