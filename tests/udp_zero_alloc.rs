//! The probe wire path allocates nothing, pinned as a property a timing
//! cannot gate: once the socket pool and the responder threads are warm,
//! a delivered probe — a socket taken from the pool, encode on the
//! caller's stack, `send`, the responder's validate + echo through its
//! two loop-owned buffers, the caller's own `recvmsg` and in-place
//! decode, the socket handed back — performs zero heap allocations in
//! the whole process, and so does the codec on datagrams it rejects.
//!
//! One `#[test]` in its own binary. The work spans the caller and the
//! responder threads it spawns, so the count covers every thread but
//! one: the test harness's main thread, which allocates for its own
//! bookkeeping right after spawning the test and, on a busy host, can do
//! so inside a counted window. The main thread allocates before it
//! spawns any other, so the process's first allocation marks it as the
//! one thread left out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use detector::prelude::*;
use detector_simnet::{decode_probe, PROBE_WIRE_SIZE};
use detector_system::Responder;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Allocations (and growths) made by counted threads so far.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Set by the first allocation of the process, the main thread's.
static MAIN_SEEN: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// This thread's role, fixed at its first allocation: `None` until
    /// then, `Some(false)` on the main thread, `Some(true)` on every
    /// other.
    static COUNTED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Counts one allocation call if the calling thread is counted.
fn count() {
    let counted = COUNTED.get().unwrap_or_else(|| {
        let counted = MAIN_SEEN.swap(true, Ordering::Relaxed);
        COUNTED.set(Some(counted));
        counted
    });
    if counted {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The system allocator plus a count of the allocation calls of every
/// thread but the main one.
struct Count;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract is this allocator's contract; bumping an atomic or
// a `const` thread-local of a type without `Drop` never allocates, so
// the allocator does not re-enter itself.
unsafe impl GlobalAlloc for Count {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Count = Count;

fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

const DPORT: u16 = 53_533;
const WARM_UP: u64 = 100;
const MEASURED: u64 = 1_000;

#[test]
fn a_warm_probe_path_allocates_nothing() {
    // The test thread is one of the counted: a zero below is a finding.
    let boxed = allocations_of(|| drop(std::hint::black_box(Box::new(0u64))));
    assert_eq!(boxed, 1, "the test thread's allocations are not counted");
    let harness = UdpHarness::spawn(2, DPORT, Arc::new(HostClock::new())).unwrap();
    let cfg = UdpConfig {
        sockets: 1,
        // Patient enough that a descheduled responder on a busy host is
        // a slow echo, not a retry: the counters below stay exact.
        retry: RetryPolicy {
            attempt_timeout_us: 2_000_000,
            max_timeout_us: 2_000_000,
            ..RetryPolicy::default()
        },
        ..UdpConfig::default()
    };
    let plane = harness.dataplane(&cfg, None).unwrap();
    let route = Route::default();
    let mut rng = SmallRng::seed_from_u64(1);
    // Alternates responders, and encapsulated with direct probes.
    let mut probe = |i: u64| {
        let tag = ProbeTag {
            window: i / 50,
            path_id: i as u32 % 7,
            waypoint: i as u32 % 3,
        };
        let flow = FlowKey::udp(1, i as u32 % 2, 33_000 + (i % 16) as u16, DPORT);
        assert!(plane.probe_tagged(tag, &route, flow, &mut rng).delivered);
    };

    (0..WARM_UP).for_each(&mut probe);
    let on_the_wire = allocations_of(|| (WARM_UP..WARM_UP + MEASURED).for_each(&mut probe));
    assert_eq!(
        on_the_wire, 0,
        "{MEASURED} delivered probes allocated {on_the_wire} times"
    );

    let total = WARM_UP + MEASURED;
    let stats = plane.stats();
    assert_eq!((stats.sent, stats.delivered), (total, total));
    assert_eq!(
        (stats.retries, stats.timeouts, stats.late_echoes),
        (0, 0, 0)
    );
    assert_eq!((stats.decode_errors, stats.send_errors), (0, 0));
    assert_eq!(
        harness.stats(),
        HarnessStats {
            echoed: total,
            stray: 0,
            corrupt: 0
        }
    );

    // The rejecting side of the codec: noise of every length up to 2 KiB,
    // half of it steered past the version check.
    let responder = Responder::new(DPORT);
    let mut noise = [0u8; 2048];
    let mut reply = [0u8; PROBE_WIRE_SIZE];
    let on_garbage = allocations_of(|| {
        for len in 0..=noise.len() {
            rng.fill_bytes(&mut noise);
            if len % 2 == 0 {
                noise[0] = 0x45;
                noise[20] = 0x45;
            }
            let datagram = &noise[..len];
            let decoded = decode_probe(datagram);
            let echoed = responder.echo(datagram, len as u64, &mut reply);
            if let Err(e) = decoded {
                assert_eq!(echoed, Err(e));
            }
        }
    });
    assert_eq!(on_garbage, 0, "rejecting datagrams allocated");
}
