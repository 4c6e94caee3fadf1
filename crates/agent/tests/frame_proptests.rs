//! Property tests for the wire-protocol frame codec: arbitrary frames
//! and real pingers' reports round-trip byte-exactly, every truncation
//! is detected, and arbitrary bytes — random buffers and damaged valid
//! frames alike — decode to a frame that re-encodes to the very same
//! bytes or to a typed error, without panicking and without reserving
//! more than a constant times the input length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use detector_agent::{Frame, FrameError, MAX_FRAME};
use detector_core::types::{LinkId, NodeId, PathId};
use detector_simnet::{Fabric, LossDiscipline};
use detector_system::{
    Controller, FlowRecord, ListUpdate, PathCounters, PingEntry, PingerBatch, PingerReport,
    Pinglist, SystemConfig,
};
use detector_topology::{DcnTopology, Fattree};
use proptest::prelude::*;

thread_local! {
    /// Bytes this thread has requested from the allocator so far.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread tally of requested bytes, so a
/// property can bound what one `Frame::decode` call reserves while other
/// tests run on other threads.
struct Tally;

fn tally(bytes: usize) {
    // Ignoring the error is right: it only occurs while the thread is
    // being torn down, after every measurement.
    let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract is this allocator's contract. The tally is a
// const-initialised `Cell<usize>` without a destructor: bumping it never
// allocates, so the allocator does not re-enter itself.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Tally = Tally;

/// What decoding may reserve per input byte. The dearest honest input is
/// a pinglist of minimal 8-byte entries growing a `Vec` of 48-byte
/// `PingEntry`s by doubling (≤ 4 × 48 / 8 = 24); a report's 4-byte flow
/// records cost 24 / 4 = 6, its 5-byte path records — a 24-byte
/// `(PathId, PathCounters)` and a 4-byte flow count — (24 + 4) / 5 < 6.
const RESERVE_PER_BYTE: usize = 32;

/// Decodes arbitrary bytes under the three guarantees of the codec: no
/// panic, bounded reservation, and a canonical encoding (whatever
/// decodes re-encodes to exactly the input).
fn decode_checked(bytes: &[u8]) -> Result<Frame, FrameError> {
    let before = REQUESTED.with(Cell::get);
    let got = Frame::decode(bytes);
    let reserved = REQUESTED.with(Cell::get) - before;
    assert!(
        reserved <= RESERVE_PER_BYTE * bytes.len() + 64,
        "decoding {} bytes reserved {reserved}",
        bytes.len()
    );
    if let Ok(frame) = &got {
        assert_eq!(frame.encode(), bytes, "{frame:?} is not canonical");
    }
    got
}

/// Builds one arbitrary entry from raw draws.
fn entry(path: u32, hops: &[u32], responder: u32, waypoint: u32) -> PingEntry {
    PingEntry {
        path: (!path.is_multiple_of(3)).then_some(PathId(path)),
        route: hops.iter().map(|&h| NodeId(h)).collect(),
        responder: NodeId(responder),
        waypoint: (waypoint.is_multiple_of(2)).then_some(NodeId(waypoint)),
    }
}

/// Decodes one raw tuple into an arbitrary frame: `kind` selects the
/// variant, the remaining draws fill its fields.
fn frame(kind: u8, a: u64, b: u64, hops: Vec<u32>, entries: u8) -> Frame {
    let pinger = NodeId(a as u32 % 4096);
    let kind = kind % 14;
    match kind {
        0 => Frame::Hello { agent: a as u32 },
        1 => {
            let mut list = Pinglist {
                version: a,
                pinger,
                entries: (0..entries % 8)
                    .map(|i| entry(b as u32 + u32::from(i), &hops, a as u32, u32::from(i)))
                    .collect(),
                interval_us: b,
                base_sport: a as u16,
                port_range: b as u16,
                dport: (a >> 16) as u16,
                stamp: 0,
            };
            list.seal();
            Frame::ListUpdate(ListUpdate::Replace(list))
        }
        2 => Frame::ListUpdate(ListUpdate::Remove(pinger)),
        // Edit scripts: removals and additions, additions alone, and a
        // bare seal.
        3 | 4 | 6 => {
            let removed = match kind {
                3 => hops.iter().map(|&h| u64::from(h) << 32 | b >> 32).collect(),
                _ => Vec::new(),
            };
            let added = if kind == 6 { 0 } else { entries % 8 };
            Frame::ListUpdate(ListUpdate::Diff {
                pinger,
                version: a,
                stamp: b,
                removed,
                added: (0..added)
                    .map(|i| {
                        let e = entry(b as u32 + u32::from(i), &hops, a as u32, u32::from(i));
                        (u32::from(i) * 3, e)
                    })
                    .collect(),
            })
        }
        7 => Frame::Reset,
        8 => Frame::WindowStart {
            window: a,
            window_seed: b,
            skip: hops.iter().map(|&h| NodeId(h)).collect(),
        },
        9 => Frame::HeartbeatReq { nonce: a },
        10 => Frame::HeartbeatAck {
            nonce: a,
            agent: b as u32,
        },
        11 => {
            // Distinct ascending keys from the raw draws. Every path has
            // up to three flow records, some sharing a source port, and
            // up to three clean flows beside them; its counters are what
            // those add up to. A key divisible by 5 reports counters
            // only: no flows probed, no records. A path whose flows all
            // lost everything ships their count and no record.
            let bare = |h: u32| h.is_multiple_of(5);
            let mut keys = hops;
            keys.sort_unstable();
            keys.dedup();
            let records = |h: u32| {
                // A quarter of u64 at most: three of them and the clean
                // flows' probes still fit the path's counter.
                let per_flow = (b >> (h % 64) >> 2).max(1);
                (0..if bare(h) { 0 } else { h % 4 }).map(move |i| FlowRecord {
                    path: PathId(h),
                    sport: a as u16 % 60_000 + (i / 2) as u16,
                    dscp: b as u8 / 2 + (i % 2) as u8,
                    sent: per_flow,
                    lost: (per_flow / (u64::from(i) + 1)).max(1),
                })
            };
            let clean_flows = |h: u32| if bare(h) { 0 } else { (h / 4) % 4 };
            let all_lost = |h: u32| clean_flows(h) == 0 && records(h).all(|f| f.lost == f.sent);
            let shipped = |h: u32| records(h).filter(move |_| !all_lost(h));
            let counters = |h: u32| {
                let own = records(h);
                let (sent, lost) = own.fold((0, 0), |(s, l), f| (s + f.sent, l + f.lost));
                // The clean flows' probes: at least one each.
                let clean = u64::from(clean_flows(h)) * (a % 7 + 1);
                PathCounters {
                    sent: sent + if bare(h) { a % 1000 } else { clean },
                    lost: if bare(h) { a % 1000 / 3 } else { lost },
                }
            };
            Frame::Report(PingerReport {
                pinger,
                window: b,
                paths: keys.iter().map(|&h| (PathId(h), counters(h))).collect(),
                flows_probed: (keys.iter())
                    .map(|&h| records(h).count() as u32 + clean_flows(h))
                    .collect(),
                in_rack: keys.last().map(|&h| counters(h)).unwrap_or_default(),
                flows: keys.iter().flat_map(|&h| shipped(h)).collect(),
            })
        }
        12 => Frame::WindowDone {
            window: a,
            agent: b as u32,
        },
        _ => Frame::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Any frame decodes back to itself from exactly its own bytes.
    #[test]
    fn any_frame_round_trips(
        kind in 0u8..14,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        hops in proptest::collection::vec(0u32..10_000, 0..6),
        entries in 0u8..8,
    ) {
        let f = frame(kind, a, b, hops, entries);
        let bytes = f.encode();
        prop_assert_eq!(decode_checked(&bytes).unwrap(), f);
    }

    /// Every strict prefix of a valid frame is `Truncated`; a trailing
    /// byte is `TrailingBytes`. No input panics.
    #[test]
    fn truncations_and_trailers_are_rejected(
        kind in 0u8..14,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        hops in proptest::collection::vec(0u32..10_000, 0..4),
        entries in 0u8..5,
    ) {
        let bytes = frame(kind, a, b, hops, entries).encode();
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                Frame::decode(&bytes[..cut]),
                Err(FrameError::Truncated),
                "prefix of {} bytes must be truncated", cut
            );
        }
        let mut padded = bytes;
        padded.push(0);
        prop_assert_eq!(Frame::decode(&padded), Err(FrameError::TrailingBytes));
    }

    /// A valid `Report` frame with bits flipped, its tail cut or grown
    /// (length prefix patched to match, so the damage reaches the report
    /// decoder) still decodes canonically or fails typed.
    #[test]
    fn damaged_report_frames_never_panic(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        hops in proptest::collection::vec(0u32..10_000, 0..12),
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 0..4),
        resize in 0usize..64,
        patch_prefix in 0u8..2,
    ) {
        let mut bytes = frame(11, a, b, hops, 0).encode();
        prop_assert!(decode_checked(&bytes).is_ok());
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        // 0..32 cuts the tail, 32..64 appends that many bytes.
        if resize < 32 {
            bytes.truncate(bytes.len().saturating_sub(resize).max(5));
        } else {
            bytes.extend((32..resize).map(|i| (a >> (i % 57)) as u8));
        }
        if patch_prefix == 1 {
            let len = (bytes.len() - 4) as u32;
            bytes[..4].copy_from_slice(&len.to_be_bytes());
        }
        let _ = decode_checked(&bytes);
    }

    /// A corrupted length prefix above `MAX_FRAME` is rejected up front,
    /// whatever follows it. (A bare 4-byte prefix with no tag byte is
    /// `Truncated` first — the prefix alone is not yet a frame.)
    #[test]
    fn oversize_prefixes_are_rejected(extra in 1u32..1_000_000, tail in 1u64..64) {
        let len = MAX_FRAME.saturating_add(extra);
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(0u8, tail as usize));
        prop_assert_eq!(Frame::decode(&bytes), Err(FrameError::Oversize(len)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reports as pingers build them — every loss discipline, on one to
    /// three links of a noisy Fattree(4) or (6) — satisfy every rule the
    /// decoder enforces and come back field for field.
    #[test]
    fn pinger_reports_round_trip(
        big in 0u8..2,
        failures in proptest::collection::vec((0u16..512, 0u8..4, 0u8..60), 1..4),
        seed in 0u64..1_000,
    ) {
        let ft = Arc::new(Fattree::new(if big == 1 { 6 } else { 4 }).unwrap());
        let cfg = SystemConfig::default();
        let dep = Controller::new(ft.clone(), cfg.clone())
            .build_deployment(&HashSet::new())
            .expect("deployment builds");
        let mut fabric = Fabric::new(ft.as_ref(), seed);
        for (link, kind, level) in failures {
            let discipline = match kind {
                0 => LossDiscipline::Full,
                1 => LossDiscipline::DeterministicPartial {
                    fraction: 0.2 + f64::from(level % 6) / 10.0,
                    salt: u64::from(level),
                },
                2 => LossDiscipline::RandomPartial { rate: 0.01 + f64::from(level % 30) / 100.0 },
                _ => LossDiscipline::DscpBlackhole { dscp: 46 },
            };
            let link = LinkId(u32::from(link) % ft.probe_links() as u32);
            fabric.set_discipline_both(link, discipline);
        }
        let mut lossy = 0;
        for list in &dep.pinglists {
            let batch = PingerBatch::bind(list.clone(), ft.graph());
            let report = batch.run_window(&fabric, &cfg, seed % 5, seed);
            lossy += report.paths.iter().filter(|(_, c)| c.lost > 0).count();
            let bytes = Frame::Report(report.clone()).encode();
            prop_assert_eq!(decode_checked(&bytes), Ok(Frame::Report(report)));
        }
        prop_assert!(lossy > 0, "the failures lost nothing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Arbitrary garbage never panics the decoder — it either parses
    /// (canonically) or fails with a typed error. Half the cases get a
    /// consistent length prefix and a valid tag so the payload decoders
    /// are reached, not just the header checks; half the bytes are drawn
    /// from 0..4, the values flags, counts and varint tails take, so the
    /// decoders get past their first field.
    #[test]
    fn garbage_never_panics(
        raw in proptest::collection::vec(0u64..512, 0..96),
        framed in 0u8..2,
        tag in 0u8..14,
    ) {
        let mut bytes: Vec<u8> = (raw.iter())
            .map(|&b| if b < 256 { b as u8 } else { b as u8 % 4 })
            .collect();
        if framed == 1 && bytes.len() >= 5 {
            let len = (bytes.len() - 4) as u32;
            bytes[..4].copy_from_slice(&len.to_be_bytes());
            bytes[4] = tag;
        }
        let _ = decode_checked(&bytes);
    }
}
