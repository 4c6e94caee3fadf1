//! The sharded, lock-free ingest plane.
//!
//! Per-path `(sent, lost)` counters accumulate into striped atomic
//! shards as reports arrive: a path hashes to `shard = hash(PathId) % N`
//! and claims an open-addressing slot inside that shard with a single
//! key CAS; counter updates are plain `fetch_add`s. Shards are
//! cache-line padded so folds on different shards never contend on a
//! line.
//!
//! Windows are **lanes**: `window % lanes` selects a bank of shards
//! tagged with the window id, so diagnosis [`seal`](IngestPlane::seal)s
//! a frozen snapshot of window `w` while folds for `w + 1` accumulate in
//! the next lane (the per-window epoch swap). A lane still owned by an
//! unsealed older window — more in-flight windows than lanes — routes
//! the whole report through a mutex-guarded overflow map instead, as
//! does a shard whose table fills up: the fast path is lock-free, the
//! slow path is merely correct.
//!
//! Sealing drains the lane into a `Vec<PathObservation>` sorted by path
//! id — byte-for-byte the aggregation `ReportStore::window_observations`
//! produces from the same reports — and resets the lane for reuse.
//!
//! Concurrency contract: any number of threads may [`fold`]
//! (IngestPlane::fold) and [`retract`](IngestPlane::retract)
//! concurrently; [`seal`](IngestPlane::seal)ing window `w` must not race
//! folds *into `w`* (the schedulers seal only after every report of the
//! window was collected — younger windows may keep folding).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use detector_core::types::{PathId, PathObservation};
use parking_lot::Mutex;

/// Lane tag meaning "no window owns this lane".
const UNCLAIMED: u64 = u64::MAX;

/// Slot key meaning "empty"; occupied slots store `path.0 + 1`.
const EMPTY: u64 = 0;

/// Sizing of the ingest plane.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Striped shards per lane; a path's counters live in
    /// `hash(path) % shards`.
    pub shards: usize,
    /// Open-addressing slots per shard (rounded up to a power of two).
    /// A full shard overflows into the mutex-guarded slow path, so this
    /// is a performance knob, not a capacity limit.
    pub slots_per_shard: usize,
    /// Concurrent window banks. With the schedulers' in-order sealing,
    /// `pipeline depth + 1` lanes suffice; extra in-flight windows fall
    /// back to the overflow map.
    pub lanes: usize,
    /// The top-K budget of the pre-filter's `topk_hits` statistic: a
    /// window with more lossy paths than this reports zero hits.
    pub topk: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            slots_per_shard: 1024,
            lanes: 8,
            topk: 64,
        }
    }
}

/// One atomic counter cell. The key is claimed by CAS exactly once per
/// window; `sent`/`lost` then take relaxed adds from any thread.
struct Slot {
    key: AtomicU64,
    sent: AtomicU64,
    lost: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            key: AtomicU64::new(EMPTY),
            sent: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        }
    }
}

/// Pads a shard to its own cache lines so neighbouring shards' counter
/// traffic cannot false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

struct Shard {
    slots: Box<[Slot]>,
    /// Index mask; `slots.len()` is a power of two.
    mask: usize,
    /// Key-claim CASes lost to a concurrent claimer — the contention
    /// signal surfaced per window as `IngestStats::shard_contention`.
    contention: AtomicU64,
}

impl Shard {
    fn new(slots: usize) -> Self {
        let n = slots.next_power_of_two().max(2);
        Self {
            slots: (0..n).map(|_| Slot::empty()).collect(),
            mask: n - 1,
            contention: AtomicU64::new(0),
        }
    }
}

struct Lane {
    /// Window owning this bank, or [`UNCLAIMED`].
    tag: AtomicU64,
    /// Reports folded (minus retracted) into this bank.
    reports: AtomicU64,
    /// Retractions (entries or report counts) the bank could not absorb
    /// because nothing that large was ever folded — see
    /// [`SealedWindow::retract_mismatch`].
    mismatch: AtomicU64,
    shards: Box<[CachePadded<Shard>]>,
}

/// Slow-path storage for one window: whole reports that found their lane
/// owned by another window, plus single entries that found their shard
/// full.
#[derive(Default)]
struct OverflowWindow {
    reports: u64,
    mismatch: u64,
    paths: HashMap<PathId, (u64, u64)>,
}

/// A frozen, drained window snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SealedWindow {
    /// Aggregated per-path counters, sorted by path id — the exact
    /// shape `ReportStore::window_observations` hands to diagnosis.
    pub observations: Vec<PathObservation>,
    /// Reports folded into the window (retractions subtracted).
    pub reports: u64,
    /// Key-claim CAS retries observed while the window accumulated.
    /// Execution-schedule dependent: zero under single-threaded folding,
    /// anything under concurrency — event normalization zeroes it.
    pub shard_contention: u64,
    /// Retractions the window could not absorb: a retracted entry (or
    /// report count) exceeding what was folded — a duplicate crash
    /// notification, a double retract — subtracts only what is there
    /// (saturating, never wrapping) and counts the shortfall here.
    /// Always zero when every retract undoes exactly one prior fold.
    pub retract_mismatch: u64,
}

impl SealedWindow {
    /// Distinct paths that recorded at least one loss.
    pub fn distinct_lossy(&self) -> usize {
        self.observations.iter().filter(|o| o.is_lossy()).count()
    }
}

/// The sharded ingest plane. See the module docs for the design.
pub struct IngestPlane {
    cfg: IngestConfig,
    lanes: Box<[Lane]>,
    overflow: Mutex<HashMap<u64, OverflowWindow>>,
    /// Retractions against windows with no ledger state at all —
    /// retract-after-seal. They cannot surface in any
    /// [`SealedWindow::retract_mismatch`] (the window is gone), so they
    /// accumulate here for [`orphaned_retracts`]
    /// (IngestPlane::orphaned_retracts).
    orphans: AtomicU64,
}

impl IngestPlane {
    /// Builds a plane with explicit sizing.
    pub fn new(cfg: IngestConfig) -> Self {
        let cfg = IngestConfig {
            shards: cfg.shards.max(1),
            slots_per_shard: cfg.slots_per_shard.next_power_of_two().max(2),
            lanes: cfg.lanes.max(1),
            topk: cfg.topk.max(1),
        };
        let lanes = (0..cfg.lanes)
            .map(|_| Lane {
                tag: AtomicU64::new(UNCLAIMED),
                reports: AtomicU64::new(0),
                mismatch: AtomicU64::new(0),
                shards: (0..cfg.shards)
                    .map(|_| CachePadded(Shard::new(cfg.slots_per_shard)))
                    .collect(),
            })
            .collect();
        Self {
            cfg,
            lanes,
            overflow: Mutex::new(HashMap::new()),
            orphans: AtomicU64::new(0),
        }
    }

    /// Builds a plane sized for roughly `paths` distinct paths per
    /// window: enough slot headroom that the lock-free fast path almost
    /// never overflows.
    pub fn for_paths(paths: usize) -> Self {
        let cfg = IngestConfig::default();
        let per_shard = (2 * paths.max(1)).div_ceil(cfg.shards).max(64);
        Self::new(IngestConfig {
            slots_per_shard: per_shard,
            ..cfg
        })
    }

    /// The sizing this plane was built with (normalized).
    pub fn config(&self) -> &IngestConfig {
        &self.cfg
    }

    /// Folds one report's path counters into window `window` and counts
    /// one report. Lock-free whenever the window owns its lane and the
    /// shards have room.
    pub fn fold<I>(&self, window: u64, entries: I)
    where
        I: IntoIterator<Item = (PathId, u64, u64)>,
    {
        match self.claim_lane(window) {
            Some(lane) => {
                lane.reports.fetch_add(1, Ordering::Relaxed);
                for (path, sent, lost) in entries {
                    // detlint::allow(panic_path, reason = "shard_of is modulo cfg.shards, the lane's shard count")
                    let shard = &lane.shards[self.shard_of(path)].0;
                    if !Self::fold_slot(shard, path, sent, lost) {
                        // Shard table full: this entry rides the slow
                        // path.
                        self.fold_overflow(window, path, sent, lost, 0);
                    }
                }
            }
            None => {
                // Lane owned by an older unsealed window: the whole
                // report takes the slow path.
                let mut entries = entries.into_iter();
                match entries.next() {
                    Some((path, sent, lost)) => {
                        self.fold_overflow(window, path, sent, lost, 1);
                    }
                    None => self.fold_overflow(window, PathId(0), 0, 0, 1),
                }
                for (path, sent, lost) in entries {
                    self.fold_overflow(window, path, sent, lost, 0);
                }
            }
        }
    }

    /// Undoes a previous [`fold`](IngestPlane::fold) of the same report
    /// — the distributed controller retracts everything an agent sent in
    /// a window when that agent dies before its `WindowDone`, forfeiting
    /// the partial window exactly like the report-map path did.
    ///
    /// Retraction is *find-only* and *saturating*: it never claims a
    /// lane (a retract against a sealed window must not resurrect its
    /// ledger) and never subtracts below zero. An entry larger than what
    /// the window's ledgers hold — a duplicate crash notification, a
    /// retract-after-seal — removes what is there and counts the
    /// shortfall in [`SealedWindow::retract_mismatch`] (or
    /// [`orphaned_retracts`](IngestPlane::orphaned_retracts) when the
    /// window has no ledger state left at all). A retract that undoes
    /// exactly one prior un-sealed fold is always exact: counters land
    /// where the fold put them, cascading from the lane's slots into the
    /// overflow map when the fold's entries were split across both.
    pub fn retract<I>(&self, window: u64, entries: I)
    where
        I: IntoIterator<Item = (PathId, u64, u64)>,
    {
        // detlint::allow(panic_path, reason = "index is window modulo the lane count, which is nonzero")
        let lane = &self.lanes[(window % self.lanes.len() as u64) as usize];
        let lane = (lane.tag.load(Ordering::Acquire) == window).then_some(lane);

        // Un-count the report: prefer the lane's ledger, fall back to the
        // overflow window's. Seal sums both, so either decrement keeps
        // the window total exact.
        if lane.is_none_or(|l| !sub_one_saturating(&l.reports)) {
            let mut ov = self.overflow.lock();
            match ov.get_mut(&window) {
                Some(w) if w.reports > 0 => w.reports -= 1,
                Some(w) => w.mismatch += 1,
                None => match lane {
                    Some(l) => {
                        l.mismatch.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        self.orphans.fetch_add(1, Ordering::Relaxed);
                    }
                },
            }
        }

        for (path, sent, lost) in entries {
            let (mut sent, mut lost) = (sent, lost);
            if let Some(lane) = lane {
                // detlint::allow(panic_path, reason = "shard_of is modulo cfg.shards, the lane's shard count")
                let shard = &lane.shards[self.shard_of(path)].0;
                (sent, lost) = Self::retract_slot(shard, path, sent, lost);
            }
            if sent == 0 && lost == 0 {
                continue;
            }
            // Whatever the slots could not absorb cascades into the
            // overflow ledger; a residual shortfall is a mismatch.
            let mut ov = self.overflow.lock();
            match ov.get_mut(&window) {
                Some(w) => {
                    if let Some(e) = w.paths.get_mut(&path) {
                        let take = e.0.min(sent);
                        e.0 -= take;
                        sent -= take;
                        let take = e.1.min(lost);
                        e.1 -= take;
                        lost -= take;
                    }
                    if sent > 0 || lost > 0 {
                        w.mismatch += 1;
                    }
                }
                None => match lane {
                    Some(l) => {
                        l.mismatch.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        self.orphans.fetch_add(1, Ordering::Relaxed);
                    }
                },
            }
        }
    }

    /// Retractions against windows with no ledger state at all (their
    /// lane re-used or unclaimed and no overflow entry — in practice,
    /// retract-after-seal). Monotone over the plane's lifetime.
    pub fn orphaned_retracts(&self) -> u64 {
        self.orphans.load(Ordering::Relaxed)
    }

    /// Drains window `window` into a sorted snapshot and resets its lane
    /// for reuse. A window that never folded seals empty.
    pub fn seal(&self, window: u64) -> SealedWindow {
        let mut out = SealedWindow::default();
        // detlint::allow(panic_path, reason = "index is window modulo the lane count, which is nonzero")
        let lane = &self.lanes[(window % self.lanes.len() as u64) as usize];
        if lane.tag.load(Ordering::Acquire) == window {
            for shard in lane.shards.iter() {
                out.shard_contention += shard.0.contention.swap(0, Ordering::Relaxed);
                for slot in shard.0.slots.iter() {
                    let key = slot.key.swap(EMPTY, Ordering::AcqRel);
                    if key == EMPTY {
                        continue;
                    }
                    let sent = slot.sent.swap(0, Ordering::Relaxed);
                    let lost = slot.lost.swap(0, Ordering::Relaxed);
                    if sent == 0 && lost == 0 {
                        // Fully retracted: the aggregation never saw it.
                        continue;
                    }
                    let path = PathId((key - 1) as u32);
                    out.observations
                        .push(PathObservation::new(path, sent, lost));
                }
            }
            out.reports = lane.reports.swap(0, Ordering::Relaxed);
            out.retract_mismatch = lane.mismatch.swap(0, Ordering::Relaxed);
            lane.tag.store(UNCLAIMED, Ordering::Release);
        }
        if let Some(ov) = self.overflow.lock().remove(&window) {
            out.reports += ov.reports;
            out.retract_mismatch += ov.mismatch;
            for (path, (sent, lost)) in ov.paths {
                if sent == 0 && lost == 0 {
                    continue;
                }
                out.observations
                    .push(PathObservation::new(path, sent, lost));
            }
        }
        out.observations.sort_unstable_by_key(|o| o.path);
        // A path whose counters were split across the lane's slots and
        // the overflow map produced one row per ledger: coalesce them so
        // the snapshot matches a single-ledger aggregation exactly.
        out.observations.dedup_by(|dup, keep| {
            if dup.path == keep.path {
                keep.sent += dup.sent;
                keep.lost += dup.lost;
                true
            } else {
                false
            }
        });
        out
    }

    fn shard_of(&self, path: PathId) -> usize {
        (hash_path(path) % self.cfg.shards as u64) as usize
    }

    /// Claims the window's lane, or returns `None` when another window
    /// still owns it.
    fn claim_lane(&self, window: u64) -> Option<&Lane> {
        // detlint::allow(panic_path, reason = "index is window modulo the lane count, which is nonzero")
        let lane = &self.lanes[(window % self.lanes.len() as u64) as usize];
        loop {
            match lane.tag.load(Ordering::Acquire) {
                t if t == window => return Some(lane),
                UNCLAIMED => {
                    if lane
                        .tag
                        .compare_exchange(UNCLAIMED, window, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Some(lane);
                    }
                    // Raced another claimer; re-read who won.
                }
                _ => return None,
            }
        }
    }

    /// Adds into the shard's open-addressing table. Returns `false` when
    /// the key is absent and the table is full.
    fn fold_slot(shard: &Shard, path: PathId, sent: u64, lost: u64) -> bool {
        let key = path.0 as u64 + 1;
        let mut i = (hash_path(path) >> 7) as usize & shard.mask;
        for _ in 0..shard.slots.len() {
            // detlint::allow(panic_path, reason = "i is masked by shard.mask = slots.len() - 1")
            let slot = &shard.slots[i];
            let mut k = slot.key.load(Ordering::Acquire);
            if k == EMPTY {
                match slot
                    .key
                    .compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => k = key,
                    Err(won) => {
                        shard.contention.fetch_add(1, Ordering::Relaxed);
                        k = won;
                    }
                }
            }
            if k == key {
                slot.sent.fetch_add(sent, Ordering::Relaxed);
                slot.lost.fetch_add(lost, Ordering::Relaxed);
                return true;
            }
            i = (i + 1) & shard.mask;
        }
        false
    }

    /// Subtracts as much of `(sent, lost)` from the path's slot as the
    /// slot holds — find-only probing, saturating at zero — and returns
    /// the shortfall still to be retracted elsewhere. A key that was
    /// never claimed here (empty probe hit or full scan) means the fold
    /// overflowed it: the full amount cascades.
    fn retract_slot(shard: &Shard, path: PathId, sent: u64, lost: u64) -> (u64, u64) {
        let key = path.0 as u64 + 1;
        let mut i = (hash_path(path) >> 7) as usize & shard.mask;
        for _ in 0..shard.slots.len() {
            // detlint::allow(panic_path, reason = "i is masked by shard.mask = slots.len() - 1")
            let slot = &shard.slots[i];
            let k = slot.key.load(Ordering::Acquire);
            if k == key {
                return (
                    sub_saturating(&slot.sent, sent),
                    sub_saturating(&slot.lost, lost),
                );
            }
            if k == EMPTY {
                return (sent, lost);
            }
            i = (i + 1) & shard.mask;
        }
        (sent, lost)
    }

    fn fold_overflow(&self, window: u64, path: PathId, sent: u64, lost: u64, report_delta: u64) {
        let mut ov = self.overflow.lock();
        let w = ov.entry(window).or_default();
        w.reports += report_delta;
        if sent == 0 && lost == 0 {
            return;
        }
        let e = w.paths.entry(path).or_insert((0, 0));
        e.0 += sent;
        e.1 += lost;
    }
}

/// Decrements the counter unless it is already zero; returns whether a
/// decrement happened.
fn sub_one_saturating(counter: &AtomicU64) -> bool {
    sub_saturating(counter, 1) == 0
}

/// Subtracts `min(counter, amount)` from the counter and returns the
/// shortfall (`amount` minus what was actually subtracted). Never wraps.
fn sub_saturating(counter: &AtomicU64, amount: u64) -> u64 {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let take = cur.min(amount);
        match counter.compare_exchange_weak(cur, cur - take, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return amount - take,
            Err(now) => cur = now,
        }
    }
}

/// SplitMix64-style avalanche of the path id: adjacent ids spread across
/// shards and probe positions.
fn hash_path(path: PathId) -> u64 {
    let mut x = path.0 as u64 ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn obs(o: &[(u32, u64, u64)]) -> Vec<PathObservation> {
        o.iter()
            .map(|&(p, s, l)| PathObservation::new(PathId(p), s, l))
            .collect()
    }

    #[test]
    fn folds_aggregate_and_seal_sorts_by_path() {
        let plane = IngestPlane::new(IngestConfig::default());
        plane.fold(0, vec![(PathId(5), 10, 2), (PathId(1), 4, 0)]);
        plane.fold(0, vec![(PathId(5), 6, 1), (PathId(9), 3, 3)]);
        let s = plane.seal(0);
        assert_eq!(s.reports, 2);
        assert_eq!(s.observations, obs(&[(1, 4, 0), (5, 16, 3), (9, 3, 3)]));
        assert_eq!(s.distinct_lossy(), 2);
    }

    #[test]
    fn sealing_resets_the_lane_for_reuse() {
        let plane = IngestPlane::new(IngestConfig {
            lanes: 2,
            ..IngestConfig::default()
        });
        plane.fold(0, vec![(PathId(1), 1, 0)]);
        assert_eq!(plane.seal(0).reports, 1);
        // Window 2 maps to the same lane as window 0.
        plane.fold(2, vec![(PathId(7), 5, 5)]);
        let s = plane.seal(2);
        assert_eq!(s.reports, 1);
        assert_eq!(s.observations, obs(&[(7, 5, 5)]));
        // Sealing an unfolded window is empty, not stale.
        assert_eq!(plane.seal(0), SealedWindow::default());
    }

    #[test]
    fn retract_undoes_a_fold_exactly() {
        let plane = IngestPlane::new(IngestConfig::default());
        let a = vec![(PathId(1), 10, 4), (PathId(2), 8, 0)];
        let b = vec![(PathId(1), 3, 1)];
        plane.fold(3, a.clone());
        plane.fold(3, b);
        plane.retract(3, a);
        let s = plane.seal(3);
        assert_eq!(s.reports, 1);
        assert_eq!(s.observations, obs(&[(1, 3, 1)]));
    }

    #[test]
    fn fully_retracted_window_seals_empty() {
        let plane = IngestPlane::new(IngestConfig::default());
        let r = vec![(PathId(4), 7, 7)];
        plane.fold(1, r.clone());
        plane.retract(1, r);
        let s = plane.seal(1);
        assert_eq!(s.reports, 0);
        assert!(s.observations.is_empty());
    }

    #[test]
    fn lane_collision_overflows_and_still_seals_exact() {
        // One lane: window 1 arrives while window 0 is unsealed.
        let plane = IngestPlane::new(IngestConfig {
            lanes: 1,
            ..IngestConfig::default()
        });
        plane.fold(0, vec![(PathId(1), 1, 1)]);
        plane.fold(1, vec![(PathId(2), 2, 0)]);
        plane.fold(1, vec![(PathId(2), 2, 2)]);
        let s0 = plane.seal(0);
        assert_eq!(s0.observations, obs(&[(1, 1, 1)]));
        let s1 = plane.seal(1);
        assert_eq!(s1.reports, 2);
        assert_eq!(s1.observations, obs(&[(2, 4, 2)]));
    }

    #[test]
    fn full_shard_overflows_without_losing_counts() {
        // 1 shard x 2 slots: the third distinct path must overflow.
        let plane = IngestPlane::new(IngestConfig {
            shards: 1,
            slots_per_shard: 2,
            ..IngestConfig::default()
        });
        let r: Vec<_> = (0..5u32).map(|p| (PathId(p), 10, u64::from(p))).collect();
        plane.fold(0, r.clone());
        plane.fold(0, r.clone());
        let s = plane.seal(0);
        assert_eq!(s.reports, 2);
        assert_eq!(
            s.observations,
            obs(&[(0, 20, 0), (1, 20, 2), (2, 20, 4), (3, 20, 6), (4, 20, 8)])
        );
        // Retract one copy: the overflow path subtracts exactly too.
        plane.fold(1, r.clone());
        plane.fold(1, r.clone());
        plane.retract(1, r);
        let s = plane.seal(1);
        assert_eq!(s.reports, 1);
        assert_eq!(
            s.observations,
            obs(&[(0, 10, 0), (1, 10, 1), (2, 10, 2), (3, 10, 3), (4, 10, 4)])
        );
    }

    #[test]
    fn double_retract_saturates_and_counts_the_mismatch() {
        let plane = IngestPlane::new(IngestConfig::default());
        let r = vec![(PathId(3), 9, 2)];
        plane.fold(0, r.clone());
        plane.retract(0, r.clone());
        // Duplicate crash notification: nothing left to subtract. The
        // old wrapping_sub turned these counters into ~u64::MAX.
        plane.retract(0, r);
        let s = plane.seal(0);
        assert_eq!(s.reports, 0);
        assert!(s.observations.is_empty());
        assert!(s.retract_mismatch > 0);
        assert_eq!(plane.orphaned_retracts(), 0);
    }

    #[test]
    fn retract_after_seal_is_orphaned_not_wrapped() {
        let plane = IngestPlane::new(IngestConfig::default());
        let r = vec![(PathId(6), 4, 1)];
        plane.fold(0, r.clone());
        assert_eq!(plane.seal(0).reports, 1);
        plane.retract(0, r);
        // The retract found no ledger: it must not claim the lane, must
        // not seed negative counters, and is visible as an orphan.
        assert_eq!(plane.orphaned_retracts(), 2); // 1 report + 1 entry
        let s = plane.seal(0);
        assert_eq!(s, SealedWindow::default());
        // Later traffic through the same lane is unaffected.
        plane.fold(8, vec![(PathId(6), 5, 0)]);
        let s = plane.seal(8);
        assert_eq!(s.observations, obs(&[(6, 5, 0)]));
        assert_eq!(s.retract_mismatch, 0);
    }

    #[test]
    fn retract_cascades_from_slots_into_overflow_exactly() {
        // 1 shard x 2 slots: paths 2.. of each report overflow, so a
        // retract must subtract from both ledgers to be exact.
        let plane = IngestPlane::new(IngestConfig {
            shards: 1,
            slots_per_shard: 2,
            ..IngestConfig::default()
        });
        let r: Vec<_> = (0..4u32).map(|p| (PathId(p), 6, 3)).collect();
        plane.fold(0, r.clone());
        plane.fold(0, r.clone());
        plane.retract(0, r);
        let s = plane.seal(0);
        assert_eq!(s.reports, 1);
        assert_eq!(s.retract_mismatch, 0);
        assert_eq!(
            s.observations,
            obs(&[(0, 6, 3), (1, 6, 3), (2, 6, 3), (3, 6, 3)])
        );
    }

    #[test]
    fn seal_coalesces_a_path_split_across_both_ledgers() {
        // lanes = 1: window 1's first report arrives while window 0
        // still owns the lane (overflow), its second after window 0
        // seals (lane slots). Same path, two ledgers, one row.
        let plane = IngestPlane::new(IngestConfig {
            lanes: 1,
            ..IngestConfig::default()
        });
        plane.fold(0, vec![(PathId(1), 1, 0)]);
        plane.fold(1, vec![(PathId(9), 10, 4)]);
        plane.seal(0);
        plane.fold(1, vec![(PathId(9), 5, 1)]);
        let s = plane.seal(1);
        assert_eq!(s.reports, 2);
        assert_eq!(s.observations, obs(&[(9, 15, 5)]));
    }

    #[test]
    fn concurrent_folds_agree_with_sequential_aggregation() {
        let plane = Arc::new(IngestPlane::for_paths(256));
        let threads = 8;
        let reports_each = 50;
        std::thread::scope(|s| {
            for t in 0..threads {
                let plane = Arc::clone(&plane);
                s.spawn(move || {
                    for r in 0..reports_each {
                        let entries: Vec<_> = (0..32u32)
                            .map(|p| (PathId(p * 7 + t), 3, u64::from((r + p) % 2)))
                            .collect();
                        plane.fold(5, entries);
                    }
                });
            }
        });
        let s = plane.seal(5);
        assert_eq!(s.reports, (threads * reports_each) as u64);
        let total_sent: u64 = s.observations.iter().map(|o| o.sent).sum();
        assert_eq!(total_sent, (threads * reports_each) as u64 * 32 * 3);
        // Every observation aggregated all its contributions.
        for o in &s.observations {
            assert_eq!(o.sent % 3, 0);
        }
    }

    #[test]
    fn sized_for_paths_keeps_fast_path_headroom() {
        let plane = IngestPlane::for_paths(10_000);
        assert!(plane.config().slots_per_shard * plane.config().shards >= 20_000);
    }
}
