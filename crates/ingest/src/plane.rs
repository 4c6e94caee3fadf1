//! The ingest plane: one writer, one table per open window.
//!
//! Per-path `(sent, lost)` counters accumulate as reports arrive. Each
//! *open* window owns one open-addressing table of plain `u64` slots,
//! keyed by `path.0 + 1` and probed linearly from a SplitMix hash of the
//! path id, that doubles by rehash when an insert would push its load
//! past ½: its size follows the traffic, it is not a setting.
//! [`seal`](IngestPlane::seal) drains a window into observations sorted
//! by path id — byte-for-byte `ReportStore::window_observations` of the
//! same reports — and hands the emptied table to the next window to
//! open, so a steady run folds and retracts without allocating. Any
//! number of windows may be open at once, at a cost proportional to how
//! many are; the drivers hold one.
//!
//! Every mutation takes `&mut self`: each driver has one collector per
//! diagnoser, which folds a window and seals it next, and the borrow
//! checker holds it to that. A fold through a shared reference does not
//! compile:
//!
//! ```compile_fail,E0596
//! use detector_core::types::PathId;
//! let plane = detector_ingest::IngestPlane::for_paths(4);
//! let shared = &plane;
//! shared.fold(0, [(PathId(7), 10, 2)]);
//! ```

use detector_core::types::{PathId, PathObservation};

/// Slot key meaning "empty"; occupied slots store `path.0 + 1`.
const EMPTY: u64 = 0;

/// The plane's configuration.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// The top-K budget of the pre-filter's `topk_hits` statistic: a
    /// window with more lossy paths than this reports zero hits. Read by
    /// `Diagnoser::diagnose` and by `benchmark/`'s traced run.
    pub topk: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self { topk: 64 }
    }
}

/// One path's counters in one window; the default is the empty slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    key: u64,
    sent: u64,
    lost: u64,
}

/// One window's accumulator.
#[derive(Default)]
struct Table {
    /// Linear probing; a power of two long, at most half full: probes end.
    slots: Vec<Slot>,
    /// Slots holding a key.
    used: usize,
    /// Reports folded minus reports retracted.
    reports: u64,
    mismatch: u64,
}

impl Table {
    fn add(&mut self, key: u64, sent: u64, lost: u64) {
        let at_half = (self.used + 1) * 2 > self.slots.len();
        let Some(slot) = probe(&mut self.slots, key) else {
            return;
        };
        if slot.key == EMPTY {
            if at_half {
                self.grow();
                self.add(key, sent, lost);
                return;
            }
            slot.key = key;
            self.used += 1;
        }
        // Wrapping: a hostile wire counter must not panic a debug build.
        slot.sent = slot.sent.wrapping_add(sent);
        slot.lost = slot.lost.wrapping_add(lost);
    }

    /// Subtracts what the path's slot holds of `(sent, lost)`, never
    /// below zero and never claiming a slot; returns whether all of it
    /// was there.
    fn sub(&mut self, key: u64, sent: u64, lost: u64) -> bool {
        match probe(&mut self.slots, key) {
            Some(slot) if slot.key == key => {
                let (s, l) = (sent.min(slot.sent), lost.min(slot.lost));
                slot.sent -= s;
                slot.lost -= l;
                (s, l) == (sent, lost)
            }
            _ => (sent, lost) == (0, 0),
        }
    }

    fn grow(&mut self) {
        let doubled = vec![Slot::default(); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for slot in old.iter().filter(|slot| slot.key != EMPTY) {
            if let Some(to) = probe(&mut self.slots, slot.key) {
                *to = *slot;
            }
        }
    }
}

/// The first slot in `key`'s probe order that holds it or is empty — where
/// the path is, or where it would go. `slots.len()` is a power of two.
fn probe(slots: &mut [Slot], key: u64) -> Option<&mut Slot> {
    let start = hash_key(key) as usize & (slots.len() - 1);
    let (wrapped, first) = slots.split_at_mut(start);
    (first.iter_mut().chain(wrapped)).find(|slot| slot.key == key || slot.key == EMPTY)
}

/// A frozen, drained window snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SealedWindow {
    /// Aggregated per-path counters, sorted by path id — the exact
    /// shape `ReportStore::window_observations` hands to diagnosis.
    pub observations: Vec<PathObservation>,
    /// Reports folded into the window (retractions subtracted).
    pub reports: u64,
    /// Retracted reports and entries exceeding what was folded — a
    /// duplicate crash notification — one count each. Always zero when
    /// every retract undoes exactly one prior fold.
    pub retract_mismatch: u64,
}

/// The single-owner ingest plane. See the module docs for the design.
pub struct IngestPlane {
    cfg: IngestConfig,
    open: Vec<(u64, Table)>,
    /// Slots for the next window to open: the hinted room, then the last seal's.
    spare: Vec<Slot>,
    /// Retractions against windows that were not open.
    orphans: u64,
}

impl IngestPlane {
    /// A plane whose tables start with room for `paths` distinct paths a
    /// window. Only a hint: a window that sees more grows its table.
    pub fn for_paths(paths: usize) -> Self {
        Self {
            cfg: IngestConfig::default(),
            open: Vec::new(),
            spare: vec![Slot::default(); (2 * paths).next_power_of_two().max(2)],
            orphans: 0,
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.cfg
    }

    /// Folds one report's path counters into window `window` and counts
    /// one report, opening the window if this is its first — also for a
    /// report without entries.
    pub fn fold<I>(&mut self, window: u64, entries: I)
    where
        I: IntoIterator<Item = (PathId, u64, u64)>,
    {
        if !self.open.iter().any(|(w, _)| *w == window) {
            let mut slots = std::mem::take(&mut self.spare);
            if slots.is_empty() {
                // A second window open at once starts small and grows.
                slots = vec![Slot::default(); 2];
            }
            let table = Table {
                slots,
                ..Table::default()
            };
            self.open.push((window, table));
        }
        let Some((_, table)) = self.open.iter_mut().find(|(w, _)| *w == window) else {
            return;
        };
        table.reports += 1;
        for (path, sent, lost) in entries {
            table.add(key_of(path), sent, lost);
        }
    }

    /// Undoes a [`fold`](IngestPlane::fold) of the same report — the
    /// distributed controller takes back what an agent sent in a window
    /// when the agent dies before its `WindowDone` — exactly.
    ///
    /// *Find-only* and *saturating*: it never opens a window (a sealed
    /// one must not come back) and never subtracts below zero. A report
    /// or an entry the window does not hold in full removes what is
    /// there and counts one [`SealedWindow::retract_mismatch`]; against a
    /// window that is not open, the report and each non-zero entry count
    /// as [orphans](IngestPlane::take_orphaned_retracts) instead.
    pub fn retract<I>(&mut self, window: u64, entries: I)
    where
        I: IntoIterator<Item = (PathId, u64, u64)>,
    {
        let Some((_, table)) = self.open.iter_mut().find(|(w, _)| *w == window) else {
            let entries = entries.into_iter().filter(|&(_, s, l)| (s, l) != (0, 0));
            self.orphans += 1 + entries.count() as u64;
            return;
        };
        match table.reports.checked_sub(1) {
            Some(reports) => table.reports = reports,
            None => table.mismatch += 1,
        }
        for (path, sent, lost) in entries {
            if !table.sub(key_of(path), sent, lost) {
                table.mismatch += 1;
            }
        }
    }

    /// Retractions since the last call that found their window not open
    /// — sealed already, so its `retract_mismatch` cannot carry them; the
    /// diagnoser reports them with the next window it closes.
    pub fn take_orphaned_retracts(&mut self) -> u64 {
        std::mem::take(&mut self.orphans)
    }

    /// Drains window `window` into a sorted snapshot, dropping paths
    /// whose counters were retracted to nothing, and keeps its emptied
    /// table for the next window. A window that is not open seals empty.
    pub fn seal(&mut self, window: u64) -> SealedWindow {
        let Some(at) = self.open.iter().position(|(w, _)| *w == window) else {
            return SealedWindow::default();
        };
        let (_, mut table) = self.open.swap_remove(at);
        let mut observations = Vec::with_capacity(table.used);
        for slot in table.slots.iter_mut().filter(|slot| slot.key != EMPTY) {
            let Slot { key, sent, lost } = std::mem::take(slot);
            if (sent, lost) != (0, 0) {
                observations.push(PathObservation::new(PathId((key - 1) as u32), sent, lost));
            }
        }
        observations.sort_unstable_by_key(|o| o.path);
        self.spare = table.slots;
        SealedWindow {
            observations,
            reports: table.reports,
            retract_mismatch: table.mismatch,
        }
    }
}

fn key_of(path: PathId) -> u64 {
    path.0 as u64 + 1
}

/// SplitMix64's finalizer: adjacent path ids land far apart.
fn hash_key(key: u64) -> u64 {
    let mut x = key ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(o: &[(u32, u64, u64)]) -> Vec<PathObservation> {
        o.iter()
            .map(|&(p, s, l)| PathObservation::new(PathId(p), s, l))
            .collect()
    }

    #[test]
    fn folds_aggregate_and_seal_sorts_by_path() {
        let mut plane = IngestPlane::for_paths(4);
        plane.fold(0, vec![(PathId(5), 10, 2), (PathId(1), 4, 0)]);
        plane.fold(0, vec![(PathId(5), 6, 1), (PathId(9), 3, 3)]);
        let s = plane.seal(0);
        assert_eq!(s.reports, 2);
        assert_eq!(s.observations, obs(&[(1, 4, 0), (5, 16, 3), (9, 3, 3)]));
    }

    #[test]
    fn sealing_resets_the_lane_for_reuse() {
        let mut plane = IngestPlane::for_paths(4);
        plane.fold(0, vec![(PathId(1), 1, 0)]);
        assert_eq!(plane.seal(0).reports, 1);
        // Window 2 accumulates in the table window 0 gave back.
        plane.fold(2, vec![(PathId(7), 5, 5)]);
        assert!(plane.spare.is_empty());
        let s = plane.seal(2);
        assert_eq!(s.reports, 1);
        assert_eq!(s.observations, obs(&[(7, 5, 5)]));
        // Sealing an unfolded window is empty, not stale.
        assert_eq!(plane.seal(0), SealedWindow::default());
    }

    #[test]
    fn an_empty_report_opens_its_window_and_counts() {
        let mut plane = IngestPlane::for_paths(4);
        plane.fold(3, vec![]);
        plane.retract(3, vec![]);
        assert_eq!(plane.take_orphaned_retracts(), 0);
        plane.fold(3, vec![]);
        let s = plane.seal(3);
        assert_eq!((s.reports, s.retract_mismatch), (1, 0));
        assert!(s.observations.is_empty());
    }

    #[test]
    fn windows_open_together_seal_apart() {
        let mut plane = IngestPlane::for_paths(4);
        plane.fold(0, vec![(PathId(1), 1, 1)]);
        plane.fold(1, vec![(PathId(2), 2, 0)]);
        plane.fold(7, vec![(PathId(1), 9, 0)]);
        plane.fold(1, vec![(PathId(2), 2, 2)]);
        let s1 = plane.seal(1);
        assert_eq!(s1.reports, 2);
        assert_eq!(s1.observations, obs(&[(2, 4, 2)]));
        assert_eq!(plane.seal(0).observations, obs(&[(1, 1, 1)]));
        assert_eq!(plane.seal(7).observations, obs(&[(1, 9, 0)]));
        assert!(plane.open.is_empty());
    }

    #[test]
    fn retract_undoes_a_fold_exactly() {
        let mut plane = IngestPlane::for_paths(4);
        let a = vec![(PathId(1), 10, 4), (PathId(2), 8, 0)];
        let b = vec![(PathId(1), 3, 1)];
        plane.fold(3, a.clone());
        plane.fold(3, b);
        plane.retract(3, a);
        let s = plane.seal(3);
        assert_eq!(s.reports, 1);
        assert_eq!(s.retract_mismatch, 0);
        assert_eq!(s.observations, obs(&[(1, 3, 1)]));
    }

    #[test]
    fn fully_retracted_window_seals_empty() {
        let mut plane = IngestPlane::for_paths(4);
        let r = vec![(PathId(4), 7, 7)];
        plane.fold(1, r.clone());
        plane.retract(1, r);
        let s = plane.seal(1);
        assert_eq!(s.reports, 0);
        assert!(s.observations.is_empty());
    }

    #[test]
    fn a_table_grown_mid_window_loses_nothing() {
        // Two slots to start with: five paths double the table three
        // times while the window is open, the last time mid-report.
        let mut plane = IngestPlane::for_paths(0);
        let r: Vec<_> = (0..5u32).map(|p| (PathId(p), 10, u64::from(p))).collect();
        plane.fold(0, r.clone());
        plane.fold(0, r.clone());
        // The retract finds every path where the rehash put it.
        plane.retract(0, r.clone());
        plane.fold(0, r);
        let s = plane.seal(0);
        assert_eq!((s.reports, s.retract_mismatch), (2, 0));
        assert_eq!(
            s.observations,
            obs(&[(0, 20, 0), (1, 20, 2), (2, 20, 4), (3, 20, 6), (4, 20, 8)])
        );
    }

    #[test]
    fn double_retract_saturates_and_counts_the_mismatch() {
        let mut plane = IngestPlane::for_paths(4);
        let r = vec![(PathId(3), 9, 2)];
        plane.fold(0, r.clone());
        plane.retract(0, r.clone());
        // Duplicate crash notification: nothing left to subtract.
        plane.retract(0, r);
        let s = plane.seal(0);
        assert_eq!(s.reports, 0);
        assert!(s.observations.is_empty());
        assert_eq!(s.retract_mismatch, 2); // the report and its one entry
        assert_eq!(plane.take_orphaned_retracts(), 0);
    }

    #[test]
    fn retract_after_seal_is_orphaned_not_wrapped() {
        let mut plane = IngestPlane::for_paths(4);
        let r = vec![(PathId(6), 4, 1), (PathId(8), 0, 0)];
        plane.fold(0, r.clone());
        assert_eq!(plane.seal(0).reports, 1);
        plane.retract(0, r);
        // The retract found no window: it must not open one, must not
        // seed negative counters, and is visible as an orphan.
        assert_eq!(plane.take_orphaned_retracts(), 2); // 1 report + 1 non-zero entry
        assert_eq!(plane.take_orphaned_retracts(), 0);
        assert!(plane.open.is_empty());
        assert_eq!(plane.seal(0), SealedWindow::default());
        // Later traffic through the recycled table is unaffected.
        plane.fold(8, vec![(PathId(6), 5, 0)]);
        let s = plane.seal(8);
        assert_eq!(s.observations, obs(&[(6, 5, 0)]));
        assert_eq!(s.retract_mismatch, 0);
    }

    #[test]
    fn sized_for_paths_keeps_fast_path_headroom() {
        // A plan-sized hint means a plan-sized window never rehashes.
        let mut plane = IngestPlane::for_paths(10_000);
        plane.fold(0, (0..10_000u32).map(|p| (PathId(p), 1, 0)));
        assert_eq!(plane.open[0].1.slots.len(), 32_768);
        assert_eq!(plane.seal(0).observations.len(), 10_000);
    }

    #[test]
    fn ten_thousand_windows_leave_one_spare_table_and_nothing_open() {
        let mut plane = IngestPlane::for_paths(0);
        let report = |w: u64| (0..40u32).map(move |p| (PathId(p + (w % 3) as u32), 4, w % 2));
        for w in 0..10_000u64 {
            plane.fold(w, report(w));
            plane.fold(w, report(w + 1));
            plane.retract(w, report(w).take(20));
            assert_eq!(plane.seal(w).reports, 1, "window {w}");
            assert!(plane.open.is_empty());
            // 42 distinct paths at most: the table settles at 128 slots
            // and is the only one there is.
            assert_eq!(plane.spare.len(), 128);
        }
    }
}
