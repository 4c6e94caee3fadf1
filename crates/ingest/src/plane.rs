//! The benchmark's twin plane: one writer, one table per open window.
//!
//! The system no longer runs this — the diagnoser aggregates a window in
//! one walk of its filed report log — but `benchmark/src/traced.rs` folds
//! a twin of every window through it to time seal, pre-filter and
//! localize apart, so it stays until ROADMAP item 1(a) retires the twin.
//!
//! Per-path `(sent, lost)` counters accumulate as reports are folded.
//! Each *open* window owns one open-addressing table of plain `u64`
//! slots, keyed by `path.0 + 1` and probed linearly from a SplitMix hash
//! of the path id, that doubles by rehash when an insert would push its
//! load past ½: its size follows the traffic, it is not a setting.
//! [`seal`](IngestPlane::seal) drains a window into observations sorted
//! by path id — byte-for-byte `ReportStore::window_observations` of the
//! same reports, `(0, 0)` paths left out — and hands the emptied table to
//! the next window to open, so a steady run folds without allocating.
//!
//! Every mutation takes `&mut self`, and the borrow checker holds the
//! plane to one writer. A fold through a shared reference does not
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
    /// `benchmark/`'s traced run; goes with ROADMAP item 1(d).
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
struct Table {
    /// Linear probing; a power of two long, at most half full: probes end.
    slots: Vec<Slot>,
    /// Slots holding a key.
    used: usize,
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
    /// Aggregated per-path counters, sorted by path id — what the traced
    /// benchmark pre-filters and localizes (until ROADMAP item 1(a)).
    pub observations: Vec<PathObservation>,
}

/// The single-owner ingest plane. See the module docs for the design.
pub struct IngestPlane {
    cfg: IngestConfig,
    open: Vec<(u64, Table)>,
    /// Slots for the next window to open: the hinted room, then the last seal's.
    spare: Vec<Slot>,
}

impl IngestPlane {
    /// A plane whose tables start with room for `paths` distinct paths a
    /// window. Only a hint: a window that sees more grows its table.
    /// Called by the benchmark's twin until ROADMAP item 1(a).
    pub fn for_paths(paths: usize) -> Self {
        Self {
            cfg: IngestConfig::default(),
            open: Vec::new(),
            spare: vec![Slot::default(); (2 * paths).next_power_of_two().max(2)],
        }
    }

    /// The plane's configuration. Read by the benchmark's twin until
    /// ROADMAP item 1(a).
    pub fn config(&self) -> &IngestConfig {
        &self.cfg
    }

    /// Folds one report's path counters into window `window`, opening the
    /// window if this is its first report. Called by the benchmark's twin
    /// until ROADMAP item 1(a).
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
            let table = Table { slots, used: 0 };
            self.open.push((window, table));
        }
        let Some((_, table)) = self.open.iter_mut().find(|(w, _)| *w == window) else {
            return;
        };
        for (path, sent, lost) in entries {
            table.add(key_of(path), sent, lost);
        }
    }

    /// Drains window `window` into a sorted snapshot, dropping paths
    /// whose counters sum to nothing, and keeps its emptied table for the
    /// next window. A window that is not open seals empty. Called by the
    /// benchmark's twin until ROADMAP item 1(a).
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
        SealedWindow { observations }
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
        plane.fold(
            0,
            vec![(PathId(5), 6, 1), (PathId(9), 3, 3), (PathId(2), 0, 0)],
        );
        let s = plane.seal(0);
        assert_eq!(s.observations, obs(&[(1, 4, 0), (5, 16, 3), (9, 3, 3)]));
    }

    #[test]
    fn sealing_resets_the_lane_for_reuse() {
        let mut plane = IngestPlane::for_paths(4);
        plane.fold(0, vec![(PathId(1), 1, 0)]);
        assert_eq!(plane.seal(0).observations, obs(&[(1, 1, 0)]));
        // Window 2 accumulates in the table window 0 gave back.
        plane.fold(2, vec![(PathId(7), 5, 5)]);
        assert!(plane.spare.is_empty());
        let s = plane.seal(2);
        assert_eq!(s.observations, obs(&[(7, 5, 5)]));
        // Sealing an unfolded window is empty, not stale.
        assert_eq!(plane.seal(0), SealedWindow::default());
    }

    #[test]
    fn an_empty_report_opens_its_window_and_counts() {
        let mut plane = IngestPlane::for_paths(4);
        plane.fold(3, vec![]);
        plane.fold(3, vec![]);
        assert_eq!(plane.open.len(), 1);
        assert!(plane.seal(3).observations.is_empty());
        assert!(plane.open.is_empty());
    }

    #[test]
    fn windows_open_together_seal_apart() {
        let mut plane = IngestPlane::for_paths(4);
        plane.fold(0, vec![(PathId(1), 1, 1)]);
        plane.fold(1, vec![(PathId(2), 2, 0)]);
        plane.fold(7, vec![(PathId(1), 9, 0)]);
        plane.fold(1, vec![(PathId(2), 2, 2)]);
        assert_eq!(plane.seal(1).observations, obs(&[(2, 4, 2)]));
        assert_eq!(plane.seal(0).observations, obs(&[(1, 1, 1)]));
        assert_eq!(plane.seal(7).observations, obs(&[(1, 9, 0)]));
        assert!(plane.open.is_empty());
    }

    #[test]
    fn a_table_grown_mid_window_loses_nothing() {
        // Two slots to start with: five paths double the table three
        // times while the window is open, the last time mid-report.
        let mut plane = IngestPlane::for_paths(0);
        let r: Vec<_> = (0..5u32).map(|p| (PathId(p), 10, u64::from(p))).collect();
        plane.fold(0, r.clone());
        // The second fold finds every path where the rehash put it.
        plane.fold(0, r);
        assert_eq!(
            plane.seal(0).observations,
            obs(&[(0, 20, 0), (1, 20, 2), (2, 20, 4), (3, 20, 6), (4, 20, 8)])
        );
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
            assert!(plane.seal(w).observations.len() >= 40, "window {w}");
            assert!(plane.open.is_empty());
            // 42 distinct paths at most: the table settles at 128 slots
            // and is the only one there is.
            assert_eq!(plane.spare.len(), 128);
        }
    }
}
