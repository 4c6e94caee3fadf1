//! Pinger reports and the diagnoser-side report store (§6.1).
//!
//! Every 30 seconds each pinger aggregates per-path counters into a report
//! and POSTs it to the diagnoser, which stores them for real-time analysis
//! and later queries. A report is three sorted runs — paths, in-rack
//! responders, per-flow records — built once by the pinger, shipped
//! delta-coded in that order, and iterated (never re-keyed) by the
//! ingest plane, the watchdog and the store. The store is
//! concurrency-safe (parking_lot) because production pingers report
//! independently.

use std::collections::HashMap;

use detector_core::types::{NodeId, PathId, PathObservation};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Per-path counters over one window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PathCounters {
    /// Probes sent.
    pub sent: u64,
    /// Probes lost (timeout or drop).
    pub lost: u64,
    /// Sum of measured RTTs (µs) over delivered probes.
    pub rtt_sum_us: f64,
    /// Max measured RTT (µs).
    pub rtt_max_us: f64,
}

impl PathCounters {
    /// Mean RTT of delivered probes, µs.
    pub fn mean_rtt_us(&self) -> f64 {
        let delivered = self.sent.saturating_sub(self.lost);
        if delivered == 0 {
            0.0
        } else {
            self.rtt_sum_us / delivered as f64
        }
    }

    /// Merges another window's counters.
    pub fn merge(&mut self, other: &PathCounters) {
        self.sent += other.sent;
        self.lost += other.lost;
        self.rtt_sum_us += other.rtt_sum_us;
        self.rtt_max_us = self.rtt_max_us.max(other.rtt_max_us);
    }
}

/// One flow's counters on one path over one window: the raw material
/// for loss-type classification (§7). A flow is the probe header the
/// fabric hashes on — source port and DSCP class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The probed path.
    pub path: PathId,
    /// The probes' UDP source port.
    pub sport: u16,
    /// The probes' DSCP class.
    pub dscp: u8,
    /// Probes sent on this flow (confirmation re-probes included).
    pub sent: u64,
    /// Probes lost on this flow.
    pub lost: u64,
}

impl FlowRecord {
    /// The record's position in [`PingerReport::flows`].
    pub fn key(&self) -> (PathId, u16, u8) {
        (self.path, self.sport, self.dscp)
    }
}

/// One pinger's report for one window.
///
/// The three runs are strictly ascending by key, and every flow record's
/// path has an entry in `paths` — [`Pinger::run_window`] builds reports
/// that way, the frame decoder rejects anything else, and a record
/// breaking it is not representable on the wire.
///
/// [`Pinger::run_window`]: crate::Pinger::run_window
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PingerReport {
    /// Reporting pinger.
    pub pinger: NodeId,
    /// Window index (window start / window length).
    pub window: u64,
    /// Counters per probe-matrix path, ascending by path id.
    pub paths: Vec<(PathId, PathCounters)>,
    /// Counters for in-rack probes (server–ToR links), ascending by
    /// responder.
    pub in_rack: Vec<(NodeId, PathCounters)>,
    /// Per-flow counters per path, ascending by [`FlowRecord::key`].
    pub flows: Vec<FlowRecord>,
}

impl PingerReport {
    /// The counters of `path`, if the report covers it.
    pub fn path(&self, path: PathId) -> Option<&PathCounters> {
        let at = self.paths.binary_search_by_key(&path, |(p, _)| *p).ok()?;
        self.paths.get(at).map(|(_, c)| c)
    }

    fn counters(&self) -> impl Iterator<Item = &PathCounters> {
        let paths = self.paths.iter().map(|(_, c)| c);
        paths.chain(self.in_rack.iter().map(|(_, c)| c))
    }

    /// Total probes sent in this report (paths + in-rack).
    pub fn total_sent(&self) -> u64 {
        self.counters().map(|c| c.sent).sum()
    }

    /// True when every probe of the report was lost (a strong hint the
    /// *pinger* is sick, not the network — §5.1 outliers).
    pub fn all_lost(&self) -> bool {
        let sent = self.total_sent();
        sent > 0 && self.counters().map(|c| c.lost).sum::<u64>() == sent
    }
}

/// Diagnoser-side store of reports, per window.
pub struct ReportStore {
    inner: RwLock<HashMap<u64, Vec<PingerReport>>>,
}

impl Default for ReportStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportStore {
    /// Debug-build acquisition rank of the store's lock (see the
    /// parking_lot shim): any lock the diagnoser may take *while*
    /// aggregating reports must rank above this.
    const LOCK_RANK: u32 = 100;

    /// An empty store.
    pub fn new() -> Self {
        Self {
            inner: RwLock::with_rank(HashMap::new(), Self::LOCK_RANK, "ReportStore.inner"),
        }
    }

    /// Ingests one report.
    pub fn ingest(&self, report: PingerReport) {
        self.inner
            .write()
            .entry(report.window)
            .or_default()
            .push(report);
    }

    /// Aggregates one window's reports into per-path observations,
    /// skipping reports from `excluded` pingers (watchdog outliers).
    pub fn window_observations(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
    ) -> Vec<PathObservation> {
        let inner = self.inner.read();
        let mut agg: HashMap<PathId, PathCounters> = HashMap::new();
        if let Some(reports) = inner.get(&window) {
            for r in reports {
                if excluded(r.pinger) {
                    continue;
                }
                for (pid, c) in &r.paths {
                    agg.entry(*pid).or_default().merge(c);
                }
            }
        }
        let mut out: Vec<PathObservation> = agg
            .into_iter()
            .map(|(pid, c)| PathObservation::new(pid, c.sent, c.lost))
            .collect();
        out.sort_unstable_by_key(|o| o.path);
        out
    }

    /// Per-path `(sent, lost)` totals of the window's *excluded* reports
    /// plus how many reports were excluded — what the diagnoser
    /// subtracts from an ingest-plane snapshot (which aggregated every
    /// folded report) to apply watchdog exclusions at diagnosis time.
    pub fn excluded_path_totals(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
    ) -> (HashMap<PathId, (u64, u64)>, u64) {
        let inner = self.inner.read();
        let mut agg: HashMap<PathId, (u64, u64)> = HashMap::new();
        let mut reports = 0u64;
        if let Some(rs) = inner.get(&window) {
            for r in rs {
                if !excluded(r.pinger) {
                    continue;
                }
                reports += 1;
                for (pid, c) in &r.paths {
                    let e = agg.entry(*pid).or_insert((0, 0));
                    e.0 += c.sent;
                    e.1 += c.lost;
                }
            }
        }
        (agg, reports)
    }

    /// Aggregates the per-flow counters of a window over paths selected
    /// by `keep_path`, excluding flagged pingers (classification input).
    pub fn flow_samples(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
        keep_path: &dyn Fn(PathId) -> bool,
    ) -> HashMap<(NodeId, PathId, u64), (u64, u64)> {
        let inner = self.inner.read();
        // Keyed by pinger too: two pingers probing the same path use
        // different source addresses, so a header-matching blackhole can
        // treat their otherwise-identical flows differently — merging them
        // would fake intermediate loss rates and hide bimodality.
        let mut agg: HashMap<(NodeId, PathId, u64), (u64, u64)> = HashMap::new();
        if let Some(reports) = inner.get(&window) {
            for r in reports {
                if excluded(r.pinger) {
                    continue;
                }
                for f in r.flows.iter().filter(|f| keep_path(f.path)) {
                    let flow = u64::from(f.sport) | (u64::from(f.dscp) << 16);
                    let e = agg.entry((r.pinger, f.path, flow)).or_insert((0, 0));
                    e.0 += f.sent;
                    e.1 += f.lost;
                }
            }
        }
        agg
    }

    /// Drops windows older than `keep_from` (the paper keeps a database
    /// for later queries; the simulator prunes to bound memory).
    pub fn prune_before(&self, keep_from: u64) {
        self.inner.write().retain(|w, _| *w >= keep_from);
    }

    /// Number of stored reports for a window.
    pub fn reports_in_window(&self, window: u64) -> usize {
        self.inner.read().get(&window).map_or(0, |v| v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pinger: u32, window: u64, path: u32, sent: u64, lost: u64) -> PingerReport {
        let counters = PathCounters {
            sent,
            lost,
            rtt_sum_us: 100.0 * (sent - lost) as f64,
            rtt_max_us: 120.0,
        };
        PingerReport {
            pinger: NodeId(pinger),
            window,
            paths: vec![(PathId(path), counters)],
            ..Default::default()
        }
    }

    #[test]
    fn aggregation_merges_pingers() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 2));
        store.ingest(report(2, 0, 7, 10, 3));
        let obs = store.window_observations(0, &|_| false);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].sent, 20);
        assert_eq!(obs[0].lost, 5);
    }

    #[test]
    fn excluded_pingers_are_ignored() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 0));
        store.ingest(report(2, 0, 7, 10, 10));
        let obs = store.window_observations(0, &|p| p == NodeId(2));
        assert_eq!(obs[0].lost, 0);
    }

    #[test]
    fn windows_are_separate() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 1));
        store.ingest(report(1, 1, 7, 10, 2));
        assert_eq!(store.window_observations(0, &|_| false)[0].lost, 1);
        assert_eq!(store.window_observations(1, &|_| false)[0].lost, 2);
    }

    #[test]
    fn prune_drops_old_windows() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 1));
        store.ingest(report(1, 5, 7, 10, 1));
        store.prune_before(3);
        assert_eq!(store.reports_in_window(0), 0);
        assert_eq!(store.reports_in_window(5), 1);
    }

    #[test]
    fn counters_mean_rtt() {
        let c = PathCounters {
            sent: 10,
            lost: 2,
            rtt_sum_us: 800.0,
            rtt_max_us: 150.0,
        };
        assert!((c.mean_rtt_us() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn all_lost_detects_sick_pinger() {
        let r = report(1, 0, 7, 10, 10);
        assert!(r.all_lost());
        let r = report(1, 0, 7, 10, 9);
        assert!(!r.all_lost());
    }
}
