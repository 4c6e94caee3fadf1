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
//!
//! A report costs what was lost, not what was probed: it carries a flow
//! record only for a flow that lost a probe, and for every path the
//! number of distinct flows probed on it. The flows without a record
//! are clean by construction — `flows_probed − records` of them sharing
//! the path's remaining probes at loss rate 0 — which is all loss
//! classification reads of a clean flow, so [`ReportStore::flow_samples`]
//! rebuilds them exactly and 21 retained windows hold no record of a
//! quiet fabric's flows at all.

#[cfg(test)]
mod reference;

use std::collections::HashMap;

use detector_core::pll::FlowSample;
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

/// The counters of one flow that lost at least one probe on one path over
/// one window: the raw material for loss-type classification (§7). A flow
/// is the probe header the fabric hashes on — source port and DSCP class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The probed path.
    pub path: PathId,
    /// The probes' UDP source port.
    pub sport: u16,
    /// The probes' DSCP class.
    pub dscp: u8,
    /// Probes sent on this flow (confirmation re-probes and the flow's
    /// delivered probes included).
    pub sent: u64,
    /// Probes lost on this flow; never zero in a report.
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
/// The three runs are strictly ascending by key, every flow record's
/// path has an entry in `paths`, and a path's records add up to its
/// counters: at most `flows_probed` of them, their losses summing to the
/// path's, their probes leaving at least one for every flow without a
/// record. [`Pinger::run_window`] builds reports that way, the frame
/// decoder rejects anything else, and a record breaking it is not
/// representable on the wire.
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
    /// Distinct flows probed on each path this window, parallel to
    /// `paths`. An entry missing at the tail reads as zero: a path
    /// reported without per-flow information, which classification skips.
    pub flows_probed: Vec<u32>,
    /// Counters for in-rack probes (server–ToR links), ascending by
    /// responder.
    pub in_rack: Vec<(NodeId, PathCounters)>,
    /// The flows that lost a probe, ascending by [`FlowRecord::key`].
    pub flows: Vec<FlowRecord>,
}

impl PingerReport {
    /// The counters of `path`, if the report covers it.
    pub fn path(&self, path: PathId) -> Option<&PathCounters> {
        let at = self.paths.binary_search_by_key(&path, |(p, _)| *p).ok()?;
        self.paths.get(at).map(|(_, c)| c)
    }

    /// The flows probed on each entry of `paths`, in order: `flows_probed`,
    /// zero where it falls short of `paths`.
    pub fn probed(&self) -> impl Iterator<Item = u32> + '_ {
        let padded = self
            .flows_probed
            .iter()
            .copied()
            .chain(std::iter::repeat(0));
        padded.take(self.paths.len())
    }

    /// The flow records of `path`: its flows that lost a probe.
    pub fn flows_of(&self, path: PathId) -> &[FlowRecord] {
        let from = self.flows.partition_point(|f| f.path < path);
        let rest = self.flows.get(from..).unwrap_or_default();
        let own = rest.partition_point(|f| f.path == path);
        rest.get(..own).unwrap_or_default()
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

    /// The per-flow samples of a window over the paths selected by
    /// `keep_path`, excluding flagged pingers (classification input): one
    /// sample per flow record, and for each `(pinger, path)` the flows
    /// probed without a record as clean samples sharing the path's
    /// remaining probes. How those probes split among the clean flows is
    /// not recorded and does not matter — `classify_loss` reads a flow's
    /// rate, the flow count and the two sums — so every clean flow gets
    /// one and the first takes the rest.
    ///
    /// Samples stay apart per pinger: two pingers probing the same path
    /// use different source addresses, so a header-matching blackhole can
    /// treat their otherwise-identical flows differently — merging them
    /// would fake intermediate loss rates and hide bimodality.
    pub fn flow_samples(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
        keep_path: &dyn Fn(PathId) -> bool,
    ) -> Vec<FlowSample> {
        let inner = self.inner.read();
        let reports = inner.get(&window).into_iter().flatten();
        let mut samples = Vec::new();
        for r in reports.filter(|r| !excluded(r.pinger)) {
            for ((pid, c), probed) in r.paths.iter().zip(r.probed()) {
                if !keep_path(*pid) {
                    continue;
                }
                let id = |flow| (u64::from(r.pinger.0) << 48) ^ (u64::from(pid.0) << 24) ^ flow;
                let lossy = r.flows_of(*pid);
                for f in lossy {
                    let flow = u64::from(f.sport) | (u64::from(f.dscp) << 16);
                    samples.push(FlowSample::new(id(flow), f.sent, f.lost));
                }
                let clean_flows = u64::from(probed).saturating_sub(lossy.len() as u64);
                let clean_sent = c.sent.saturating_sub(lossy.iter().map(|f| f.sent).sum());
                for i in 0..clean_flows {
                    let rest = clean_sent.saturating_sub(clean_flows - 1);
                    let sent = if i == 0 { rest } else { 1 };
                    // Past the 24 bits a record's port and class take.
                    samples.push(FlowSample::new(id((i + 1) << 24), sent, 0));
                }
            }
        }
        samples
    }

    /// [`flow_samples`](Self::flow_samples) as it was when reports carried
    /// a record for every flow, clean ones included — the oracle the
    /// lossy-only store is tested against, fed full-record reports.
    #[cfg(test)]
    pub(crate) fn flow_samples_full(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
        keep_path: &dyn Fn(PathId) -> bool,
    ) -> Vec<FlowSample> {
        let inner = self.inner.read();
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
        agg.into_iter()
            .map(|((pinger, pid, flow), (sent, lost))| {
                let id = ((pinger.0 as u64) << 48) ^ ((pid.0 as u64) << 24) ^ flow;
                FlowSample::new(id, sent, lost)
            })
            .collect()
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
    fn clean_flows_are_rebuilt_from_the_count_and_the_remaining_probes() {
        // 300 probes over 4 flows; two lost a probe and have a record,
        // so two clean flows share the other 300 − 150 − 75 = 75.
        let flow = |sport, sent, lost| FlowRecord {
            path: PathId(7),
            sport,
            dscp: 0,
            sent,
            lost,
        };
        let mut r = report(1, 0, 7, 300, 3);
        r.flows_probed = vec![4];
        r.flows = vec![flow(33000, 150, 2), flow(33001, 75, 1)];
        assert_eq!(r.flows_of(PathId(7)).len(), 2);
        assert!(r.flows_of(PathId(6)).is_empty() && r.flows_of(PathId(8)).is_empty());
        let store = ReportStore::new();
        store.ingest(r);
        // A second pinger reports the path without per-flow information.
        store.ingest(report(2, 0, 7, 100, 0));
        let samples = store.flow_samples(0, &|_| false, &|p| p == PathId(7));
        let mut counters: Vec<(u64, u64)> = samples.iter().map(|s| (s.sent, s.lost)).collect();
        counters.sort_unstable();
        assert_eq!(counters, vec![(1, 0), (74, 0), (75, 1), (150, 2)]);
        let ids: std::collections::HashSet<u64> = samples.iter().map(|s| s.flow).collect();
        assert_eq!(ids.len(), 4, "every sample is its own flow");
        // Excluded pingers and unselected paths contribute nothing, clean
        // flows included.
        assert!(store.flow_samples(0, &|_| true, &|_| true).is_empty());
        assert!(store.flow_samples(0, &|_| false, &|_| false).is_empty());
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
