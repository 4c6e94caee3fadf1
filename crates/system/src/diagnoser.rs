//! The diagnoser: the report store and PLL every window (§3.1, §6.1).
//!
//! Reports are filed as their window closes, in roster order, into the
//! [`ReportStore`]: per retained window, each report's pinger, its
//! `(path, flows_probed, sent, lost)` rows and its lossy flow records,
//! as columns of a log that a pruned window hands to the next. The
//! in-rack total is read before a report is filed and is not kept, and
//! a report holds a flow record only where a probe was
//! lost, so what the retained windows cost follows the paths and the
//! loss, not the probing. The store's lock serves the benchmark's replay
//! generator, which files reports through a shared reference (ROADMAP
//! item 1(a)); the diagnoser itself owns the store.
//!
//! Diagnosis is one path. One walk of the window's rows skips the
//! pingers the watchdog excludes, sums the rest per matrix row, and
//! emits only the paths that can influence the verdict: the lossy ones
//! and every one sharing a link with them, found through the matrix's
//! link → row incidence, which the diagnoser indexes once per matrix
//! ([`ReportStore::window_kept`]). The window is aggregated once, where
//! it is kept, with nothing to subtract or filter afterwards. Then it is
//! localized through the cached-skeleton [`ComponentPll`] — one job per
//! connected component of the lossy path/link incidence, run inline or
//! on a scoped pool. It is exactly equivalent to plain `localize` over
//! the unfiltered window.

use detector_core::pll::{
    classify_loss, ClassifyConfig, ComponentJob, ComponentPlan, ComponentPll, Diagnosis,
    LossClassification, PllConfig,
};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, PathObservation};
use serde::{Deserialize, Serialize};

use crate::report::{PingerReport, ReportStore, RowSums};
use crate::watchdog::Watchdog;

/// Configuration of the diagnosis stage itself (as opposed to the PLL
/// algorithm it runs, [`PllConfig`]).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DiagConfig {
    /// Worker threads for the per-component PLL jobs. Every window is
    /// localized as one [`ComponentJob`] per connected component of its
    /// lossy path/link incidence ([`ComponentPll`]); `1` (the default)
    /// runs the jobs inline on the diagnosing thread, `> 1` solves them
    /// concurrently on a scoped pool. The merge restores the exact global
    /// greedy order, so results and the event stream are bit-identical
    /// either way — the knob trades threads for multi-failure diagnosis
    /// latency.
    pub parallel_components: usize,
}

impl Default for DiagConfig {
    fn default() -> Self {
        Self {
            parallel_components: 1,
        }
    }
}

impl DiagConfig {
    /// Overrides the component-parallel worker count.
    pub fn with_parallel_components(mut self, workers: usize) -> Self {
        self.parallel_components = workers.max(1);
        self
    }
}

/// One diagnosis produced at the end of a window.
#[derive(Clone, Debug)]
pub struct DiagnosisEvent {
    /// The window the diagnosis covers.
    pub window: u64,
    /// Number of per-path observations aggregated.
    pub num_observations: usize,
    /// The PLL output.
    pub diagnosis: Diagnosis,
    /// Reports filed for the window, excluded pingers' not counted.
    pub reports: u64,
    /// Always 0: nothing contends for the store. Kept because
    /// `benchmark/src/traced.rs` reads it; goes with ROADMAP item 1.
    pub shard_contention: u64,
    /// Observed paths with losses above the noise filters — computed on
    /// the post-exclusion window, so identical across drivers.
    pub lossy_paths: u64,
    /// Connected components of the lossy path/link incidence: the
    /// number of [`ComponentJob`]s the window's localization consists of.
    pub components: u64,
}

/// The diagnoser service.
pub struct Diagnoser {
    matrix: ProbeMatrix,
    diag: DiagConfig,
    store: ReportStore,
    /// The window walk's accumulator and the matrix's link → row
    /// incidence, recycled across windows.
    sums: RowSums,
    localizer: ComponentPll,
}

impl Diagnoser {
    /// A diagnoser for the given probe matrix.
    pub fn new(matrix: ProbeMatrix, pll: PllConfig) -> Self {
        Self {
            sums: RowSums::new(&matrix),
            matrix,
            diag: DiagConfig::default(),
            store: ReportStore::new(),
            localizer: ComponentPll::new(pll),
        }
    }

    /// Sets the diagnosis-stage configuration (builder style).
    pub fn with_diag(mut self, diag: DiagConfig) -> Self {
        self.diag = diag;
        self
    }

    /// The probe matrix in force.
    pub fn matrix(&self) -> &ProbeMatrix {
        &self.matrix
    }

    /// Replaces the probe matrix (new controller cycle or plan epoch).
    /// Invalidates the localizer's cached skeleton — path ids may be
    /// reused with different link sets — and refits the window walk to
    /// the new matrix's rows and links.
    pub fn set_matrix(&mut self, matrix: ProbeMatrix) {
        self.localizer.invalidate();
        self.sums.fit(&matrix);
        self.matrix = matrix;
    }

    /// Ingests a pinger report (the HTTP POST of §6.1): files it in its
    /// window's log. Nothing is aggregated until the window is diagnosed.
    pub fn ingest(&mut self, report: PingerReport) {
        self.store.ingest(report);
    }

    /// Aggregated observations of a window from the report store,
    /// excluding watchdog-flagged pingers — the hash-and-sort oracle
    /// [`diagnose`](Diagnoser::diagnose)'s one-walk aggregation is tested
    /// against.
    pub fn observations(&self, window: u64, watchdog: &Watchdog) -> Vec<PathObservation> {
        self.store
            .window_observations(window, &|p| !watchdog.is_healthy(p))
    }

    /// Aggregates the window in one walk of its filed rows — pingers the
    /// watchdog excludes skipped, only the paths that can influence the
    /// verdict kept — and runs PLL over it. The result is
    /// exactly `localize` over [`observations`](Diagnoser::observations),
    /// for any `DiagConfig::parallel_components`: the window's
    /// per-component jobs run through [`ComponentJob::run_all`] — inline
    /// at `1`, on a scoped pool above — and the merge is
    /// order-insensitive.
    pub fn diagnose(&mut self, window: u64, watchdog: &Watchdog) -> DiagnosisEvent {
        let excluded = |p| !watchdog.is_healthy(p);
        let (kept, num_observations, reports) =
            (self.store).window_kept(window, &self.matrix, &excluded, &mut self.sums);
        let plan = self.localizer.prepare(&self.matrix, &kept);
        // The shape of the window's diagnosis work, for `DiagStats`: the
        // partition the localizer just prepared — a pure function of the
        // post-exclusion observations, so every driver reports the same
        // numbers.
        let (lossy_paths, components) = self.localizer.window_shape();
        let diagnosis = match plan {
            ComponentPlan::Ready(diagnosis) => diagnosis,
            ComponentPlan::Fanout(jobs) => {
                let verdicts = ComponentJob::run_all(&jobs, self.diag.parallel_components);
                self.localizer.complete(verdicts)
            }
        };
        DiagnosisEvent {
            window,
            num_observations,
            diagnosis,
            reports,
            shard_contention: 0,
            lossy_paths,
            components,
        }
    }

    /// Prunes stored reports older than `keep_from`.
    pub fn prune_before(&self, keep_from: u64) {
        self.store.prune_before(keep_from);
    }

    /// Classifies the loss pattern behind a suspect link (§7) from the
    /// per-flow loss profile of the window's reports over the paths
    /// through the link. Each (pinger, path, flow) triple is one sample —
    /// a blackhole drops a flow on one path deterministically, so
    /// bimodality shows at that granularity. Reports record only the
    /// flows that lost a probe; the store rebuilds the clean ones from
    /// each path's flow count ([`ReportStore::flow_samples`]), and the
    /// verdict is the one a record per flow would give.
    pub fn classify_suspect(
        &self,
        window: u64,
        link: LinkId,
        watchdog: &Watchdog,
    ) -> Option<LossClassification> {
        let through = |pid| self.matrix.path(pid).is_some_and(|p| p.covers(link));
        let excluded = |p| !watchdog.is_healthy(p);
        let samples = self.store.flow_samples(window, &excluded, &through);
        classify_loss(&samples, &ClassifyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PathCounters;
    use detector_core::pll::localize;
    use detector_core::types::{LinkId, NodeId, PathId, ProbePath};

    fn matrix() -> ProbeMatrix {
        ProbeMatrix::from_paths(
            2,
            vec![
                ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
                ProbePath::from_links(1, vec![LinkId(0)]),
                ProbePath::from_links(2, vec![LinkId(1)]),
            ],
        )
    }

    fn report(pinger: u32, window: u64, rows: &[(u32, u64, u64)]) -> PingerReport {
        // Rows are given in ascending path order, as reports carry them.
        PingerReport {
            pinger: NodeId(pinger),
            window,
            paths: (rows.iter())
                .map(|&(p, sent, lost)| (PathId(p), PathCounters { sent, lost }))
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn diagnoses_from_aggregated_reports() {
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        // Link 0 bad: paths 0 and 1 lossy from two pingers.
        d.ingest(report(1, 0, &[(0, 50, 25), (1, 50, 25), (2, 50, 0)]));
        d.ingest(report(2, 0, &[(0, 50, 25), (1, 50, 25), (2, 50, 0)]));
        let ev = d.diagnose(0, &Watchdog::new());
        assert_eq!(ev.num_observations, 3);
        assert_eq!(ev.reports, 2);
        assert_eq!(ev.diagnosis.suspect_links(), vec![LinkId(0)]);
    }

    #[test]
    fn flagged_pingers_are_excluded() {
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        // Pinger 9 is sick and reports everything lost.
        d.ingest(report(1, 0, &[(0, 50, 0), (1, 50, 0), (2, 50, 0)]));
        d.ingest(report(9, 0, &[(0, 50, 50), (1, 50, 50), (2, 50, 50)]));
        let mut w = Watchdog::new();
        w.mark_unhealthy(NodeId(9));
        let ev = d.diagnose(0, &w);
        assert_eq!(ev.reports, 1);
        assert!(ev.diagnosis.is_clean());
    }

    #[test]
    fn empty_window_is_clean() {
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        let ev = d.diagnose(3, &Watchdog::new());
        assert_eq!(ev.num_observations, 0);
        assert_eq!(ev.reports, 0);
        assert!(ev.diagnosis.is_clean());
    }

    #[test]
    fn links_beyond_the_universe_diagnose_like_any_other() {
        // The matrix declares 2 links, but its paths name links 7 and 9:
        // they are indexed as links, not a panic, by every localizer.
        let m = ProbeMatrix::from_paths(
            2,
            vec![
                ProbePath::from_links(0, vec![LinkId(0), LinkId(7)]),
                ProbePath::from_links(1, vec![LinkId(7)]),
                ProbePath::from_links(2, vec![LinkId(9)]),
                ProbePath::from_links(3, vec![LinkId(1)]),
            ],
        );
        let cfg = PllConfig::default();
        let rows = [(0, 100, 40), (1, 100, 40), (2, 100, 90), (3, 100, 0)];
        let obs: Vec<PathObservation> = (rows.iter())
            .map(|&(p, sent, lost)| PathObservation::new(PathId(p), sent, lost))
            .collect();
        let want = localize(&m, &obs, &cfg);
        assert_eq!(want.suspect_links(), vec![LinkId(7), LinkId(9)]);
        for workers in [1, 4] {
            assert_eq!(ComponentPll::new(cfg).localize(&m, &obs, workers), want);
            let mut d = Diagnoser::new(m.clone(), cfg)
                .with_diag(DiagConfig::default().with_parallel_components(workers));
            d.ingest(report(1, 0, &rows));
            assert_eq!(d.diagnose(0, &Watchdog::new()).diagnosis, want);
        }
    }

    #[test]
    fn sealed_snapshot_matches_the_store_aggregation() {
        let mut d = Diagnoser::new(matrix(), PllConfig::default());
        d.ingest(report(1, 0, &[(0, 50, 25), (1, 40, 0)]));
        d.ingest(report(2, 0, &[(0, 10, 1), (2, 30, 30)]));
        d.ingest(report(9, 0, &[(0, 7, 7), (2, 7, 7)]));
        let mut w = Watchdog::new();
        w.mark_unhealthy(NodeId(9));
        let oracle = d.observations(0, &w);
        let ev = d.diagnose(0, &w);
        assert_eq!(ev.num_observations, oracle.len());
        assert_eq!(
            ev.diagnosis,
            localize(d.matrix(), &oracle, &PllConfig::default())
        );
    }
}
