//! The diagnoser: the report store and PLL every window (§3.1, §6.1).
//!
//! Reports are filed as their window closes, in roster order, into the
//! [`ReportStore`]: per retained window, each report's pinger, its
//! 8-byte `(path, sent, lost, flows_probed)` rows and its flow records,
//! as columns of a log that a pruned window hands to the next. The in-rack
//! total is read before a report is filed and is not kept, and a report
//! holds a flow record only where flows can differ — a flow that lost a
//! probe on a path that kept one — so what the retained windows cost
//! follows the paths and the partial loss, not the probing. The store's
//! lock serves the benchmark's replay generator, which files reports
//! through a shared reference (ROADMAP item 1(a)); the diagnoser itself
//! owns the store and files without it.
//!
//! Diagnosis is one path. One walk of the window's rows skips the
//! pingers the watchdog excludes, sums the rest per slot of the matrix's
//! id table — a row's slot is its id less its run's first id, the run
//! kept as a cursor across a report's ascending ids — and reads the
//! slots out in id order, emitting only the lossy paths, each with its
//! row ([`ReportStore::window_lossy`]). The clean paths reach PLL as one
//! number a link, the hit ratio's denominator: the rows through the link
//! minus the rows the window left unobserved
//! ([`RowSums::observed_through`]), under a generation that moves only
//! when that set of rows does. The window is aggregated once, with
//! nothing to subtract or filter afterwards. Then its lossy paths are
//! localized through [`ComponentPll`], which reads their links from the
//! matrix's own row → links incidence, its flat link runs, in place
//! ([`RowSums::incidence`]) — one greedy per connected component
//! of the lossy path/link incidence, run in turn on the diagnosing
//! thread. It keeps the last window's components and solves again only
//! those the window changed (an onset of a storm re-solves a handful of
//! its ~200), so a window costs what changed in it. It is exactly
//! equivalent to plain `localize` over the whole window.

use detector_core::pll::{
    classify_loss, ClassifyConfig, ComponentPll, Diagnosis, LossClassification, PllConfig,
};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, PathObservation};

use crate::report::{PingerReport, ReportStore, RowSums};
use crate::watchdog::Watchdog;

/// Configuration of the diagnosis stage: nothing left to configure. The
/// stage solves a window's components inline, one after another, so
/// there is no worker count to set. The type and
/// [`Diagnoser::with_diag`] remain only because `benchmark/` passes
/// `SystemConfig::diag` through them; both go with ROADMAP item 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiagConfig;

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
    /// number of independent greedy covers the window's localization
    /// consists of.
    pub components: u64,
    /// Components whose greedy ran: the ones the window changed (all of
    /// them after a new matrix), 0 when it repeats its predecessor.
    pub components_solved: u64,
}

/// The diagnoser service.
pub struct Diagnoser {
    matrix: ProbeMatrix,
    store: ReportStore,
    /// The window walk's accumulator, each link's row count and the
    /// latest window's lossy rows and hit-ratio denominators, recycled
    /// across windows.
    sums: RowSums,
    localizer: ComponentPll,
}

impl Diagnoser {
    /// A diagnoser for the given probe matrix.
    pub fn new(matrix: ProbeMatrix, pll: PllConfig) -> Self {
        Self {
            sums: RowSums::new(&matrix),
            matrix,
            store: ReportStore::new(),
            localizer: ComponentPll::new(pll),
        }
    }

    /// A no-op: [`DiagConfig`] has nothing to set. Kept because
    /// `benchmark/` calls it; goes with ROADMAP item 1.
    pub fn with_diag(self, _diag: DiagConfig) -> Self {
        self
    }

    /// The probe matrix in force.
    pub fn matrix(&self) -> &ProbeMatrix {
        &self.matrix
    }

    /// Replaces the probe matrix (new controller cycle or plan epoch).
    /// Drops the localizer's components — path ids may be reused with
    /// different link sets — and refits the window walk to the new
    /// matrix's rows and links.
    pub fn set_matrix(&mut self, matrix: ProbeMatrix) {
        self.localizer.invalidate();
        self.sums.fit(&matrix);
        self.matrix = matrix;
    }

    /// Ingests a pinger report (the HTTP POST of §6.1): files it in its
    /// window's log, without taking the store's lock. Nothing is
    /// aggregated until the window is diagnosed.
    pub fn ingest(&mut self, report: PingerReport) {
        self.store.file(report);
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
    /// watchdog excludes skipped, only the lossy paths emitted, each
    /// link's observed-path count kept — and runs PLL over it. The result
    /// is exactly `localize` over [`observations`](Diagnoser::observations).
    pub fn diagnose(&mut self, window: u64, watchdog: &Watchdog) -> DiagnosisEvent {
        let excluded = |p| !watchdog.is_healthy(p);
        let (lossy, num_observations, reports) =
            (self.store).window_lossy(window, &self.matrix, &excluded, &mut self.sums);
        let diagnosis = (self.localizer).diagnose(lossy, self.sums.incidence(&self.matrix));
        // The shape of the window's diagnosis work, for `WindowCounters`: the
        // partition the localizer just solved — a pure function of the
        // post-exclusion observations, so every driver reports the same
        // numbers.
        let (lossy_paths, components) = self.localizer.window_shape();
        DiagnosisEvent {
            window,
            num_observations,
            diagnosis,
            reports,
            shard_contention: 0,
            lossy_paths,
            components,
            components_solved: self.localizer.components_solved(),
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
    /// flows that lost a probe on a path that kept one; the store
    /// rebuilds the others from each path's flow count and counters
    /// ([`ReportStore::flow_samples`]) — at rate 0, or at rate 1 where
    /// the path lost every probe — and the verdict is the one a record
    /// per flow would give.
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
        let mut d = Diagnoser::new(m, cfg);
        d.ingest(report(1, 0, &rows));
        assert_eq!(d.diagnose(0, &Watchdog::new()).diagnosis, want);
    }

    #[test]
    fn an_unobserved_clean_path_through_a_candidate_link_rebuilds() {
        // Paths 0–2 cross link 0, path 3 link 1. Both windows lose the
        // same probes on paths 0 and 1, but window 1 leaves clean path 2
        // unobserved: link 0's denominator goes 3 → 2, its hit ratio
        // 2/3 → 1, while the lossy observations repeat exactly.
        let links = [0, 0, 0, 1].map(|l| vec![LinkId(l)]);
        let paths = (0..)
            .zip(links)
            .map(|(id, ls)| ProbePath::from_links(id, ls));
        let cfg = PllConfig::default();
        let paths = paths.collect::<Vec<_>>();
        let mut d = Diagnoser::new(ProbeMatrix::from_paths(2, paths), cfg);
        let w = Watchdog::new();
        d.ingest(report(
            1,
            0,
            &[(0, 100, 40), (1, 100, 40), (2, 100, 0), (3, 100, 0)],
        ));
        d.ingest(report(1, 1, &[(0, 100, 40), (1, 100, 40), (3, 100, 0)]));
        for (window, hit) in [(0, 2.0 / 3.0), (1, 1.0)] {
            let want = localize(d.matrix(), &d.observations(window, &w), &cfg);
            let got = d.diagnose(window, &w).diagnosis;
            assert_eq!(got, want, "window {window}");
            let hits: Vec<f64> = got.suspects.iter().map(|s| s.hit_ratio).collect();
            assert_eq!(hits, vec![hit], "window {window}");
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
