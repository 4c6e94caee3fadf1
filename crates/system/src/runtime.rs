//! The deTector runtime handle: an owned, event-driven monitoring loop
//! (§3.2's controller → pingers → diagnoser cycle).
//!
//! [`Detector`] owns its topology (`Arc<dyn DcnTopology>`), validates its
//! configuration at build time, and executes windows as an event stream:
//! every [`step`](Detector::step) emits typed [`RuntimeEvent`](crate::RuntimeEvent)s
//! to the registered [`EventSink`]s and returns the window's
//! [`WindowResult`]. The network is reached only through the
//! [`DataPlane`] seam, so the same runtime drives the simulated fabric, a
//! mock, or the real-packet UDP backend.
//!
//! This is the **inline** schedule of the one window protocol
//! ([`window`](crate::window)): [`Detector::step`] opens a window, runs
//! its batches on the calling thread, and closes it. The `scheduler`
//! module and `detector-agent` hold the other two schedules.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use detector_core::pll::LossClassification;
use detector_core::pmc::{PmcError, ProbeMatrix};
use detector_core::types::{LinkId, NodeId, PathObservation};
use detector_topology::{DcnTopology, TopologyEvent, TopologyView};
use rand::rngs::SmallRng;

use crate::controller::{Deployment, PlanUpdate};
use crate::dataplane::DataPlane;
use crate::dispatch::ListUpdate;
use crate::events::{EventSink, WindowResult};
use crate::pinger::{bound_batch, PingerBatch};
use crate::pinglist::Pinglist;
use crate::script::Script;
use crate::watchdog::Watchdog;
use crate::window::{self, CloseHalf, PlanHalf, Ticket};
use crate::{ConfigError, SharedTopology, SystemConfig};

/// Why a [`Detector`] could not be built.
#[derive(Debug)]
pub enum BuildError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// Probe-matrix construction failed.
    Pmc(PmcError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "invalid configuration: {e}"),
            BuildError::Pmc(e) => write!(f, "probe-matrix construction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<PmcError> for BuildError {
    fn from(e: PmcError) -> Self {
        BuildError::Pmc(e)
    }
}

/// Builder for [`Detector`]: topology in, validated runtime out.
pub struct DetectorBuilder {
    topo: SharedTopology,
    cfg: SystemConfig,
    sinks: Vec<Box<dyn EventSink>>,
    offline: Vec<LinkId>,
}

impl DetectorBuilder {
    /// Replaces the configuration (defaults are §6.1's).
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Registers an event sink; sinks observe every
    /// [`RuntimeEvent`](crate::RuntimeEvent) in emission order. May be
    /// called repeatedly.
    pub fn sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Seeds the topology view with links that are already known to be
    /// down at boot (e.g. from an inventory system): the first probe
    /// plan is born with them excluded, and the view starts at epoch 1.
    pub fn offline_links(mut self, links: impl IntoIterator<Item = LinkId>) -> Self {
        self.offline.extend(links);
        self
    }

    /// Validates the configuration, computes the first probe matrix and
    /// pinglists, and returns the runtime handle.
    pub fn build(self) -> Result<Detector, BuildError> {
        let (plan, mut close) = window::boot(self.topo, self.cfg, &self.offline)?;
        for sink in self.sinks {
            close.add_sink(sink);
        }
        Ok(Detector {
            plan,
            close,
            watchdog: Watchdog::new(),
            bound: HashMap::new(),
        })
    }
}

/// A running deTector deployment.
///
/// Owns the monitored topology; drive it window by window with
/// [`step`](Self::step) against any [`DataPlane`].
pub struct Detector {
    pub(crate) plan: PlanHalf,
    pub(crate) close: CloseHalf,
    /// The watchdog, exposed for scenario scripting (e.g. killing a
    /// pinger server mid-run).
    pub watchdog: Watchdog,
    /// Bound pinger batches cached across windows, keyed by server;
    /// re-bound by [`bound_batch`] only when the dispatched pinglist's
    /// `(version, stamp)` changes (incremental re-plans keep untouched
    /// lists at their old version, see [`Deployment::rebase_versions`]).
    /// Batches are `Arc`-shared so the pipelined scheduler can ship them
    /// to probe workers without re-binding.
    pub(crate) bound: HashMap<NodeId, Arc<PingerBatch>>,
}

impl Detector {
    /// Starts building a detector for `topo`.
    pub fn builder(topo: SharedTopology) -> DetectorBuilder {
        DetectorBuilder {
            topo,
            cfg: SystemConfig::default(),
            sinks: Vec::new(),
            offline: Vec::new(),
        }
    }

    /// Builds a detector with no sinks — shorthand for
    /// `Detector::builder(topo).config(cfg).build()`.
    pub fn new(topo: SharedTopology, cfg: SystemConfig) -> Result<Self, BuildError> {
        Self::builder(topo).config(cfg).build()
    }

    /// Registers an additional event sink on a built detector.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.close.add_sink(sink);
    }

    /// The probe matrix currently deployed.
    pub fn matrix(&self) -> &ProbeMatrix {
        &self.plan.deployment().matrix
    }

    /// The monitored topology.
    pub fn topology(&self) -> &dyn DcnTopology {
        self.plan.topo().as_ref()
    }

    /// The live topology view (epoch, offline links, drained switches).
    pub fn view(&self) -> &TopologyView {
        self.plan.controller().view()
    }

    /// The partitioned probe plan behind the current deployment: exposes
    /// the per-cell `PathId` ranges and the cells a delta would touch,
    /// so dispatch stability can be asserted from the outside.
    pub fn probe_plan(&self) -> Option<&crate::ProbePlan> {
        self.plan.controller().probe_plan()
    }

    /// The topology view's current epoch.
    pub fn epoch(&self) -> u64 {
        self.plan.controller().epoch()
    }

    /// The pinglists of the current deployment.
    pub fn pinglists(&self) -> &[Pinglist] {
        &self.plan.deployment().pinglists
    }

    /// Applies a topology event between windows: the view absorbs it, the
    /// probe plan is incrementally patched (only the PMC subproblems the
    /// delta touches are re-solved), pinglists are re-dispatched — lists
    /// whose assignment is unchanged keep their version, so their pingers
    /// are not re-bound. Path ids are *segmented*: every plan cell owns a
    /// stable `PathId` range with headroom, so a delta that changes one
    /// cell's path count leaves every other cell's ids — and therefore
    /// the pinglists that carry only those cells' paths — bit-identical.
    /// A [`RuntimeEvent::PlanUpdated`](crate::RuntimeEvent::PlanUpdated)
    /// (carrying the re-dispatch count) is emitted to every sink.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use detector_system::{Detector, SystemConfig};
    /// use detector_topology::{Fattree, TopologyEvent};
    ///
    /// let ft = Arc::new(Fattree::new(4).unwrap());
    /// let mut run = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
    /// let update = run
    ///     .apply(&TopologyEvent::LinkDown { link: ft.ea_link(0, 0, 0) })
    ///     .unwrap();
    /// assert_eq!(update.epoch, 1);
    /// assert_eq!(update.links_changed, 1);
    /// // No deployed path crosses the dead link any more.
    /// assert!(run.matrix().uncoverable.contains(&ft.ea_link(0, 0, 0)));
    /// ```
    pub fn apply(&mut self, event: &TopologyEvent) -> Result<PlanUpdate, PmcError> {
        let install = &mut prune_bindings(&mut self.bound);
        let replanned = self.plan.replan(&mut self.watchdog, event, install)?;
        let update = replanned.update;
        self.close.replanned(replanned);
        Ok(update)
    }

    /// Scheduled detection probes per window (before loss confirmations):
    /// pingers × rate × window.
    pub fn scheduled_probes_per_window(&self) -> u64 {
        let cfg = self.plan.cfg();
        self.pinglists().len() as u64 * (cfg.probe_rate_pps * cfg.window_s as f64) as u64
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> u64 {
        self.plan.now_s()
    }

    /// A past window's path observations as its diagnosis read them:
    /// pingers the watchdog excludes are left out.
    pub fn observations(&self, window: u64) -> Vec<PathObservation> {
        (self.close.diagnoser()).observations(window, &self.watchdog)
    }

    /// Classifies the loss pattern behind a suspect link from a past
    /// window's per-flow counters (§7 — narrows the operator's diagnosis
    /// scope: link down vs blackhole vs random corruption vs congestion).
    pub fn classify_suspect(&self, window: u64, link: LinkId) -> Option<LossClassification> {
        (self.close.diagnoser()).classify_suspect(window, link, &self.watchdog)
    }

    /// Runs one window against `dataplane`: every healthy pinger probes
    /// its list, reports are ingested, and the diagnoser runs PLL.
    ///
    /// Event order per window: `WindowStarted`, then an optional
    /// `CycleRefreshed` (exactly on cycle boundaries) — both before the
    /// window's first probe — then one `PingerUnhealthy` or
    /// `ReportIngested` per pinger, the window's statistics, and finally
    /// `DiagnosisReady` carrying the returned [`WindowResult`].
    ///
    /// Exactly one `u64` is drawn from `rng` per window (the window's
    /// master seed); each server's probe stream is a [`PingerBatch`] RNG
    /// derived from it via [`batch_seed`](crate::batch_seed). A window's
    /// outcome therefore does not depend on the order servers probe in —
    /// which is what lets [`run_pipelined`](Detector::run_pipelined)
    /// produce identical results while probing concurrently.
    pub fn step(&mut self, dataplane: &dyn DataPlane, rng: &mut SmallRng) -> WindowResult {
        let Detector {
            plan,
            close,
            watchdog,
            bound,
        } = self;
        let mut ticket = plan.open(watchdog, dataplane, rng, &mut prune_bindings(bound));
        close.header(&mut ticket);
        let reports: Vec<_> = batches(plan, &ticket, bound)
            .map(|batch| batch.run_window(dataplane, plan.cfg(), ticket.window, ticket.seed))
            .collect();
        let mut reports = reports.into_iter();
        close
            .close(
                ticket,
                |pinger| reports.next().filter(|r| r.pinger == pinger),
                watchdog,
                dataplane,
            )
            // detlint::allow(panic_path, reason = "`batches` ran one batch per healthy roster entry, in roster order, just above")
            .expect("the inline schedule reports for every healthy roster pinger")
    }

    /// Drives `windows` sequential [`step`](Detector::step)s, applying
    /// the script's due actions before each — the **sequential oracle**
    /// the pipelined and distributed runtimes are proven equivalent to.
    /// Window indices in `script` are relative to the start of this run.
    pub fn run_scripted(
        &mut self,
        dataplane: &dyn DataPlane,
        windows: u64,
        script: &Script,
        rng: &mut SmallRng,
    ) -> Result<Vec<WindowResult>, PmcError> {
        let mut out = Vec::with_capacity(windows as usize);
        for i in 0..windows {
            for action in script.due(i) {
                let install = &mut prune_bindings(&mut self.bound);
                if let Some(replanned) = self.plan.apply(&mut self.watchdog, action, install)? {
                    self.close.replanned(replanned);
                }
            }
            out.push(self.step(dataplane, rng));
        }
        Ok(out)
    }
}

/// The single-process installer: nothing travels, so all a fresh
/// deployment asks for is dropping the cached bindings of servers that
/// left pinger duty.
pub(crate) fn prune_bindings(
    bound: &mut HashMap<NodeId, Arc<PingerBatch>>,
) -> impl FnMut(&[ListUpdate], &Deployment, &mut Watchdog) + '_ {
    |_, deployment, _| {
        let lists = &deployment.pinglists;
        bound.retain(|server, _| lists.binary_search_by_key(server, |l| l.pinger).is_ok());
    }
}

/// The window's probe work for a single-process driver: the bound batch
/// of every roster pinger expected to report, in roster order.
pub(crate) fn batches<'a>(
    plan: &'a PlanHalf,
    ticket: &'a Ticket,
    bound: &'a mut HashMap<NodeId, Arc<PingerBatch>>,
) -> impl Iterator<Item = Arc<PingerBatch>> + 'a {
    let graph = plan.topo().graph();
    (plan.deployment().pinglists.iter())
        .filter(|list| ticket.expects(list.pinger))
        .map(move |list| bound_batch(bound, list, graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::pll::evaluate_diagnosis;
    use detector_simnet::{Fabric, FailureGenerator, LossDiscipline};
    use detector_topology::Fattree;
    use rand::SeedableRng;

    fn detector(cfg: SystemConfig) -> Detector {
        Detector::new(Arc::new(Fattree::new(4).unwrap()), cfg).unwrap()
    }

    #[test]
    fn clean_fabric_produces_clean_diagnoses() {
        let ft = Fattree::new(4).unwrap();
        let mut run = detector(SystemConfig::default());
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..3 {
            let w = run.step(&fabric, &mut rng);
            assert!(w.diagnosis.suspects.is_empty(), "window {}", w.window);
            assert!(w.probes_sent > 0);
        }
    }

    #[test]
    fn full_link_failure_is_localized_within_one_window() {
        let ft = Fattree::new(4).unwrap();
        let mut run = detector(SystemConfig::default());
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ac_link(2, 1, 0);
        fabric.set_discipline_both(bad, LossDiscipline::Full);
        let mut rng = SmallRng::seed_from_u64(2);
        let w = run.step(&fabric, &mut rng);
        assert!(
            w.diagnosis.suspect_links().contains(&bad),
            "suspects: {:?}",
            w.diagnosis.suspect_links()
        );
    }

    #[test]
    fn random_scenarios_reach_high_accuracy() {
        let ft = Fattree::new(4).unwrap();
        let mut run = detector(SystemConfig::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let gen = FailureGenerator::links_only().with_min_rate(0.05);
        let mut acc_sum = 0.0;
        let n = 10;
        for _ in 0..n {
            let mut fabric = Fabric::quiet(&ft);
            let scenario = gen.sample(&ft, 1, &mut rng);
            fabric.apply_scenario(&scenario);
            let w = run.step(&fabric, &mut rng);
            let m = evaluate_diagnosis(&w.diagnosis.suspect_links(), &scenario.ground_truth(&ft));
            acc_sum += m.accuracy;
        }
        let acc = acc_sum / n as f64;
        assert!(acc >= 0.7, "accuracy {acc}");
    }

    #[test]
    fn clock_advances_per_window() {
        let ft = Fattree::new(4).unwrap();
        let mut run = detector(SystemConfig::default());
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(run.now_s(), 0);
        run.step(&fabric, &mut rng);
        assert_eq!(run.now_s(), 30);
    }

    #[test]
    fn zero_cycle_is_rejected_at_build_time() {
        let topo: SharedTopology = Arc::new(Fattree::new(4).unwrap());
        let cfg = SystemConfig {
            cycle_s: 0,
            ..SystemConfig::default()
        };
        match Detector::new(topo, cfg).err() {
            Some(BuildError::Config(ConfigError::ZeroCycle)) => {}
            other => panic!("expected ConfigError::ZeroCycle, got {other:?}"),
        }
    }

    #[test]
    fn a_boot_solve_past_the_universe_cap_is_a_build_error() {
        // Fattree(4)'s agg-column cells have 16 links each; with nothing
        // offline the boot plan solves one over all of them.
        let topo: SharedTopology = Arc::new(Fattree::new(4).unwrap());
        let mut cfg = SystemConfig::default();
        cfg.pmc.max_extended_elements = 15;
        let err = Detector::builder(topo).config(cfg).build().err();
        assert!(
            matches!(
                err,
                Some(BuildError::Pmc(PmcError::UniverseTooLarge {
                    required: 16,
                    limit: 15
                }))
            ),
            "{err:?}"
        );
    }

    #[test]
    fn builder_rejects_each_invalid_field() {
        let topo: SharedTopology = Arc::new(Fattree::new(4).unwrap());
        let cases: Vec<(SystemConfig, ConfigError)> = vec![
            (
                SystemConfig {
                    window_s: 0,
                    ..SystemConfig::default()
                },
                ConfigError::ZeroWindow,
            ),
            (
                SystemConfig {
                    probe_rate_pps: 0.0,
                    ..SystemConfig::default()
                },
                ConfigError::NonPositiveProbeRate,
            ),
            (
                SystemConfig {
                    probe_rate_pps: f64::NAN,
                    ..SystemConfig::default()
                },
                ConfigError::NonPositiveProbeRate,
            ),
            (
                SystemConfig {
                    dscp_classes: vec![],
                    ..SystemConfig::default()
                },
                ConfigError::NoDscpClasses,
            ),
            (
                SystemConfig {
                    pingers_per_tor: 0,
                    ..SystemConfig::default()
                },
                ConfigError::ZeroPingersPerTor,
            ),
            (
                SystemConfig {
                    timeout_us: 0.0,
                    ..SystemConfig::default()
                },
                ConfigError::NonPositiveTimeout,
            ),
        ];
        for (cfg, want) in cases {
            match Detector::new(Arc::clone(&topo), cfg).err() {
                Some(BuildError::Config(got)) => assert_eq!(got, want),
                other => panic!("expected {want:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn detector_is_owned_and_outlives_its_construction_scope() {
        // The borrow-bound MonitorRun<'a> forced callers to Box::leak
        // topologies; the owned handle must move freely.
        let run = {
            let topo: SharedTopology = Arc::new(Fattree::new(4).unwrap());
            Detector::new(topo, SystemConfig::default()).unwrap()
        };
        assert!(run.matrix().num_paths() > 0);
        assert_eq!(run.topology().graph().num_switches(), 20);
    }
}
