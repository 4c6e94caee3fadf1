//! The window protocol: the one cycle every driver runs (§3.2, §6.1),
//! split where the pipelined scheduler has to split it.
//!
//! * The **plan half** ([`PlanHalf`]) owns the controller, the deployed
//!   pinglists, the simulated clock and the window counter, and is lent
//!   the [`Watchdog`]. It [`apply`](PlanHalf::apply)s one scripted
//!   action, and [`open`](PlanHalf::open)s a window: cycle refresh, the
//!   data plane's `window_started` hook, the window's one seed draw, and
//!   the roster — every pinger of the deployment with its health *now*.
//! * The **close half** ([`CloseHalf`]) owns the diagnoser and the event
//!   sinks. It announces re-plans and windows, and
//!   [`close`](CloseHalf::close)s a window given its [`Ticket`] and its
//!   reports: filed in roster order, PLL, the history prune, the
//!   statistics, `DiagnosisReady`.
//!
//! Every `RuntimeEvent` is built here, so a window's event grammar —
//! `PlanUpdated* WindowStarted CycleRefreshed? (PingerUnhealthy |
//! ReportIngested)+ IngestStats DiagStats DiagnosisReady` — has one
//! author. The drivers are schedules of the two halves; they differ in
//! the installer, the report source, and where the halves run:
//!
//! | driver | installer | reports from | halves run on |
//! |---|---|---|---|
//! | [`Detector::step`](crate::Detector::step) | prune the binding cache | batches, inline | one thread |
//! | [`Detector::run_pipelined`](crate::Detector::run_pipelined) | prune the binding cache | batches, on probe workers | caller plans, a collector closes |
//! | `DistributedDetector::run_distributed` | ship the list updates as frames | agent transports | one thread |
//!
//! Collection only holds reports; `close` files them and the diagnoser
//! aggregates the filed window in one walk, so nothing here asks which
//! driver is calling.

use std::time::Instant;

use detector_core::pmc::{PmcError, ProbeMatrix};
use detector_core::types::{LinkId, NodeId};
use detector_topology::TopologyEvent;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::clock::SimClock;
use crate::controller::{Controller, Deployment, PlanUpdate};
use crate::dataplane::DataPlane;
use crate::diagnoser::Diagnoser;
use crate::dispatch::{rebase_and_diff, DispatchStats, ListUpdate};
use crate::events::{EventSink, RuntimeEvent, WindowResult};
use crate::report::PingerReport;
use crate::runtime::BuildError;
use crate::script::ScriptAction;
use crate::watchdog::Watchdog;
use crate::{SharedTopology, SystemConfig};

/// Windows of raw reports the diagnoser keeps behind the one it closes,
/// as the paper's database would.
const HISTORY_WINDOWS: u64 = 20;

/// A driver's installer: handed the list updates against the previous
/// deployment, the one now in force, and the watchdog (a failed send
/// marks the dead agent's racks).
pub type Install<'a> = dyn FnMut(&[ListUpdate], &Deployment, &mut Watchdog) + 'a;

/// Boots both halves for `topo`: validated configuration, the view
/// seeded with `offline` links (one batch, so the first plan is born
/// degraded rather than built pristine and patched), the first
/// deployment, and a diagnoser pointed at its matrix.
pub fn boot(
    topo: SharedTopology,
    cfg: SystemConfig,
    offline: &[LinkId],
) -> Result<(PlanHalf, CloseHalf), BuildError> {
    cfg.validate()?;
    let mut controller = Controller::new(topo.clone(), cfg.clone());
    if !offline.is_empty() {
        controller.apply_events(offline.iter().map(|&link| TopologyEvent::LinkDown { link }))?;
    }
    let deployment = controller.build_deployment(Watchdog::new().unhealthy_set())?;
    let diagnoser = Diagnoser::new(deployment.matrix.clone(), cfg.pll).with_diag(cfg.diag);
    let plan = PlanHalf {
        topo,
        cfg,
        controller,
        deployment,
        clock: SimClock::new(),
        window: 0,
    };
    let close = CloseHalf {
        diagnoser,
        sinks: Vec::new(),
    };
    Ok((plan, close))
}

/// The planning side of the window protocol; see the module docs.
pub struct PlanHalf {
    topo: SharedTopology,
    cfg: SystemConfig,
    controller: Controller,
    deployment: Deployment,
    clock: SimClock,
    window: u64,
}

/// One applied topology event: what [`CloseHalf::replanned`] announces.
#[derive(Debug)]
pub struct Replanned {
    /// What changed and what it cost — the payload of `PlanUpdated`.
    pub update: PlanUpdate,
    /// The matrix now deployed, when the event changed it.
    matrix: Option<ProbeMatrix>,
}

/// An open window, from [`PlanHalf::open`] to [`CloseHalf::close`].
#[derive(Debug)]
pub struct Ticket {
    /// The window's index.
    pub window: u64,
    /// Simulated start time, seconds.
    pub start_s: u64,
    /// Simulated end time, seconds.
    pub end_s: u64,
    /// The window's master seed — the run's only RNG draw for it; each
    /// batch derives its stream via [`batch_seed`](crate::batch_seed).
    pub seed: u64,
    /// `(version, num_paths)` when the window sits on a cycle boundary.
    cycle: Option<(u64, usize)>,
    /// The matrix the cycle refresh deployed.
    matrix: Option<ProbeMatrix>,
    /// Every pinger of the deployment, ascending, with its health at
    /// open time (unhealthy ⇒ no report expected).
    roster: Vec<(NodeId, bool)>,
}

impl Ticket {
    /// The roster: every pinger of the window's deployment in pinglist
    /// order, with whether it is expected to report.
    pub fn roster(&self) -> &[(NodeId, bool)] {
        &self.roster
    }

    /// Is `pinger` on the roster and expected to report?
    pub fn expects(&self, pinger: NodeId) -> bool {
        let at = self.roster.binary_search_by_key(&pinger, |(p, _)| *p).ok();
        at.and_then(|at| self.roster.get(at))
            .is_some_and(|(_, healthy)| *healthy)
    }

    /// Withdraws `servers` from the roster: an agent died mid-window and
    /// its racks degrade to `PingerUnhealthy`, exactly as if they had
    /// been marked before the window opened.
    pub fn forfeit(&mut self, servers: &[NodeId]) {
        for (pinger, healthy) in &mut self.roster {
            *healthy &= !servers.contains(pinger);
        }
    }
}

impl PlanHalf {
    /// The monitored topology.
    pub fn topo(&self) -> &SharedTopology {
        &self.topo
    }

    /// The configuration in force.
    pub fn cfg(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The controller: the live topology view, its epoch, the probe plan.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The deployment in force: probe matrix and pinglists (ascending
    /// by pinger).
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> u64 {
        self.clock.now_s()
    }

    /// The index the next [`open`](Self::open)ed window will carry.
    pub fn next_window(&self) -> u64 {
        self.window
    }

    /// Applies one scripted action before the window it is due in opens:
    /// a health mark lands in the watchdog, a topology event goes through
    /// [`replan`](Self::replan).
    pub fn apply(
        &mut self,
        watchdog: &mut Watchdog,
        action: &ScriptAction,
        install: &mut Install<'_>,
    ) -> Result<Option<Replanned>, PmcError> {
        match action {
            ScriptAction::Topology(event) => {
                return self.replan(watchdog, event, install).map(Some)
            }
            ScriptAction::MarkUnhealthy(server) => watchdog.mark_unhealthy(*server),
            ScriptAction::MarkHealthy(server) => watchdog.mark_healthy(*server),
        }
        Ok(None)
    }

    /// The view absorbs `event`, the plan is incrementally repaired, and
    /// — when a link actually flipped — the new deployment is installed.
    /// Lists whose assignment is unchanged keep their version (their
    /// pingers are not re-bound). This is the re-plan's one stopwatch:
    /// it fills `replan_micros`.
    pub fn replan(
        &mut self,
        watchdog: &mut Watchdog,
        event: &TopologyEvent,
        install: &mut Install<'_>,
    ) -> Result<Replanned, PmcError> {
        // detlint::allow(determinism, reason = "replan_micros stopwatch; measurement only, never branches")
        let t0 = Instant::now();
        let mut update = self.controller.apply_event(event)?;
        let mut matrix = None;
        if update.links_changed > 0 {
            let dep = self.controller.build_deployment(watchdog.unhealthy_set())?;
            let stats = self.install(dep, watchdog, install);
            update.lists_redispatched = stats.lists_redispatched;
            update.entries_diffed = stats.entries_diffed;
            update.bytes_dispatched = stats.bytes_dispatched;
            matrix = Some(self.deployment.matrix.clone());
        }
        // The full replan latency: view update + plan patch + matrix
        // assembly + pinglist re-dispatch.
        update.replan_micros = t0.elapsed().as_micros() as u64;
        Ok(Replanned { update, matrix })
    }

    /// Opens the next window: refreshes the deployment in the first
    /// window that opens at or after each multiple of `cycle_s` (§6.1's
    /// 10-minute recompute — topology or health may have changed), fires
    /// the data plane's `window_started` hook, draws the window's seed —
    /// exactly one `u64` per window — and snapshots the roster.
    pub fn open(
        &mut self,
        watchdog: &mut Watchdog,
        dataplane: &dyn DataPlane,
        rng: &mut SmallRng,
        install: &mut Install<'_>,
    ) -> Ticket {
        let window = self.window;
        let start_s = self.clock.now_s();
        let (mut cycle, mut matrix) = (None, None);
        if window > 0 && start_s % self.cfg.cycle_s < self.cfg.window_s {
            if let Ok(dep) = self.controller.build_deployment(watchdog.unhealthy_set()) {
                cycle = Some((dep.version, dep.matrix.num_paths()));
                self.install(dep, watchdog, install);
                matrix = Some(self.deployment.matrix.clone());
            }
        }
        dataplane.window_started(window, start_s);
        let seed = rng.gen();
        let roster = (self.deployment.pinglists.iter())
            .map(|list| (list.pinger, watchdog.is_healthy(list.pinger)))
            .collect();
        self.clock.advance_s(self.cfg.window_s);
        self.window += 1;
        Ticket {
            window,
            start_s,
            end_s: self.clock.now_s(),
            seed,
            cycle,
            matrix,
            roster,
        }
    }

    /// The one install procedure: rebase pinglist versions so unchanged
    /// lists keep their bindings, compute the list updates and their
    /// cost, put the deployment in force, and hand the updates to the
    /// driver.
    fn install(
        &mut self,
        mut dep: Deployment,
        watchdog: &mut Watchdog,
        install: &mut Install<'_>,
    ) -> DispatchStats {
        let (updates, stats) = rebase_and_diff(&self.deployment, &mut dep, &[]);
        self.deployment = dep;
        install(&updates, &self.deployment, watchdog);
        stats
    }
}

/// The diagnosing side of the window protocol; see the module docs.
pub struct CloseHalf {
    diagnoser: Diagnoser,
    sinks: Vec<Box<dyn EventSink>>,
}

impl CloseHalf {
    /// Registers an event sink; sinks observe every [`RuntimeEvent`] in
    /// emission order.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    fn emit(&mut self, event: RuntimeEvent) {
        for sink in &mut self.sinks {
            sink.on_event(&event);
        }
    }

    /// Announces one applied topology event (`PlanUpdated`) and points
    /// the diagnoser at the matrix it deployed.
    pub fn replanned(&mut self, replanned: Replanned) {
        let u = replanned.update;
        self.emit(RuntimeEvent::PlanUpdated {
            epoch: u.epoch,
            links_changed: u.links_changed,
            probes_delta: u.probes_delta,
            lists_redispatched: u.lists_redispatched,
            entries_diffed: u.entries_diffed,
            bytes_dispatched: u.bytes_dispatched,
            replan_micros: u.replan_micros,
        });
        if let Some(matrix) = replanned.matrix {
            self.diagnoser.set_matrix(matrix);
        }
    }

    /// Announces an open window — `WindowStarted`, then `CycleRefreshed`
    /// on a boundary — and installs the refreshed matrix. Call it before
    /// the window's first report is collected.
    pub fn header(&mut self, ticket: &mut Ticket) {
        let window = ticket.window;
        self.emit(RuntimeEvent::WindowStarted {
            window,
            start_s: ticket.start_s,
        });
        if let Some((version, num_paths)) = ticket.cycle {
            self.emit(RuntimeEvent::CycleRefreshed {
                window,
                version,
                num_paths,
            });
        }
        if let Some(matrix) = ticket.matrix.take() {
            self.diagnoser.set_matrix(matrix);
        }
    }

    /// The diagnoser: past windows' observations and loss classification.
    pub fn diagnoser(&self) -> &Diagnoser {
        &self.diagnoser
    }

    /// Closes a window whose reports are all collected: `take`s every
    /// healthy roster pinger's report, then walks the roster —
    /// `PingerUnhealthy`, or `ReportIngested` and the report filed — runs
    /// the diagnosis under `watchdog`, prunes history, and emits
    /// `IngestStats`, `DiagStats` and `DiagnosisReady`. `Err` names a
    /// healthy roster pinger `take` had no report for; the window then
    /// has emitted and filed nothing.
    pub fn close(
        &mut self,
        ticket: Ticket,
        mut take: impl FnMut(NodeId) -> Option<PingerReport>,
        watchdog: &Watchdog,
        dataplane: &dyn DataPlane,
    ) -> Result<WindowResult, NodeId> {
        let window = ticket.window;
        let mut taken = Vec::with_capacity(ticket.roster.len());
        for &(pinger, healthy) in &ticket.roster {
            let report = if healthy {
                Some(take(pinger).ok_or(pinger)?)
            } else {
                None
            };
            taken.push((pinger, report));
        }
        let mut probes_sent = 0u64;
        for (pinger, report) in taken {
            let Some(report) = report else {
                self.emit(RuntimeEvent::PingerUnhealthy { window, pinger });
                continue;
            };
            let sent = report.total_sent();
            probes_sent += sent;
            self.emit(RuntimeEvent::ReportIngested {
                window,
                pinger,
                probes_sent: sent,
                num_paths: report.paths.len(),
            });
            // Server health comes from the management plane (heartbeats),
            // not from dataplane loss: an all-lost report usually means
            // the pinger's rack uplink or ToR failed — precisely what the
            // diagnoser must see, not a reason to silence the pinger.
            self.diagnoser.ingest(report);
        }

        let event = self.diagnoser.diagnose(window, watchdog);
        self.diagnoser
            .prune_before(window.saturating_sub(HISTORY_WINDOWS));
        self.emit(RuntimeEvent::IngestStats {
            window,
            reports: event.reports,
            paths_active: event.num_observations as u64,
        });
        self.emit(RuntimeEvent::DiagStats {
            window,
            lossy_paths: event.lossy_paths,
            components: event.components,
            suspects: event.diagnosis.suspects.len() as u64,
        });
        let result = WindowResult {
            window,
            start_s: ticket.start_s,
            probes_sent,
            num_observations: event.num_observations,
            diagnosis: event.diagnosis,
        };
        self.emit(RuntimeEvent::DiagnosisReady(result.clone()));
        dataplane.window_finished(window, ticket.end_s);
        Ok(result)
    }
}

#[cfg(test)]
mod reference;
