//! The controller tier: [`DistributedDetector`] drives probe windows
//! over a fleet of [`PingerAgent`](crate::PingerAgent)s and is proven
//! equivalent to the single-process sequential oracle.
//!
//! It is the **distributed schedule** of the one window protocol
//! ([`detector_system::window`]): the plan half and close half
//! [`Detector`](detector_system::Detector) runs, on one thread, with the
//! two things that really differ swapped in. The *installer* ships each
//! list update of a deployment's diff to its owner as one frame (which
//! the agent applies with
//! [`apply_list_update`](detector_system::dispatch::apply_list_update),
//! an edit script's seal stamp as an end-to-end checksum); the *report
//! source* is the agents' transports — `Report` frames are checked the
//! moment they arrive and held until the window closes; a dead agent's
//! are dropped unfiled.
//!
//! # Equivalence contract
//!
//! [`DistributedDetector::run_distributed`] emits the *identical* event
//! stream and [`WindowResult`]s as
//! [`Detector::run_scripted`](detector_system::Detector::run_scripted)
//! over [`FleetScript::oracle`]'s expansion of the same script — up to
//! the wall-clock `replan_micros` field of `PlanUpdated`. Events, their
//! order, the roster snapshot, the install procedure and the close-out
//! are the shared halves', not a copy; and exactly one `u64` is drawn
//! per window, each batch deriving its own stream via
//! [`batch_seed`](detector_system::batch_seed), so probe outcomes do not
//! depend on where (or in what order) batches run.
//!
//! # Failure semantics
//!
//! A dead agent (scripted [`DistAction::AgentDown`], a failed or
//! mis-answered heartbeat, or a transport that dies mid-window) degrades
//! to per-rack `PingerUnhealthy`: its whole host group is marked
//! unhealthy, its partial reports for the in-flight window are
//! discarded, and the run continues — a window is never stalled by a
//! crashed agent. This is exactly the oracle's `MarkUnhealthy` for every
//! server of the group at that window. One caveat, shared with the
//! pipelined scheduler's `ChurnFabric` precedent: a *mid-window* crash
//! coinciding with a cycle refresh or a scripted topology event in the
//! same window re-plans with pre-crash health in the distributed run but
//! post-mark health in the oracle; equivalence under unscripted crashes
//! therefore holds for windows without a coinciding re-plan (scripted
//! `AgentDown` is always exact, because its marks land before any
//! dispatch).
//!
//! An agent that *talks* but breaks the protocol fails the run with
//! [`DistError::Protocol`]: a report is outside input, checked before it
//! is held — it must name the open window and a pinger of the sender's
//! host group that the roster expects, once. A failed window files
//! nothing.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};

use detector_core::pmc::PmcError;
use detector_core::types::NodeId;
use detector_simnet::{partition_hosts, HostGroups};
use detector_system::dispatch::ListUpdate;
use detector_system::window::{self, CloseHalf, PlanHalf, Ticket};
use detector_system::wire::Frame;
use detector_system::{
    BuildError, DataPlane, Diagnoser, EventSink, PingerReport, Pinglist, Script, ScriptAction,
    SystemConfig, TopologyEvent, Watchdog, WindowResult, Windowed,
};
use detector_topology::SharedTopology;
use rand::rngs::SmallRng;

use crate::agent::PingerAgent;
use crate::transport::{flaky_loopback, loopback, ControlTransport};

/// One scripted action for a distributed run.
#[derive(Clone, Debug, PartialEq)]
pub enum DistAction {
    /// Apply a topology event through the incremental re-planner.
    Topology(TopologyEvent),
    /// Mark one server unhealthy (management-plane signal).
    MarkUnhealthy(NodeId),
    /// Clear one server's unhealthy mark.
    MarkHealthy(NodeId),
    /// Kill agent `g`: orderly shutdown of its process, whole host group
    /// marked unhealthy.
    AgentDown(usize),
    /// Restart agent `g`: fresh process, full resync of its owned lists,
    /// host group marked healthy again.
    AgentUp(usize),
}

impl From<ScriptAction> for DistAction {
    fn from(action: ScriptAction) -> Self {
        match action {
            ScriptAction::Topology(ev) => DistAction::Topology(ev),
            ScriptAction::MarkUnhealthy(s) => DistAction::MarkUnhealthy(s),
            ScriptAction::MarkHealthy(s) => DistAction::MarkHealthy(s),
        }
    }
}

/// A windowed script of churn, health marks and agent failures; the
/// agent verbs and the oracle expansion come from [`FleetScript`].
pub type DistScript = Windowed<DistAction>;

/// What a [`DistScript`] says beyond a single-process [`Script`].
pub trait FleetScript: Sized {
    /// Kills agent `g` before `window`.
    fn agent_down(self, window: u64, agent: usize) -> Self;

    /// Restarts agent `g` before `window`.
    fn agent_up(self, window: u64, agent: usize) -> Self;

    /// Expands this script into the sequential oracle's [`Script`]:
    /// `AgentDown(g)` becomes `MarkUnhealthy` for every server of group
    /// `g` (ascending), `AgentUp(g)` the matching `MarkHealthy` fan-out,
    /// everything else passes through. Driving
    /// [`Detector::run_scripted`](detector_system::Detector::run_scripted)
    /// with the expansion reproduces the distributed run exactly.
    fn oracle(&self, groups: &HostGroups) -> Script;
}

impl FleetScript for DistScript {
    fn agent_down(self, window: u64, agent: usize) -> Self {
        self.at(window, DistAction::AgentDown(agent))
    }

    fn agent_up(self, window: u64, agent: usize) -> Self {
        self.at(window, DistAction::AgentUp(agent))
    }

    fn oracle(&self, groups: &HostGroups) -> Script {
        let servers = |g: &usize| groups.group(*g).iter();
        self.iter()
            .fold(Script::new(), |script, (w, action)| match action {
                DistAction::Topology(ev) => script.topology(w, *ev),
                DistAction::MarkUnhealthy(s) => script.mark_unhealthy(w, *s),
                DistAction::MarkHealthy(s) => script.mark_healthy(w, *s),
                DistAction::AgentDown(g) => servers(g).fold(script, |s, &x| s.mark_unhealthy(w, x)),
                DistAction::AgentUp(g) => servers(g).fold(script, |s, &x| s.mark_healthy(w, x)),
            })
    }
}

/// Why a distributed run failed.
#[derive(Debug)]
pub enum DistError {
    /// A scripted topology event failed to re-plan.
    Replan(PmcError),
    /// An agent violated the wire protocol, or an agent thread panicked.
    Protocol(&'static str),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Replan(e) => write!(f, "scripted re-plan failed: {e}"),
            DistError::Protocol(s) => write!(f, "protocol failure: {s}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<PmcError> for DistError {
    fn from(e: PmcError) -> Self {
        DistError::Replan(e)
    }
}

/// What a distributed run produced, with wire accounting from the
/// loopback byte counters.
#[derive(Debug)]
pub struct DistOutcome {
    /// One result per completed window — identical to the oracle's.
    pub results: Vec<WindowResult>,
    /// Controller → agent bytes carrying pinglist material (initial
    /// sync, per-entry diffs, whole-list replacements, range re-bases,
    /// resyncs). This is the quantity the per-entry diff protocol
    /// minimizes: after the initial sync it grows with the *delta*, not
    /// the fleet.
    pub dispatch_bytes: u64,
    /// Total controller → agent bytes (dispatch + window orchestration +
    /// heartbeats + shutdowns).
    pub control_bytes: u64,
    /// Total agent → controller bytes (hellos, reports, acks).
    pub report_bytes: u64,
}

/// The controller's side of the fleet: one transport slot per host
/// group, `None` = dead. Generic over [`ControlTransport`]: loopback ends
/// for the in-process fleet, [`TcpTransport`](crate::TcpTransport) for
/// real two-process deployments.
struct Fleet<'a> {
    links: Vec<Option<Box<dyn ControlTransport>>>,
    groups: &'a HostGroups,
    /// Wire bytes of pinglist material shipped so far
    /// ([`DistOutcome::dispatch_bytes`]).
    dispatch_bytes: u64,
    /// Bytes moved, in each direction, over transports of incarnations
    /// that were killed or replaced — a crash never loses accounting.
    retired: (u64, u64),
}

/// Completes a connection handshake: the first agent-bound frame must be
/// `Hello`, anything else (or no transport) makes a dead slot.
fn handshake(t: Option<Box<dyn ControlTransport>>) -> Option<Box<dyn ControlTransport>> {
    t.filter(|t| matches!(t.recv(), Ok(Frame::Hello { .. })))
}

impl Fleet<'_> {
    /// Agent `g`'s transport while it is alive.
    fn transport(&self, g: usize) -> Option<&dyn ControlTransport> {
        self.links.get(g)?.as_deref()
    }

    /// Marks agent `g` dead and its whole host group unhealthy (ascending
    /// server order — the blast radius of a rack-local agent daemon).
    fn kill(&mut self, watchdog: &mut Watchdog, g: usize) {
        if let Some(t) = self.links.get_mut(g).and_then(Option::take) {
            self.retired.0 += t.bytes_sent();
            self.retired.1 += t.peer_bytes_sent();
        }
        for &s in self.groups.group(g) {
            watchdog.mark_unhealthy(s);
        }
    }

    /// Sends one frame to agent `g`, returning its wire size; a failed
    /// send means the agent just died — it is killed (group marked
    /// unhealthy) and 0 is returned, as for an agent already dead.
    fn ship(&mut self, watchdog: &mut Watchdog, g: usize, frame: &Frame) -> u64 {
        let Some(t) = self.transport(g) else {
            return 0;
        };
        let before = t.bytes_sent();
        if t.send(frame).is_ok() {
            t.bytes_sent() - before
        } else {
            self.kill(watchdog, g);
            0
        }
    }

    /// [`ship`](Self::ship) for pinglist material: counted as dispatch.
    fn dispatch(&mut self, watchdog: &mut Watchdog, g: usize, frame: Frame) {
        self.dispatch_bytes += self.ship(watchdog, g, &frame);
    }

    /// Ships every list whole to its owner — all of them at boot, only
    /// group `only`'s when that agent is resynced.
    fn sync(&mut self, watchdog: &mut Watchdog, lists: &[Pinglist], only: Option<usize>) {
        for list in lists {
            match self.groups.owner_of(list.pinger) {
                Some(g) if only.is_none_or(|o| o == g) => {
                    self.dispatch(
                        watchdog,
                        g,
                        Frame::ListUpdate(ListUpdate::Replace(list.clone())),
                    );
                }
                _ => {}
            }
        }
    }

    /// The distributed installer: ships each list update of a
    /// deployment as one frame to its owner.
    fn install(&mut self, updates: &[ListUpdate], watchdog: &mut Watchdog) {
        for update in updates {
            if let Some(g) = self.groups.owner_of(update.pinger()) {
                self.dispatch(watchdog, g, Frame::ListUpdate(update.clone()));
            }
        }
    }

    /// The distributed report source: drains each dispatched agent to
    /// its `WindowDone`, checking every `Report` as it arrives and
    /// holding it for `close` to file. An agent dying mid-window forfeits
    /// its reports (dropped before anything saw them) and its racks; it
    /// never stalls the window.
    fn collect(
        &mut self,
        ticket: &mut Ticket,
        watchdog: &mut Watchdog,
        dispatched: &[usize],
    ) -> Result<HashMap<NodeId, PingerReport>, DistError> {
        let mut got: HashMap<NodeId, PingerReport> = HashMap::new();
        for &g in dispatched {
            let Some(t) = self.transport(g) else {
                continue;
            };
            let died = loop {
                match t.recv() {
                    Ok(Frame::Report(r)) => {
                        let violation = if r.window != ticket.window {
                            Some("agent reported for a window that is not open")
                        } else if self.groups.owner_of(r.pinger) != Some(g)
                            || !ticket.expects(r.pinger)
                        {
                            Some("agent reported for a pinger it was not asked to run")
                        } else if got.contains_key(&r.pinger) {
                            Some("agent reported a pinger twice")
                        } else {
                            None
                        };
                        if let Some(why) = violation {
                            return Err(DistError::Protocol(why));
                        }
                        got.insert(r.pinger, r);
                    }
                    Ok(Frame::WindowDone { window, .. }) if window == ticket.window => break false,
                    Ok(_) => {
                        return Err(DistError::Protocol(
                            "agent sent an unexpected frame mid-window",
                        ))
                    }
                    Err(_) => break true,
                }
            };
            if died {
                got.retain(|pinger, _| self.groups.owner_of(*pinger) != Some(g));
                self.kill(watchdog, g);
                ticket.forfeit(self.groups.group(g));
            }
        }
        Ok(got)
    }
}

/// The distributed deTector: the controller/diagnoser tier of a
/// two-tier deployment, driving one [`PingerAgent`](crate::PingerAgent)
/// per host group over the wire protocol.
///
/// It boots the very halves the single-process
/// [`Detector`](detector_system::Detector) does (same controller, first
/// deployment and diagnoser), which is what makes oracle comparisons
/// meaningful.
pub struct DistributedDetector {
    plan: PlanHalf,
    close: CloseHalf,
    /// Server health; exposed for scenario scripting, like
    /// [`Detector::watchdog`](detector_system::Detector).
    pub watchdog: Watchdog,
    groups: HostGroups,
}

impl DistributedDetector {
    /// Builds the controller tier with `agents` host groups (ToR-
    /// contiguous, via [`partition_hosts`]).
    pub fn new(topo: SharedTopology, cfg: SystemConfig, agents: usize) -> Result<Self, BuildError> {
        let groups = partition_hosts(topo.graph(), agents);
        let (plan, close) = window::boot(topo, cfg, &[])?;
        Ok(Self {
            plan,
            close,
            watchdog: Watchdog::new(),
            groups,
        })
    }

    /// Registers an event sink.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.close.add_sink(sink);
    }

    /// The diagnoser: past windows' observations and loss
    /// classification.
    pub fn diagnoser(&self) -> &Diagnoser {
        self.close.diagnoser()
    }

    /// The host-group partition (one group per agent).
    pub fn groups(&self) -> &HostGroups {
        &self.groups
    }

    /// The topology view's current epoch.
    pub fn epoch(&self) -> u64 {
        self.plan.controller().epoch()
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> u64 {
        self.plan.now_s()
    }

    /// The probe matrix currently deployed.
    pub fn matrix(&self) -> &detector_core::pmc::ProbeMatrix {
        &self.plan.deployment().matrix
    }

    /// The pinglists of the current deployment.
    pub fn pinglists(&self) -> &[Pinglist] {
        &self.plan.deployment().pinglists
    }

    /// Runs `windows` windows over a fleet of loopback agents spawned on
    /// scoped threads — shorthand for
    /// [`run_distributed_with_faults`](Self::run_distributed_with_faults)
    /// with reliable transports.
    pub fn run_distributed(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &DistScript,
        rng: &mut SmallRng,
    ) -> Result<DistOutcome, DistError> {
        self.run_distributed_with_faults(dataplane, windows, script, &[], rng)
    }

    /// Runs `windows` windows, injecting transport faults: each `(g, n)`
    /// in `faults` gives agent `g`'s transport a budget of `n` sends
    /// before it dies mid-stream (see
    /// [`flaky_loopback`](crate::flaky_loopback)) — the crash-mid-window
    /// scenario. Agents respawned by [`DistAction::AgentUp`] get
    /// reliable transports.
    pub fn run_distributed_with_faults(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &DistScript,
        faults: &[(usize, usize)],
        rng: &mut SmallRng,
    ) -> Result<DistOutcome, DistError> {
        let topo = self.plan.topo().clone();
        let cfg = self.plan.cfg().clone();

        // The scope re-raises a panicked agent thread's panic when it
        // ends; the run reports it as a `DistError` instead.
        panic::catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| -> Result<DistOutcome, DistError> {
                let spawn_agent = |g: usize, budget: Option<usize>| {
                    let (ctrl_end, agent_end) = match budget {
                        Some(n) => flaky_loopback(n),
                        None => loopback(),
                    };
                    let t = topo.clone();
                    let c = cfg.clone();
                    scope.spawn(move || {
                        PingerAgent::new(g as u32, t, c).serve(&agent_end, dataplane)
                    });
                    Some(Box::new(ctrl_end) as Box<dyn ControlTransport>)
                };

                let mut connect = |g: usize| {
                    let budget = faults.iter().find(|(fg, _)| *fg == g).map(|(_, n)| *n);
                    spawn_agent(g, budget)
                };
                let mut respawn = |g: usize| spawn_agent(g, None);
                self.run_distributed_over(
                    dataplane,
                    windows,
                    script,
                    rng,
                    &mut connect,
                    &mut respawn,
                )
            })
        }))
        .map_err(|_| DistError::Protocol("agent thread panicked"))?
    }

    /// Runs `windows` windows over a fleet reached through
    /// caller-provided transports — the entry point for real
    /// multi-process deployments, where each
    /// [`PingerAgent`](crate::PingerAgent) runs in its own process and
    /// the controller talks to it over a
    /// [`TcpTransport`](crate::TcpTransport).
    ///
    /// `connect` is called once per host group at bootstrap; returning
    /// `None` (or a transport whose handshake fails) starts the slot
    /// dead, degrading its group exactly like a crashed agent. `respawn`
    /// is called for scripted [`DistAction::AgentUp`] slots. The
    /// `dataplane` is only used for the controller-side window hooks —
    /// probes execute against whatever data plane the agent processes
    /// see, which the caller must configure identically for oracle
    /// comparisons.
    ///
    /// Every distributed entry point ends up in this window loop.
    pub fn run_distributed_over(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &DistScript,
        rng: &mut SmallRng,
        connect: &mut dyn FnMut(usize) -> Option<Box<dyn ControlTransport>>,
        respawn: &mut dyn FnMut(usize) -> Option<Box<dyn ControlTransport>>,
    ) -> Result<DistOutcome, DistError> {
        let Self {
            plan,
            close,
            watchdog,
            groups,
        } = self;
        let agents = 0..groups.len();
        let mut fleet = Fleet {
            links: agents.clone().map(|g| handshake(connect(g))).collect(),
            groups,
            dispatch_bytes: 0,
            retired: (0, 0),
        };
        for g in agents.clone() {
            if fleet.transport(g).is_none() {
                fleet.kill(watchdog, g);
            }
        }
        // Initial full sync: every list travels whole, to its owner.
        fleet.sync(watchdog, &plan.deployment().pinglists, None);

        let mut results = Vec::with_capacity(windows as usize);
        for i in 0..windows {
            // Scripted actions, in push order within the window.
            for action in script.due(i) {
                let scripted = match action {
                    DistAction::Topology(ev) => ScriptAction::Topology(*ev),
                    DistAction::MarkUnhealthy(s) => ScriptAction::MarkUnhealthy(*s),
                    DistAction::MarkHealthy(s) => ScriptAction::MarkHealthy(*s),
                    DistAction::AgentDown(g) => {
                        if let Some(t) = fleet.transport(*g) {
                            let _ = t.send(&Frame::Shutdown);
                        }
                        fleet.kill(watchdog, *g);
                        continue;
                    }
                    DistAction::AgentUp(g) => {
                        // Retire whatever incarnation holds the slot; a
                        // respawn that fails its handshake leaves it dead.
                        fleet.kill(watchdog, *g);
                        let Some(slot) = fleet.links.get_mut(*g) else {
                            continue;
                        };
                        *slot = handshake(respawn(*g));
                        if slot.is_none() {
                            continue;
                        }
                        for &s in groups.group(*g) {
                            watchdog.mark_healthy(s);
                        }
                        // Full resync of the group's lists.
                        fleet.dispatch(watchdog, *g, Frame::Reset);
                        fleet.sync(watchdog, &plan.deployment().pinglists, Some(*g));
                        continue;
                    }
                };
                let replanned = plan.apply(watchdog, &scripted, &mut |updates, _, wd| {
                    fleet.install(updates, wd)
                })?;
                if let Some(replanned) = replanned {
                    close.replanned(replanned);
                }
            }

            // Heartbeat sweep: a dead agent — or one that answers with
            // anything but this sweep's nonce — degrades to unhealthy
            // racks *before* this window opens, matching the oracle's
            // MarkUnhealthy placement.
            let nonce = plan.next_window();
            for g in agents.clone() {
                let Some(t) = fleet.transport(g) else {
                    continue;
                };
                let alive = t.send(&Frame::HeartbeatReq { nonce }).is_ok()
                    && matches!(t.recv(), Ok(Frame::HeartbeatAck { nonce: n, .. }) if n == nonce);
                if !alive {
                    fleet.kill(watchdog, g);
                }
            }

            let mut ticket = plan.open(watchdog, dataplane, rng, &mut |updates, _, wd| {
                fleet.install(updates, wd)
            });
            close.header(&mut ticket);

            // The roster is ascending, so this is the sorted skip list.
            let skip: Vec<NodeId> = (ticket.roster().iter())
                .filter(|(_, healthy)| !healthy)
                .map(|(pinger, _)| *pinger)
                .collect();
            let start = Frame::WindowStart {
                window: ticket.window,
                window_seed: ticket.seed,
                skip,
            };
            let mut dispatched: Vec<usize> = Vec::new();
            for g in agents.clone() {
                if fleet.transport(g).is_none() {
                    continue;
                }
                if fleet.ship(watchdog, g, &start) > 0 {
                    dispatched.push(g);
                } else {
                    ticket.forfeit(groups.group(g));
                }
            }

            let mut got = fleet.collect(&mut ticket, watchdog, &dispatched)?;
            let result = close
                .close(ticket, |pinger| got.remove(&pinger), watchdog, dataplane)
                .map_err(|_| DistError::Protocol("no report for a healthy pinger's list"))?;
            results.push(result);
        }

        // Orderly teardown, then the wire accounting.
        for g in agents {
            if let Some(t) = fleet.transport(g) {
                let _ = t.send(&Frame::Shutdown);
            }
        }
        let live = fleet.links.iter().flatten();
        Ok(DistOutcome {
            results,
            dispatch_bytes: fleet.dispatch_bytes,
            control_bytes: fleet.retired.0 + live.clone().map(|t| t.bytes_sent()).sum::<u64>(),
            report_bytes: fleet.retired.1 + live.map(|t| t.peer_bytes_sent()).sum::<u64>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use detector_core::types::LinkId;
    use detector_simnet::{Fabric, LossDiscipline};
    use detector_system::wire::encode_update;
    use detector_system::{CollectingSink, Controller, Detector, IdHeadroom, RuntimeEvent};
    use detector_topology::{DcnTopology, Fattree};
    use rand::SeedableRng;

    use super::*;

    fn config() -> SystemConfig {
        SystemConfig {
            cycle_s: 60,
            ..SystemConfig::default()
        }
    }

    fn normalize(events: Vec<RuntimeEvent>) -> Vec<RuntimeEvent> {
        events.iter().map(RuntimeEvent::normalized).collect()
    }

    /// Runs the sequential oracle and the distributed fleet over the
    /// same scenario, asserting identical window results, (normalized)
    /// event streams and final state.
    fn check_equivalence(
        ft: &Arc<Fattree>,
        fabric: &Fabric<'_>,
        script: &DistScript,
        faults: &[(usize, usize)],
        agents: usize,
        windows: u64,
        seed: u64,
    ) -> DistOutcome {
        let dist_sink = CollectingSink::new();
        let mut dist =
            DistributedDetector::new(ft.clone() as SharedTopology, config(), agents).expect("boot");
        dist.add_sink(Box::new(dist_sink.clone()));
        let mut rng = SmallRng::seed_from_u64(seed);
        let outcome = dist
            .run_distributed_with_faults(fabric, windows, script, faults, &mut rng)
            .expect("distributed run");

        let seq_sink = CollectingSink::new();
        let mut seq = Detector::builder(ft.clone() as SharedTopology)
            .config(config())
            .sink(Box::new(seq_sink.clone()))
            .build()
            .expect("boot oracle");
        let mut rng = SmallRng::seed_from_u64(seed);
        let oracle = script.oracle(dist.groups());
        let seq_results = seq
            .run_scripted(fabric, windows, &oracle, &mut rng)
            .expect("sequential oracle");

        assert_eq!(seq_results, outcome.results, "window results diverge");
        assert_eq!(
            normalize(seq_sink.events()),
            normalize(dist_sink.events()),
            "event streams diverge"
        );
        assert_eq!(seq.now_s(), dist.now_s());
        assert_eq!(seq.epoch(), dist.epoch());
        assert_eq!(seq.matrix().paths, dist.matrix().paths);
        outcome
    }

    #[test]
    fn a_scripted_event_the_re_plan_rejects_fails_the_run_as_replan() {
        // Born degraded, as `DetectorBuilder::offline_links` boots:
        // Fattree(4) plans as two cells of 16 links, a link of each is
        // offline, and the extended-universe cap is the 15 that remain.
        // Restoring one asks for a canonical solve over all 16 — the one
        // re-plan a booted plan can be refused.
        let ft = Arc::new(Fattree::new(4).unwrap());
        let (link, other) = (ft.ea_link(0, 0, 0), ft.ea_link(0, 0, 1));
        let mut cfg = config();
        cfg.pmc.max_extended_elements = 15;
        let (plan, close) =
            window::boot(ft.clone(), cfg, &[link, other]).expect("the degraded plan fits the cap");
        let sink = CollectingSink::new();
        let mut dist = DistributedDetector {
            plan,
            close,
            watchdog: Watchdog::new(),
            groups: partition_hosts(ft.graph(), 2),
        };
        dist.add_sink(Box::new(sink.clone()));
        let fabric = Fabric::quiet(ft.as_ref());
        let script = DistScript::new().topology(2, TopologyEvent::LinkUp { link });
        let mut rng = SmallRng::seed_from_u64(1);
        let err = dist
            .run_distributed(&fabric, 4, &script, &mut rng)
            .expect_err("the restore cannot be planned");
        let too_large = PmcError::UniverseTooLarge {
            required: 16,
            limit: 15,
        };
        assert!(
            matches!(&err, DistError::Replan(e) if *e == too_large),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "scripted re-plan failed: extended universe needs 16 elements, limit is 15"
        );
        // The two windows before the event ran to their diagnosis; the
        // fleet was told to stop, not left waiting for a third.
        let ready = |e: &RuntimeEvent| matches!(e, RuntimeEvent::DiagnosisReady(_));
        assert_eq!(sink.events().iter().filter(|e| ready(e)).count(), 2);
    }

    #[test]
    fn oracle_expands_agent_failures_to_group_marks() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let groups = partition_hosts(ft.graph(), 2);
        let script = DistScript::new().agent_down(1, 1).agent_up(3, 1);
        let oracle = script.oracle(&groups);
        let down: Vec<_> = oracle.due(1).collect();
        assert_eq!(down.len(), groups.group(1).len());
        for (action, &server) in down.iter().zip(groups.group(1)) {
            assert_eq!(**action, ScriptAction::MarkUnhealthy(server));
        }
        let up: Vec<_> = oracle.due(3).collect();
        assert_eq!(up.len(), groups.group(1).len());
        assert!(matches!(up[0], ScriptAction::MarkHealthy(_)));
    }

    #[test]
    fn distributed_equals_sequential_on_a_clean_fabric() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::quiet(ft.as_ref());
        check_equivalence(&ft, &fabric, &DistScript::new(), &[], 2, 3, 7);
    }

    #[test]
    fn distributed_equals_sequential_under_loss_churn_and_agent_failure() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut fabric = Fabric::new(ft.as_ref(), 0xFAB);
        fabric.set_discipline_both(ft.ea_link(0, 0, 0), LossDiscipline::Full);
        fabric.set_discipline_both(
            ft.ea_link(1, 0, 1),
            LossDiscipline::RandomPartial { rate: 0.4 },
        );
        // Window 1: a link dies (incremental re-plan + per-entry diffs).
        // Window 2: agent 1 crashes AND the 60 s cycle refresh fires
        //           with its racks unhealthy. Window 4: it comes back
        //           (resync) right on the next cycle boundary.
        let script = DistScript::new()
            .topology(
                1,
                TopologyEvent::LinkDown {
                    link: ft.ea_link(0, 0, 0),
                },
            )
            .agent_down(2, 1)
            .agent_up(4, 1)
            .mark_unhealthy(3, ft.server(2, 0, 0))
            .mark_healthy(5, ft.server(2, 0, 0));
        let outcome = check_equivalence(&ft, &fabric, &script, &[], 3, 6, 99);
        assert!(outcome.dispatch_bytes > 0);
        assert!(outcome.control_bytes > outcome.dispatch_bytes);
        assert!(outcome.report_bytes > 0);
    }

    #[test]
    fn a_mid_window_transport_crash_degrades_to_unhealthy_racks() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::quiet(ft.as_ref());
        let mut dist =
            DistributedDetector::new(ft.clone() as SharedTopology, config(), 4).expect("boot");
        let victim = 3usize;
        let group: Vec<NodeId> = dist.groups().group(victim).to_vec();
        assert!(!group.is_empty());
        // Budget: Hello + window-0 heartbeat ack + one report, then the
        // transport dies mid-stream — after probing began, before the
        // window completed.
        let sink = CollectingSink::new();
        dist.add_sink(Box::new(sink.clone()));
        let mut rng = SmallRng::seed_from_u64(5);
        let outcome = dist
            .run_distributed_with_faults(&fabric, 2, &DistScript::new(), &[(victim, 3)], &mut rng)
            .expect("run survives the crash");
        assert_eq!(outcome.results.len(), 2);
        // The whole group degraded to unhealthy; its partial window-0
        // report was forfeited, not half-ingested.
        for &s in &group {
            assert!(!dist.watchdog.is_healthy(s));
        }
        let events = sink.events();
        let unhealthy: Vec<NodeId> = events
            .iter()
            .filter_map(|e| match e {
                RuntimeEvent::PingerUnhealthy { window: 0, pinger } => Some(*pinger),
                _ => None,
            })
            .collect();
        for p in &unhealthy {
            assert!(group.contains(p), "only the victim's racks degrade");
        }
        assert!(!unhealthy.is_empty());
        // And the degraded run is exactly the oracle that marked those
        // servers unhealthy before window 0.
        let oracle_script = group
            .iter()
            .fold(Script::new(), |s, &srv| s.mark_unhealthy(0, srv));
        let seq_sink = CollectingSink::new();
        let mut seq = Detector::builder(ft.clone() as SharedTopology)
            .config(config())
            .sink(Box::new(seq_sink.clone()))
            .build()
            .expect("boot oracle");
        let mut rng = SmallRng::seed_from_u64(5);
        let seq_results = seq
            .run_scripted(&fabric, 2, &oracle_script, &mut rng)
            .expect("oracle");
        assert_eq!(seq_results, outcome.results);
        assert_eq!(normalize(seq_sink.events()), normalize(sink.events()));
    }

    #[test]
    fn dispatch_bytes_scale_with_the_delta_not_the_fleet() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::quiet(ft.as_ref());
        // Baseline run: no churn. Its dispatch bytes are the initial
        // full sync alone: every list, whole.
        let mut base =
            DistributedDetector::new(ft.clone() as SharedTopology, config(), 2).expect("boot");
        let mut rng = SmallRng::seed_from_u64(1);
        let baseline = base
            .run_distributed(&fabric, 1, &DistScript::new(), &mut rng)
            .expect("baseline");
        let full_sync: u64 = (base.pinglists().iter())
            .map(|l| encode_update(&ListUpdate::Replace(l.clone())).len() as u64)
            .sum();
        assert_eq!(baseline.dispatch_bytes, full_sync);

        // Churn run: one link down. The extra dispatch bytes are the
        // delta — far below shipping every list again.
        let sink = CollectingSink::new();
        let mut churn =
            DistributedDetector::new(ft.clone() as SharedTopology, config(), 2).expect("boot");
        churn.add_sink(Box::new(sink.clone()));
        let mut rng = SmallRng::seed_from_u64(1);
        let script = DistScript::new().topology(
            0,
            TopologyEvent::LinkDown {
                link: ft.ea_link(0, 0, 0),
            },
        );
        let churned = churn
            .run_distributed(&fabric, 1, &script, &mut rng)
            .expect("churn");
        let delta = churned.dispatch_bytes - baseline.dispatch_bytes;
        assert!(delta > 0, "a re-plan must ship something");
        // The bytes the event reports are the bytes that went out: the
        // default id headroom absorbs the repair, so no range re-base is
        // broadcast (which would be shipped once per agent, counted once).
        let reported: Vec<u64> = (sink.events().iter())
            .filter_map(|e| match e {
                RuntimeEvent::PlanUpdated {
                    bytes_dispatched, ..
                } => Some(*bytes_dispatched),
                _ => None,
            })
            .collect();
        assert_eq!(reported, vec![delta]);
        // Fattree(4) is tiny — one link touches most lists — so only a
        // strict improvement is asserted here; the ≥10× separation is
        // asserted at Fattree(16) scale by
        // `tests/distributed_equivalence.rs`.
        assert!(
            delta < full_sync,
            "per-entry diffs must beat re-shipping the fleet: delta {delta}, full {full_sync}"
        );

        // With no id headroom this link's repair re-bases a cell. The
        // re-base ships nothing of its own, so past the initial sync the
        // agents still receive exactly the bytes the event reports.
        let cfg = SystemConfig {
            id_headroom: IdHeadroom::NONE,
            ..config()
        };
        let down = TopologyEvent::LinkDown { link: LinkId(8) };
        let mut ctl = Controller::new(ft.clone() as SharedTopology, cfg.clone());
        ctl.compute_matrix().expect("plan");
        let replan = ctl.apply_event(&down).expect("re-plan");
        assert!(replan.stats.cells_rebased > 0, "the case must re-base");
        let sink = CollectingSink::new();
        let mut rebased =
            DistributedDetector::new(ft.clone() as SharedTopology, cfg, 2).expect("boot");
        rebased.add_sink(Box::new(sink.clone()));
        let sync: u64 = (rebased.pinglists().iter())
            .map(|l| encode_update(&ListUpdate::Replace(l.clone())).len() as u64)
            .sum();
        let mut rng = SmallRng::seed_from_u64(1);
        let outcome = rebased
            .run_distributed(&fabric, 1, &DistScript::new().topology(0, down), &mut rng)
            .expect("re-base run");
        let reported: u64 = (sink.events().iter())
            .filter_map(|e| match e {
                RuntimeEvent::PlanUpdated {
                    bytes_dispatched, ..
                } => Some(*bytes_dispatched),
                _ => None,
            })
            .sum();
        assert_eq!(outcome.dispatch_bytes - sync, reported);
    }
}
