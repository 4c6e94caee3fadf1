//! Test-only oracle: the sequential window loop as it was written before
//! the drivers shared the two halves.
//!
//! `apply`, `install_dispatched` and `step` below are the bodies
//! `Detector` carried when `step`, `run_pipelined` and `run_distributed`
//! each spelled the window protocol out for themselves — one thread,
//! events emitted as they happen, reports ingested as they are produced
//! — kept so the equivalence suites (which judge the other drivers
//! against `Detector::run_scripted`) still rest on something that does
//! not share the code under test. The only edit: `replan_micros` is left
//! at zero instead of read off a stopwatch; comparisons normalize it
//! away.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use detector_core::pll::LossClassification;
use detector_core::pmc::{PmcError, ProbeMatrix};
use detector_core::types::{LinkId, NodeId, PathIdRange};
use detector_simnet::{Fabric, LossDiscipline};
use detector_topology::{DcnTopology, Fattree, TopologyEvent};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::SimClock;
use crate::controller::{Controller, Deployment, PlanUpdate};
use crate::dataplane::DataPlane;
use crate::diagnoser::Diagnoser;
use crate::dispatch::{rebase_and_diff, rebase_pairs, DispatchStats};
use crate::events::{CollectingSink, EventSink, RuntimeEvent, WindowResult};
use crate::pinger::{bound_batch, PingerBatch};
use crate::script::{Script, ScriptAction};
use crate::watchdog::Watchdog;
use crate::{Detector, SharedTopology, SystemConfig};

struct Reference {
    topo: SharedTopology,
    cfg: SystemConfig,
    controller: Controller,
    deployment: Deployment,
    diagnoser: Diagnoser,
    watchdog: Watchdog,
    clock: SimClock,
    window: u64,
    sinks: Vec<Box<dyn EventSink>>,
    bound: HashMap<NodeId, Arc<PingerBatch>>,
}

impl Reference {
    fn new(topo: SharedTopology, cfg: SystemConfig, sink: Box<dyn EventSink>) -> Self {
        cfg.validate().expect("valid configuration");
        let mut controller = Controller::new(topo.clone(), cfg.clone());
        let watchdog = Watchdog::new();
        let deployment = controller
            .build_deployment(watchdog.unhealthy_set())
            .expect("first deployment");
        let diagnoser = Diagnoser::new(deployment.matrix.clone(), cfg.pll).with_diag(cfg.diag);
        Reference {
            topo,
            cfg,
            controller,
            deployment,
            diagnoser,
            watchdog,
            clock: SimClock::new(),
            window: 0,
            sinks: vec![sink],
            bound: HashMap::new(),
        }
    }

    fn apply(&mut self, event: &TopologyEvent) -> Result<PlanUpdate, PmcError> {
        let ranges_before = self.controller.probe_plan().map(|p| p.cell_ranges());
        let mut update = self.controller.apply_event(event)?;
        if update.links_changed > 0 {
            let dep = self
                .controller
                .build_deployment(self.watchdog.unhealthy_set())?;
            let ranges_after = self.controller.probe_plan().map(|p| p.cell_ranges());
            let rebases = rebase_pairs(ranges_before.as_deref(), ranges_after.as_deref());
            update.dispatch = self.install_deployment(dep, &rebases);
        }
        update.replan_micros = 0;
        let ev = RuntimeEvent::PlanUpdated(update);
        for s in self.sinks.iter_mut() {
            s.on_event(&ev);
        }
        Ok(update)
    }

    fn install_deployment(
        &mut self,
        dep: Deployment,
        rebases: &[(PathIdRange, PathIdRange)],
    ) -> DispatchStats {
        let (matrix, stats) =
            install_dispatched(&mut self.deployment, &mut self.bound, dep, rebases);
        self.diagnoser.set_matrix(matrix);
        stats
    }

    fn classify_suspect(&self, window: u64, link: LinkId) -> Option<LossClassification> {
        self.diagnoser
            .classify_suspect(window, link, &self.watchdog)
    }

    fn step(&mut self, dataplane: &dyn DataPlane, rng: &mut SmallRng) -> WindowResult {
        let window = self.window;
        let start_s = self.clock.now_s();
        let emit = |ev: RuntimeEvent, sinks: &mut Vec<Box<dyn EventSink>>| {
            for s in sinks.iter_mut() {
                s.on_event(&ev);
            }
        };

        emit(
            RuntimeEvent::WindowStarted { window, start_s },
            &mut self.sinks,
        );
        dataplane.window_started(window, start_s);

        // A multiple of `cycle_s` lies in (the last window's start, this one's].
        if window > 0
            && start_s / self.cfg.cycle_s > (start_s - self.cfg.window_s) / self.cfg.cycle_s
        {
            if let Ok(dep) = self
                .controller
                .build_deployment(self.watchdog.unhealthy_set())
            {
                let (version, num_paths) = (dep.version, dep.matrix.num_paths());
                self.install_deployment(dep, &[]);
                emit(
                    RuntimeEvent::CycleRefreshed {
                        window,
                        version,
                        num_paths,
                    },
                    &mut self.sinks,
                );
            }
        }

        let window_seed: u64 = rng.gen();
        let mut probes_sent = 0u64;
        let graph = self.topo.graph();
        for list in &self.deployment.pinglists {
            if !self.watchdog.is_healthy(list.pinger) {
                emit(
                    RuntimeEvent::PingerUnhealthy {
                        window,
                        pinger: list.pinger,
                    },
                    &mut self.sinks,
                );
                continue;
            }
            let batch = bound_batch(&mut self.bound, list, graph);
            let report = batch.run_window(dataplane, &self.cfg, window, window_seed);
            let sent = report.total_sent();
            probes_sent += sent;
            emit(
                RuntimeEvent::ReportIngested {
                    window,
                    pinger: list.pinger,
                    probes_sent: sent,
                    num_paths: report.paths.len(),
                },
                &mut self.sinks,
            );
            self.diagnoser.ingest(report);
        }

        let event = self.diagnoser.diagnose(window, &self.watchdog);
        self.clock.advance_s(self.cfg.window_s);
        self.window += 1;
        self.diagnoser.prune_before(window.saturating_sub(20));

        emit(
            RuntimeEvent::WindowCounters {
                window,
                reports: event.reports,
                lossy_paths: event.lossy_paths,
                components: event.components,
                components_solved: event.components_solved,
            },
            &mut self.sinks,
        );
        let result = WindowResult {
            window,
            start_s,
            probes_sent,
            num_observations: event.num_observations,
            diagnosis: event.diagnosis,
        };
        emit(
            RuntimeEvent::DiagnosisReady(result.clone()),
            &mut self.sinks,
        );
        dataplane.window_finished(window, self.clock.now_s());
        result
    }

    fn run_scripted(
        &mut self,
        dataplane: &dyn DataPlane,
        windows: u64,
        script: &Script,
        rng: &mut SmallRng,
    ) -> Result<Vec<WindowResult>, PmcError> {
        let mut out = Vec::with_capacity(windows as usize);
        for i in 0..windows {
            for action in script.due(i) {
                match action {
                    ScriptAction::Topology(ev) => {
                        self.apply(ev)?;
                    }
                    ScriptAction::MarkUnhealthy(s) => self.watchdog.mark_unhealthy(*s),
                    ScriptAction::MarkHealthy(s) => self.watchdog.mark_healthy(*s),
                }
            }
            out.push(self.step(dataplane, rng));
        }
        Ok(out)
    }
}

fn install_dispatched(
    deployment: &mut Deployment,
    bound: &mut HashMap<NodeId, Arc<PingerBatch>>,
    mut dep: Deployment,
    rebases: &[(PathIdRange, PathIdRange)],
) -> (ProbeMatrix, DispatchStats) {
    let (_, stats) = rebase_and_diff(deployment, &mut dep, rebases);
    *deployment = dep;
    let active: HashSet<NodeId> = deployment.pinglists.iter().map(|l| l.pinger).collect();
    bound.retain(|k, _| active.contains(k));
    (deployment.matrix.clone(), stats)
}

/// Two 30-second windows a cycle: a six-window run refreshes at windows
/// 2 and 4.
fn config() -> SystemConfig {
    SystemConfig {
        cycle_s: 60,
        ..SystemConfig::default()
    }
}

const WINDOWS: u64 = 6;

fn decode_action(ft: &Fattree, kind: u8, target: u16) -> ScriptAction {
    let link = LinkId(u32::from(target) % ft.probe_links() as u32);
    let t = u32::from(target);
    let (k, half) = (ft.k(), ft.half());
    let server = ft.server(t % k, (t / k) % half, (t / (k * half)) % half);
    match kind % 4 {
        0 => ScriptAction::Topology(TopologyEvent::LinkDown { link }),
        1 => ScriptAction::Topology(TopologyEvent::LinkUp { link }),
        2 => ScriptAction::MarkUnhealthy(server),
        _ => ScriptAction::MarkHealthy(server),
    }
}

fn decode_failure(ft: &Fattree, link: u16, kind: u8, level: u8) -> (LinkId, LossDiscipline) {
    let l = LinkId(u32::from(link) % ft.probe_links() as u32);
    let discipline = match kind % 3 {
        0 => LossDiscipline::Full,
        1 => LossDiscipline::RandomPartial {
            rate: 0.1 + f64::from(level % 8) / 10.0,
        },
        _ => LossDiscipline::DeterministicPartial {
            fraction: 0.2 + f64::from(level % 6) / 10.0,
            salt: u64::from(level),
        },
    };
    (l, discipline)
}

fn normalize(events: Vec<RuntimeEvent>) -> Vec<RuntimeEvent> {
    events.iter().map(RuntimeEvent::normalized).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Detector::run_scripted` — open, run inline, close — is the
    /// pre-refactor loop: same results, same totally ordered event
    /// stream, same final state, and the same answers about past
    /// windows, under loss, churn, health marks and two cycle refreshes.
    #[test]
    fn run_scripted_equals_the_reference_loop(
        failures in proptest::collection::vec((0u16..64, 0u8..3, 0u8..8), 1..4),
        raw_script in proptest::collection::vec((0u8..6, 0u8..4, 0u16..64), 0..8),
        seed in 0u64..1_000,
    ) {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut fabric = Fabric::new(ft.as_ref(), seed ^ 0xFAB);
        let mut failed = Vec::new();
        for &(link, kind, level) in &failures {
            let (l, d) = decode_failure(&ft, link, kind, level);
            fabric.set_discipline_both(l, d);
            failed.push(l);
        }
        let script = raw_script.iter().fold(Script::new(), |s, &(window, kind, target)| {
            s.at(u64::from(window) % WINDOWS, decode_action(&ft, kind, target))
        });

        let old_sink = CollectingSink::new();
        let mut old = Reference::new(ft.clone(), config(), Box::new(old_sink.clone()));
        let mut rng = SmallRng::seed_from_u64(seed);
        let old_results = old.run_scripted(&fabric, WINDOWS, &script, &mut rng).unwrap();

        let new_sink = CollectingSink::new();
        let mut new = Detector::builder(ft.clone())
            .config(config())
            .sink(Box::new(new_sink.clone()))
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let new_results = new.run_scripted(&fabric, WINDOWS, &script, &mut rng).unwrap();

        prop_assert_eq!(&old_results, &new_results);
        prop_assert_eq!(normalize(old_sink.events()), normalize(new_sink.events()));
        prop_assert_eq!(old.clock.now_s(), new.now_s());
        prop_assert_eq!(old.controller.epoch(), new.epoch());
        prop_assert_eq!(&old.deployment.matrix.paths, &new.matrix().paths);
        prop_assert_eq!(&old.deployment.pinglists, &new.pinglists().to_vec());
        // History: both keep the same past windows' raw reports.
        for w in 0..WINDOWS {
            for &l in &failed {
                prop_assert_eq!(old.classify_suspect(w, l), new.classify_suspect(w, l));
            }
        }
    }
}
