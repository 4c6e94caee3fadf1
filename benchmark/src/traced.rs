//! The traced run's own window loop: the same windows as the drivers,
//! re-composed from the layers' public functions, with a span around
//! every call into a layer.
//!
//! The drivers (`step`, `run_pipelined`, `run_distributed`) are closed
//! boxes from outside, so attribution cannot come from them until the
//! system grows spans of its own. Until then [`Recomposed`] performs, in
//! one thread and in the drivers' exact order, what they perform per
//! window — scripted re-plans, cycle refresh, bind, probe, (wire codec),
//! ingest, diagnose — and the traced run checks that its diagnoses equal
//! the driver's. [`DiagTwin`] additionally feeds a twin `IngestPlane`
//! the same entries to split `Diagnoser::diagnose` into seal, prefilter
//! and localize.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::Instant;

use detector_agent::Frame;
use detector_core::pll::{localize, PllConfig};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, NodeId, PathIdRange};
use detector_ingest::{prefilter, IngestPlane};
use detector_system::dispatch::{rebase_and_diff, rebase_pairs};
use detector_system::{
    Controller, DataPlane, Deployment, Diagnoser, DiagnosisEvent, PingerBatch, PingerReport,
    SharedTopology, SystemConfig, TopologyEvent, Watchdog,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib::Calibrator;
use crate::host::StealMeter;
use crate::layers::{per_layer, DriverPass, HostState, Named, Seen};
use crate::measure::Block;
use crate::plane::FailPlane;
use crate::trace::{Tracer, TWIN, WINDOW};
use crate::workloads::Workload;

/// Blocks per pass of a traced run — fixed, so that counts repeat
/// exactly from run to run.
pub const BLOCKS: u64 = 8;

/// Sums of the per-window counts the layers report.
#[derive(Debug, Default)]
pub struct Counts {
    pub windows: u64,
    pub probes_sent: u64,
    pub reports: u64,
    pub frame_bytes: u64,
    pub ingest_entries: u64,
    pub shard_contention: u64,
    pub observed_paths: u64,
    pub kept_paths: u64,
    pub lossy_paths: u64,
    pub components: u64,
    pub suspects: u64,
    pub plan_events: u64,
    pub cells_resolved: u64,
    pub lists_redispatched: u64,
    pub entries_diffed: u64,
    pub dispatch_bytes: u64,
}

/// Per-report calls of one window, summed: nanoseconds and call count.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallSum {
    ns: u64,
    calls: u64,
}

impl CallSum {
    /// Runs `f` and adds its duration.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Records the sum as one child span of `parent` and resets it.
    pub fn flush(&mut self, tr: &mut Tracer, parent: usize, name: &'static str) {
        if self.calls > 0 {
            tr.sum_child(parent, name, self.ns, self.calls);
        }
        *self = Self::default();
    }
}

/// A `Diagnoser` and its twin: the diagnoser is called exactly as the
/// drivers call it; the twin plane folds the same entries so that seal,
/// prefilter and localize can be timed one by one.
pub struct DiagTwin {
    diagnoser: Diagnoser,
    twin: IngestPlane,
    watchdog: Watchdog,
    pll: PllConfig,
    ingest: CallSum,
    twin_fold: CallSum,
    pub counts: Counts,
}

impl DiagTwin {
    pub fn new(diagnoser: Diagnoser, pll: PllConfig) -> Self {
        let twin = IngestPlane::for_paths(diagnoser.matrix().num_paths());
        Self {
            diagnoser,
            twin,
            watchdog: Watchdog::new(),
            pll,
            ingest: CallSum::default(),
            twin_fold: CallSum::default(),
            counts: Counts::default(),
        }
    }

    /// Installs a new matrix in the diagnoser and sizes the twin for it.
    pub fn set_matrix(&mut self, matrix: ProbeMatrix) {
        self.twin = IngestPlane::for_paths(matrix.num_paths());
        self.diagnoser.set_matrix(matrix);
    }

    /// `Diagnoser::ingest`, plus the twin's fold of the same entries;
    /// both are summed per window and recorded by
    /// [`diagnose`](Self::diagnose).
    pub fn ingest(&mut self, report: PingerReport) {
        self.counts.reports += 1;
        self.counts.ingest_entries += report.paths.len() as u64;
        self.twin_fold.time(|| {
            self.twin.fold(
                report.window,
                report.paths.iter().map(|(p, c)| (*p, c.sent, c.lost)),
            )
        });
        self.ingest.time(|| self.diagnoser.ingest(report));
    }

    /// Closes window `w` under its root span: `Diagnoser::diagnose` +
    /// `prune_before` as the drivers call them, then seal → prefilter →
    /// localize on the twin.
    pub fn diagnose(&mut self, tr: &mut Tracer, root: usize, w: u64) -> DiagnosisEvent {
        self.ingest.flush(tr, root, "ingest.ingest");
        self.twin_fold.flush(tr, root, "twin.fold");
        let (event, _) = tr.time("diagnoser.diagnose", w, || {
            self.diagnoser.diagnose(w, &self.watchdog)
        });
        tr.time("diagnoser.prune_before", w, || {
            self.diagnoser.prune_before(w.saturating_sub(20))
        });

        let twin = tr.enter(TWIN, w);
        let (sealed, _) = tr.time("ingest.seal", w, || self.twin.seal(w));
        let matrix = self.diagnoser.matrix();
        let k = self.twin.config().topk;
        let (kept, _) = tr.time("prefilter.prefilter", w, || {
            prefilter(matrix, &sealed.observations, k)
        });
        let (twin_diagnosis, _) = tr.time("pll.localize", w, || {
            localize(matrix, &kept.observations, &self.pll)
        });
        tr.exit(twin);
        assert_eq!(
            twin_diagnosis.suspect_links(),
            event.diagnosis.suspect_links(),
            "twin and diagnoser disagree in window {w}"
        );

        let c = &mut self.counts;
        c.windows += 1;
        c.shard_contention += event.shard_contention;
        c.observed_paths += sealed.observations.len() as u64;
        c.kept_paths += kept.observations.len() as u64;
        c.lossy_paths += event.lossy_paths;
        c.components += event.components;
        c.suspects += event.diagnosis.suspects.len() as u64;
        event
    }
}

/// A booted controller tier, with its boot traced.
pub struct Boot {
    pub topo: SharedTopology,
    pub controller: Controller,
    pub deployment: Deployment,
}

impl Boot {
    /// Paths and pinglists of the first deployment.
    pub fn plan_size(&self) -> (usize, usize) {
        (
            self.deployment.matrix.num_paths(),
            self.deployment.pinglists.len(),
        )
    }
}

/// The drivers' window, re-composed from public layer calls.
pub struct Recomposed<'p, P> {
    cfg: SystemConfig,
    topo: SharedTopology,
    controller: Controller,
    deployment: Deployment,
    bound: HashMap<NodeId, PingerBatch>,
    pub diag: DiagTwin,
    plane: &'p FailPlane<P>,
    rng: SmallRng,
    window: u64,
    /// Push every report through `Frame::encode`/`decode`, as the agent
    /// wire does.
    wire: bool,
}

impl<'p, P: DataPlane> Recomposed<'p, P> {
    pub fn new(
        boot: Boot,
        cfg: SystemConfig,
        plane: &'p FailPlane<P>,
        seed: u64,
        wire: bool,
    ) -> Self {
        let diagnoser = Diagnoser::new(boot.deployment.matrix.clone(), cfg.pll).with_diag(cfg.diag);
        Self {
            diag: DiagTwin::new(diagnoser, cfg.pll),
            cfg,
            topo: boot.topo,
            controller: boot.controller,
            deployment: boot.deployment,
            bound: HashMap::new(),
            plane,
            rng: SmallRng::seed_from_u64(seed),
            window: 0,
            wire,
        }
    }

    /// Installs `dep` the way every driver does (`rebase_and_diff`, prune
    /// bindings, hand the matrix to the diagnoser) and accounts the
    /// dispatch.
    fn install(
        &mut self,
        tr: &mut Tracer,
        mut dep: Deployment,
        rebases: &[(PathIdRange, PathIdRange)],
        count: bool,
    ) {
        let w = self.window;
        let ((_, stats), _) = tr.time("dispatch.rebase_and_diff", w, || {
            rebase_and_diff(&self.deployment, &mut dep, rebases)
        });
        if count {
            let c = &mut self.diag.counts;
            c.lists_redispatched += stats.lists_redispatched as u64;
            c.entries_diffed += stats.entries_diffed as u64;
            c.dispatch_bytes += stats.bytes_dispatched;
        }
        self.deployment = dep;
        let active: HashSet<NodeId> = self.deployment.pinglists.iter().map(|l| l.pinger).collect();
        self.bound.retain(|k, _| active.contains(k));
        self.diag.set_matrix(self.deployment.matrix.clone());
    }

    /// `Detector::apply`, traced: incremental re-plan, then dispatch.
    fn apply(&mut self, tr: &mut Tracer, event: &TopologyEvent) {
        let w = self.window;
        let name = match event {
            TopologyEvent::LinkDown { .. } => "planner.replan_down",
            _ => "planner.replan_up",
        };
        let span = tr.enter(name, w);
        let before = self.controller.probe_plan().map(|p| p.cell_ranges());
        let update = self.controller.apply_event(event).expect("re-plan");
        let dep = (update.links_changed > 0).then(|| {
            self.controller
                .build_deployment(&HashSet::new())
                .expect("deployment builds")
        });
        tr.exit(span);
        self.diag.counts.plan_events += 1;
        self.diag.counts.cells_resolved += update.stats.cells_resolved as u64;
        if let Some(dep) = dep {
            let after = self.controller.probe_plan().map(|p| p.cell_ranges());
            let rebases = rebase_pairs(before.as_deref(), after.as_deref());
            self.install(tr, dep, &rebases, true);
        }
    }

    /// One window: `events` first (the script's actions due before it),
    /// then exactly `Detector::step`. Returns the window's suspects.
    pub fn window(&mut self, tr: &mut Tracer, events: &[TopologyEvent]) -> Vec<LinkId> {
        let w = self.window;
        let start_s = w * self.cfg.window_s;
        let root = tr.enter(WINDOW, w);
        for event in events {
            self.apply(tr, event);
        }
        self.plane.window_started(w, start_s);
        if w > 0 && start_s.is_multiple_of(self.cfg.cycle_s) {
            let (dep, _) = tr.time("planner.cycle_refresh", w, || {
                self.controller
                    .build_deployment(&HashSet::new())
                    .expect("deployment builds")
            });
            self.install(tr, dep, &[], false);
        }

        let window_seed: u64 = self.rng.gen();
        let graph = self.topo.graph();
        let (mut encode, mut decode) = (CallSum::default(), CallSum::default());
        for list in &self.deployment.pinglists {
            let rebind = self
                .bound
                .get(&list.pinger)
                .is_none_or(|b| !b.bound_to(list));
            if rebind {
                let (batch, _) =
                    tr.time("pinger.bind", w, || PingerBatch::bind(list.clone(), graph));
                self.bound.insert(list.pinger, batch);
            }
            let batch = &self.bound[&list.pinger];

            let probe_account = |plane: &FailPlane<P>| {
                plane.accum(w).map_or((0, 0), |a| {
                    (
                        a.inner_ns.load(Ordering::Relaxed),
                        a.probes.load(Ordering::Relaxed),
                    )
                })
            };
            let (ns_before, probes_before) = probe_account(self.plane);
            let span = tr.enter("pinger.run_window", w);
            let mut report = batch.run_window(self.plane, &self.cfg, w, window_seed);
            tr.exit(span);
            let (ns, probes) = probe_account(self.plane);
            tr.sum_child(
                span,
                "dataplane.probe_tagged",
                ns - ns_before,
                probes - probes_before,
            );
            self.diag.counts.probes_sent += report.total_sent();

            if self.wire {
                let bytes = encode.time(|| Frame::Report(report).encode());
                self.diag.counts.frame_bytes += bytes.len() as u64;
                let Ok(Frame::Report(r)) = decode.time(|| Frame::decode(&bytes)) else {
                    panic!("a report frame did not survive its own codec");
                };
                report = r;
            }
            self.diag.ingest(report);
        }
        encode.flush(tr, root, "frame.encode");
        decode.flush(tr, root, "frame.decode");
        let event = self.diag.diagnose(tr, root, w);
        self.plane.window_finished(w, start_s + self.cfg.window_s);
        tr.exit(root);
        self.window += 1;
        event.diagnosis.suspect_links()
    }
}

/// The `(first window, count)` of every driver call of a traced pass:
/// the cold start's window, the rest of its block, then [`BLOCKS`] whole
/// blocks — the same calls a measured run makes.
pub fn segments(block: u64) -> Vec<(u64, u64)> {
    let mut calls = vec![(0, 1), (1, block - 1)];
    calls.extend((1..=BLOCKS).map(|b| (b * block, block)));
    calls
}

/// The result of one traced run.
pub struct TraceOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every per-layer metric, by name.
    pub metrics: Named,
    /// What else the record keeps: each layer's share of a window, the
    /// traced and untraced window times.
    pub diagnostics: Named,
    /// The spans of the re-composed loop.
    pub tracer: Tracer,
}

/// What every traced run carries from its first pass to its result.
pub struct TraceRun {
    pub calib: Calibrator,
    pub tr: Tracer,
    steal: StealMeter,
    block: u64,
    host_exp: f64,
}

impl TraceRun {
    pub fn start(w: &Workload) -> Self {
        Self {
            calib: Calibrator::new(),
            tr: Tracer::new(),
            steal: StealMeter::start(),
            block: w.block,
            host_exp: w.host_exp,
        }
    }

    /// Windows every pass covers.
    pub fn windows(&self) -> u64 {
        (BLOCKS + 1) * self.block
    }

    /// The driver calls after a cold start (whose window failed
    /// `first_failed` times): the rest of the first block untimed, then
    /// [`BLOCKS`] timed blocks.
    pub fn driver_pass(
        &mut self,
        first_failed: u64,
        mut windows: impl FnMut(u64) -> Block,
    ) -> DriverPass {
        self.calib.sample();
        let mut pass = DriverPass {
            head_failed: first_failed + windows(self.block - 1).failed,
            ..DriverPass::default()
        };
        for _ in 0..BLOCKS {
            let t0 = Instant::now();
            let b = windows(self.block);
            pass.wall_ms += t0.elapsed().as_secs_f64() * 1e3;
            pass.blocks.push(b);
        }
        pass
    }

    /// Topology → controller → first deployment, each under its span.
    pub fn boot(&mut self, cfg: &SystemConfig, topology: impl FnOnce() -> SharedTopology) -> Boot {
        let (topo, _) = self.tr.time("topology.build", 0, topology);
        let ((controller, deployment), _) = self.tr.time("planner.build", 0, || {
            let mut controller = Controller::new(topo.clone(), cfg.clone());
            let deployment = controller
                .build_deployment(&HashSet::new())
                .expect("deployment builds");
            (controller, deployment)
        });
        Boot {
            topo,
            controller,
            deployment,
        }
    }

    /// Runs the re-composed loop over the windows of a whole pass,
    /// sampling the calibration kernel between driver-call-sized
    /// segments; returns every window's suspects and how many missed
    /// ground truth. `script(first, count)` is the churn of one driver
    /// call, as `(relative window, event)`.
    pub fn recomposed_pass<P: DataPlane>(
        &mut self,
        rec: &mut Recomposed<P>,
        script: impl Fn(u64, u64) -> Vec<(u64, TopologyEvent)>,
    ) -> (Vec<Vec<LinkId>>, u64) {
        let mut suspects = Vec::new();
        let mut missed = 0;
        for (first, count) in segments(self.block) {
            let events = script(first, count);
            for rel in 0..count {
                let due: Vec<TopologyEvent> = events
                    .iter()
                    .filter(|(w, _)| *w == rel)
                    .map(|(_, ev)| *ev)
                    .collect();
                let found = rec.window(&mut self.tr, &due);
                missed += u64::from(found != [rec.plane.failed_link(first + rel)]);
                suspects.push(found);
            }
            self.calib.sample();
        }
        (suspects, missed)
    }

    /// Compares the passes window by window and derives the per-layer
    /// metrics.
    pub fn conclude(self, seen: Seen) -> TraceOutcome {
        let (recomposed, missed) = &seen.recomposed;
        let passes: Vec<&DriverPass> = [Some(seen.untraced), seen.accounted]
            .into_iter()
            .flatten()
            .collect();
        let mut failed = *missed;
        for pass in &passes {
            // Timed windows on which the pass and the re-composed loop
            // disagree.
            let timed = &recomposed[self.block as usize..];
            failed +=
                pass.failed() + pass.suspects().zip(timed).filter(|(a, b)| a != b).count() as u64;
        }
        let host = HostState {
            calib_reps_ms: self.calib.reps_ms(),
            host_exp: self.host_exp,
            steal_ratio: self.steal.ratio(),
        };
        let (metrics, diagnostics) = per_layer(&self.tr, &host, &seen);
        TraceOutcome {
            attempted: self.windows() * (passes.len() as u64 + 1),
            failed,
            metrics,
            diagnostics,
            tracer: self.tr,
        }
    }
}
