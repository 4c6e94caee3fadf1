//! The pipelined scheduler: overlapping probe, collection and diagnosis
//! stages across windows.
//!
//! The paper's controller runs its 30-second windows strictly in
//! sequence — probe, collect, diagnose, repeat. At production scale the
//! three stages are independent for *different* windows: window N+1's
//! probes can transmit while window N's reports are still being
//! diagnosed. [`Detector::run_pipelined`] exploits exactly that. It is
//! the **pipelined schedule** of the one window protocol (the
//! [`window`](crate::window) module): the plan half runs on the calling
//! thread, the close half on a collector thread, and a window's
//! [`Ticket`] crosses between them on a channel while its batches cross
//! a pool of probe workers:
//!
//! ```text
//!             ┌────────────────────┐   WindowMeta
//!  script ──▶ │  dispatch stage    │ ───────────────────────────────┐
//!  (churn,    │  (caller thread)   │   BatchJob (last one flagged)  │
//!   health)   │  plan half: apply, │ ──────────────┐                ▼
//!             │  take slot, open   │               ▼        ┌──────────────┐
//!             └────────────────────┘      ┌──────────────┐  │ diagnosis    │
//!                ▲          ▲             │ probe stage  │  │ stage        │
//!                │          └── ready ─── │ (N workers,  │  │ (1 thread)   │
//!                │     (last batch taken) │ PingerBatch) │─▶│ close half:  │
//!                │                        └──────────────┘  │ header,      │
//!                │                          report          │ close        │
//!                │                                          └──────┬───────┘
//!                └──────────── slot back (depth slots) ────────────┘
//! ```
//!
//! * The **dispatch stage** (the calling thread) walks windows in order:
//!   it applies the window's scripted [`ScriptAction`](crate::ScriptAction)s
//!   and opens the window through the plan half — so re-plans, cycle
//!   refreshes and the seed draw land exactly where sequential
//!   [`Detector::step`] puts them — and ships one [`PingerBatch`] job per
//!   roster pinger expected to report.
//! * The **probe stage** is a pool of workers pulling batch jobs from a
//!   shared channel; each runs a server's whole pinglist for the window
//!   with its own RNG stream ([`batch_seed`](crate::batch_seed)) and posts the report.
//! * The **diagnosis stage** announces each window, assembles its
//!   reports (stashing early arrivals from younger windows), and closes
//!   it through the close half.
//!
//! **Admission.** A window opens only when the probe stage can start on
//! it, and two things decide when that is:
//!
//! * *Slots.* [`PipelineConfig::depth`] bounds the windows opened and
//!   not yet closed: the dispatcher takes one of `depth` slots right
//!   before it opens a window and the diagnosis stage gives it back after
//!   closing it, so a slow diagnosis stage back-pressures the dispatcher
//!   instead of letting probes run unboundedly ahead. The meta channel
//!   itself is unbounded; the slots bound it.
//! * *The gate.* A window's last batch job is flagged, and the worker
//!   that takes it signals the dispatcher before running it. The
//!   dispatcher applies window N+1's actions and opens it only after
//!   that signal, so N+1's batches queue behind N's tail rather than
//!   behind all of N: the workers never starve, and a window is not
//!   opened (and its clock started) long before any worker can probe it.
//!   A window with no batches does not wait.
//!
//! Every failure keeps one exit: a dead diagnosis stage fails the slot
//! (or meta) `send`, a probe stage with no worker left fails the gate's
//! `recv`, and a panicking batch surfaces as [`PipelineError::Stage`].
//!
//! **Thread orchestration** comes in three shapes across `crates/`, and
//! this is the first: the probe-worker channel above, which carries
//! batches only. The planner's subproblem and cell solves fan out on
//! `JobPool::run_indexed`, the second; the agent tier's in-process
//! agents, one thread each serving a loopback transport, are the third.
//! Diagnosis takes none of them: `Diagnoser::diagnose` solves a window's
//! components one after another on the thread that closes it.
//!
//! **Equivalence.** The pipelined run produces *exactly* the event
//! stream and [`WindowResult`]s of driving [`Detector::step`] over the
//! same script (the sequential oracle, [`Detector::run_scripted`]):
//! both are schedules of the same two halves, per-server probe outcomes
//! are a pure function of the window's master seed
//! ([`batch_seed`](crate::batch_seed)), the diagnosis stage judges each
//! window under the watchdog as of its dispatch, and all events are
//! emitted from one thread in window order. The only permitted
//! difference is the wall-clock `replan_micros` field of `PlanUpdated`.
//! This is property-tested in `tests/scheduler_equivalence.rs`.
//!
//! One precondition: the *timing* of the [`DataPlane`] window hooks
//! differs. The dispatcher fires `window_started(N+1)` while window N's
//! batches may still be probing (that is the overlap), and
//! `window_finished` fires from the diagnosis stage. A data plane whose
//! hooks mutate probe behavior — e.g. `tests/scheduler_soak.rs`'s
//! `ChurnFabric`, which applies fabric churn in `window_started` — is
//! therefore **outside** the equivalence guarantee at depth > 1: probes
//! of an in-flight window can observe a younger window's fabric state.
//! Equivalence holds for any data plane whose probe outcomes are a pure
//! function of `(route, flow, rng)` between hook calls, which includes
//! the plain `Fabric`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crossbeam::channel;
use detector_core::pmc::PmcError;
use detector_core::types::NodeId;
use rand::rngs::SmallRng;

use crate::dataplane::DataPlane;
use crate::events::WindowResult;
use crate::pinger::PingerBatch;
use crate::report::PingerReport;
use crate::runtime::{batches, prune_bindings, Detector};
use crate::script::Script;
use crate::watchdog::Watchdog;
use crate::window::{Replanned, Ticket};

/// Shape of the pipeline: how wide the probe stage fans out and how many
/// windows may be in flight at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Worker threads in the probe stage (each runs whole
    /// [`PingerBatch`]es). Clamped to ≥ 1.
    pub probe_workers: usize,
    /// Maximum windows in flight: windows opened and not yet closed.
    /// 1 degenerates to lock-step; ≥ 2 overlaps window N's diagnosis
    /// with window N+1's probing. Clamped to ≥ 1.
    pub depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self {
            probe_workers: cores.clamp(1, 8),
            depth: 2,
        }
    }
}

/// Why a pipelined run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// A scripted topology event failed to re-plan; windows dispatched
    /// before the failure were completed and their events emitted, but
    /// the run's results are discarded.
    Replan(PmcError),
    /// A pipeline stage panicked or disconnected unexpectedly.
    Stage(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Replan(e) => write!(f, "scripted re-plan failed: {e}"),
            PipelineError::Stage(s) => write!(f, "pipeline stage failure: {s}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PmcError> for PipelineError {
    fn from(e: PmcError) -> Self {
        PipelineError::Replan(e)
    }
}

/// One probe-stage work item: a server's batch for one window.
struct BatchJob {
    window: u64,
    /// The window's master seed; the batch derives its own stream from
    /// it ([`batch_seed`](crate::batch_seed)), exactly as sequential `step` does.
    window_seed: u64,
    batch: Arc<PingerBatch>,
    /// The window's last batch: the worker that takes it lets the
    /// dispatcher open the next window.
    last: bool,
}

/// What the dispatcher hands the diagnosis stage, in window order.
struct WindowMeta {
    /// The re-plans applied before the window (their `PlanUpdated`s
    /// precede its `WindowStarted`).
    replanned: Vec<Replanned>,
    /// The open window and the watchdog as of its dispatch — what the
    /// window is diagnosed under, exactly like sequential `step`. `None`
    /// in the trailing record sent when a scripted re-plan fails: the
    /// actions before the failing one did apply, and sequential `apply`
    /// would have announced each before erroring.
    window: Option<(Ticket, Watchdog)>,
}

impl Detector {
    /// Runs `windows` windows through the pipelined scheduler: probe
    /// dispatch, report collection and diagnosis overlap across windows
    /// (dispatch / probe-worker / diagnosis stages; the `scheduler`
    /// module source documents the layout), while the
    /// emitted event stream and returned [`WindowResult`]s are identical
    /// to [`run_scripted`](Detector::run_scripted) over the same inputs
    /// — up to the wall-clock `replan_micros` field of `PlanUpdated`.
    ///
    /// The data plane must be `Sync`: probe-stage workers share it. The
    /// simulated `Fabric` qualifies ([`probe`](DataPlane::probe) takes
    /// `&self`).
    ///
    /// The [`DataPlane`] *window hooks* fire at pipeline timing; a plane
    /// that changes its probe behavior from them is outside the
    /// guarantee at depth > 1 (see the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use detector_simnet::Fabric;
    /// use detector_system::{Detector, PipelineConfig, Script, SystemConfig};
    /// use detector_topology::Fattree;
    /// use rand::SeedableRng;
    ///
    /// let ft = Arc::new(Fattree::new(4).unwrap());
    /// let mut run = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
    /// let fabric = Fabric::quiet(ft.as_ref());
    /// let mut rng = <rand::rngs::SmallRng as SeedableRng>::seed_from_u64(1);
    /// let results = run
    ///     .run_pipelined(&fabric, 3, &Script::new(), &PipelineConfig::default(), &mut rng)
    ///     .unwrap();
    /// assert_eq!(results.len(), 3);
    /// assert!(results.iter().all(|w| w.diagnosis.suspects.is_empty()));
    /// ```
    pub fn run_pipelined(
        &mut self,
        dataplane: &(dyn DataPlane + Sync),
        windows: u64,
        script: &Script,
        pipeline: &PipelineConfig,
        rng: &mut SmallRng,
    ) -> Result<Vec<WindowResult>, PipelineError> {
        if windows == 0 {
            return Ok(Vec::new());
        }
        let workers = pipeline.probe_workers.max(1);
        let depth = pipeline.depth.max(1);

        // Disjoint field borrows: the dispatcher (this thread) owns the
        // plan half and the watchdog, the diagnosis stage the close half.
        let Detector {
            plan,
            close,
            watchdog,
            bound,
        } = self;

        let (job_tx, job_rx) = channel::unbounded::<BatchJob>();
        let (done_tx, done_rx) = channel::unbounded::<Option<PingerReport>>();
        // The slots are the pipeline-depth regulator: the dispatcher
        // takes one before each open and blocks once `depth` windows are
        // open; the diagnosis stage gives it back after the close.
        let (slot_tx, slot_rx) = channel::bounded::<()>(depth);
        let (meta_tx, meta_rx) = channel::unbounded::<WindowMeta>();
        // The gate: a worker taking a window's last batch says so here.
        let (ready_tx, ready_rx) = channel::unbounded::<()>();

        // The probe workers read the configuration while the dispatcher
        // mutates the plan half that owns it.
        let cfg = &plan.cfg().clone();
        let mut dispatch_err: Option<PmcError> = None;

        let run = crossbeam::thread::scope(|scope| {
            // Probe stage.
            for _ in 0..workers {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                let ready_tx = ready_tx.clone();
                scope.spawn(move |_| {
                    while let Ok(job) = job_rx.recv() {
                        if job.last {
                            // Before the batch runs: the next window's
                            // batches land while this one's tail probes.
                            let _ = ready_tx.send(());
                        }
                        // A panicking DataPlane must not strand the
                        // diagnosis stage waiting for a completion that
                        // will never come (the other workers would keep
                        // done_rx connected): catch it and let the
                        // collector surface a PipelineError::Stage
                        // instead.
                        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            job.batch
                                .run_window(dataplane, cfg, job.window, job.window_seed)
                        }))
                        .ok();
                        let panicked = report.is_none();
                        if done_tx.send(report).is_err() || panicked {
                            break; // Diagnosis stage gone, or this worker is compromised.
                        }
                    }
                });
            }
            // Keep disconnect tracking on the worker clones only.
            drop(job_rx);
            drop(done_tx);
            drop(ready_tx);

            // Diagnosis stage.
            let collector = scope.spawn(move |_| -> Result<Vec<WindowResult>, PipelineError> {
                let mut results = Vec::new();
                // Reports that arrived before their window's meta.
                let mut stash: HashMap<u64, HashMap<NodeId, PingerReport>> = HashMap::new();
                for meta in meta_rx.iter() {
                    for replanned in meta.replanned {
                        close.replanned(replanned);
                    }
                    let Some((mut ticket, watchdog)) = meta.window else {
                        continue;
                    };
                    close.header(&mut ticket);

                    let expected = ticket.roster().iter().filter(|(_, h)| *h).count();
                    let mut have = stash.remove(&ticket.window).unwrap_or_default();
                    while have.len() < expected {
                        let Ok(done) = done_rx.recv() else {
                            return Err(PipelineError::Stage(
                                "probe stage disconnected mid-window",
                            ));
                        };
                        // `None`: the batch panicked (e.g. a
                        // `DataPlane::probe` blew up); its report will
                        // never come.
                        let Some(report) = done else {
                            return Err(PipelineError::Stage(
                                "probe worker panicked while probing",
                            ));
                        };
                        // A younger window's report may outrun this
                        // window's stragglers.
                        let of_window = if report.window == ticket.window {
                            &mut have
                        } else {
                            stash.entry(report.window).or_default()
                        };
                        of_window.insert(report.pinger, report);
                    }
                    let result = close
                        .close(ticket, |pinger| have.remove(&pinger), &watchdog, dataplane)
                        .map_err(|_| {
                            PipelineError::Stage("probe stage omitted a healthy pinger's report")
                        })?;
                    // The window's slot, taken before its open; never
                    // blocks.
                    let _ = slot_rx.try_recv();
                    results.push(result);
                }
                Ok(results)
            });

            // Dispatch stage (this thread).
            for i in 0..windows {
                let mut replanned = Vec::new();
                for action in script.due(i) {
                    match plan.apply(watchdog, action, &mut prune_bindings(bound)) {
                        Ok(r) => replanned.extend(r),
                        Err(e) => {
                            dispatch_err = Some(e);
                            break;
                        }
                    }
                }
                if dispatch_err.is_some() {
                    if !replanned.is_empty() {
                        let _ = meta_tx.send(WindowMeta {
                            replanned,
                            window: None,
                        });
                    }
                    break;
                }

                if slot_tx.send(()).is_err() {
                    break; // Diagnosis stage is gone; surface its error below.
                }
                let ticket = plan.open(watchdog, dataplane, rng, &mut prune_bindings(bound));
                let mut jobs: Vec<BatchJob> = batches(plan, &ticket, bound)
                    .map(|batch| BatchJob {
                        window: ticket.window,
                        window_seed: ticket.seed,
                        batch,
                        last: false,
                    })
                    .collect();
                if let Some(job) = jobs.last_mut() {
                    job.last = true;
                }
                let gated = !jobs.is_empty();
                let meta = WindowMeta {
                    replanned,
                    window: Some((ticket, watchdog.clone())),
                };
                if meta_tx.send(meta).is_err() {
                    break;
                }
                for job in jobs {
                    if job_tx.send(job).is_err() {
                        break;
                    }
                }
                // The next window opens once a worker has taken this one's
                // last batch; no worker left fails the wait.
                if gated && ready_rx.recv().is_err() {
                    break;
                }
            }

            // End of input: disconnect the stages and drain.
            drop(meta_tx);
            drop(job_tx);
            match collector.join() {
                Ok(r) => r,
                Err(_) => Err(PipelineError::Stage("diagnosis stage panicked")),
            }
        })
        .map_err(|_| PipelineError::Stage("probe worker panicked"))?;

        match dispatch_err {
            Some(e) => Err(PipelineError::Replan(e)),
            None => run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CollectingSink, RuntimeEvent};
    use crate::SystemConfig;
    use detector_simnet::{Fabric, LossDiscipline};
    use detector_topology::{Fattree, TopologyEvent};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn detector(ft: &Arc<Fattree>, sink: Option<CollectingSink>) -> Detector {
        let mut b = Detector::builder(ft.clone());
        if let Some(s) = sink {
            b = b.sink(Box::new(s));
        }
        b.build().unwrap()
    }

    /// Normalizes a stream for cross-execution comparison.
    fn normalize(events: Vec<RuntimeEvent>) -> Vec<RuntimeEvent> {
        events.iter().map(RuntimeEvent::normalized).collect()
    }

    #[test]
    fn pipelined_matches_sequential_on_a_lossy_fabric() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut fabric = Fabric::new(ft.as_ref(), 11);
        fabric.set_discipline_both(
            ft.ac_link(1, 0, 0),
            LossDiscipline::RandomPartial { rate: 0.4 },
        );
        let script = Script::new()
            .topology(
                1,
                TopologyEvent::LinkDown {
                    link: ft.ea_link(0, 0, 0),
                },
            )
            .mark_unhealthy(2, ft.server(2, 0, 0))
            .topology(
                3,
                TopologyEvent::LinkUp {
                    link: ft.ea_link(0, 0, 0),
                },
            )
            .mark_healthy(4, ft.server(2, 0, 0));

        let seq_sink = CollectingSink::new();
        let mut seq = detector(&ft, Some(seq_sink.clone()));
        let mut rng = SmallRng::seed_from_u64(99);
        let seq_results = seq.run_scripted(&fabric, 5, &script, &mut rng).unwrap();

        let pipe_sink = CollectingSink::new();
        let mut pipe = detector(&ft, Some(pipe_sink.clone()));
        let mut rng = SmallRng::seed_from_u64(99);
        let pipe_results = pipe
            .run_pipelined(&fabric, 5, &script, &PipelineConfig::default(), &mut rng)
            .unwrap();

        assert_eq!(seq_results, pipe_results);
        assert_eq!(normalize(seq_sink.events()), normalize(pipe_sink.events()));
        // Both runs leave the detector in the same externally visible
        // state.
        assert_eq!(seq.now_s(), pipe.now_s());
        assert_eq!(seq.epoch(), pipe.epoch());
        assert_eq!(seq.matrix().paths, pipe.matrix().paths);
    }

    #[test]
    fn a_scripted_event_the_re_plan_rejects_fails_the_run_as_replan() {
        // Born degraded: Fattree(4) plans as two cells of 16 links, and
        // this one boots with a link of each offline under an
        // extended-universe cap the remaining 15 just meet. Restoring
        // either link asks for a canonical solve over all 16 — the one
        // re-plan a booted plan can be refused.
        let ft = Arc::new(Fattree::new(4).unwrap());
        let (link, other) = (ft.ea_link(0, 0, 0), ft.ea_link(0, 0, 1));
        let mut cfg = SystemConfig::default();
        cfg.pmc.max_extended_elements = 15;
        let sink = CollectingSink::new();
        let mut run = Detector::builder(ft.clone())
            .config(cfg)
            .offline_links([link, other])
            .sink(Box::new(sink.clone()))
            .build()
            .expect("the degraded plan fits the cap");
        let fabric = Fabric::quiet(ft.as_ref());
        let script = Script::new().topology(2, TopologyEvent::LinkUp { link });
        let mut rng = SmallRng::seed_from_u64(1);
        let err = run
            .run_pipelined(&fabric, 4, &script, &PipelineConfig::default(), &mut rng)
            .expect_err("the restore cannot be planned");
        let too_large = PmcError::UniverseTooLarge {
            required: 16,
            limit: 15,
        };
        assert!(
            matches!(&err, PipelineError::Replan(e) if *e == too_large),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "scripted re-plan failed: extended universe needs 16 elements, limit is 15"
        );
        // The windows dispatched before the event were completed and
        // announced; nothing after it was.
        let finished = |e: &RuntimeEvent| matches!(e, RuntimeEvent::DiagnosisReady(_));
        assert_eq!(sink.events().iter().filter(|e| finished(e)).count(), 2);
    }

    #[test]
    fn depth_one_pipeline_still_matches() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::new(ft.as_ref(), 3);
        let mut seq = detector(&ft, None);
        let mut rng = SmallRng::seed_from_u64(5);
        let a = seq
            .run_scripted(&fabric, 3, &Script::new(), &mut rng)
            .unwrap();

        let mut pipe = detector(&ft, None);
        let mut rng = SmallRng::seed_from_u64(5);
        let cfgp = PipelineConfig {
            probe_workers: 1,
            depth: 1,
        };
        let b = pipe
            .run_pipelined(&fabric, 3, &Script::new(), &cfgp, &mut rng)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_run_is_a_noop() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::quiet(ft.as_ref());
        let mut run = detector(&ft, None);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = run
            .run_pipelined(
                &fabric,
                0,
                &Script::new(),
                &PipelineConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(run.now_s(), 0);
    }

    #[test]
    fn panicking_data_plane_errors_instead_of_hanging() {
        // A DataPlane::probe that blows up must surface as a
        // PipelineError::Stage; before the catch_unwind in the probe
        // worker this deadlocked the diagnosis stage (the surviving
        // workers kept the done channel connected while the panicked
        // batch's report never arrived).
        struct PanickingPlane;
        impl crate::DataPlane for PanickingPlane {
            fn probe(
                &self,
                _route: &detector_topology::Route,
                _flow: detector_simnet::FlowKey,
                _rng: &mut SmallRng,
            ) -> crate::ProbeOutcome {
                panic!("probe backend blew up");
            }
        }

        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut run = detector(&ft, None);
        let mut rng = SmallRng::seed_from_u64(2);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // Silence expected worker panics.
        let res = run.run_pipelined(
            &PanickingPlane,
            3,
            &Script::new(),
            &PipelineConfig {
                probe_workers: 3,
                depth: 2,
            },
            &mut rng,
        );
        std::panic::set_hook(prev_hook);
        match res {
            Err(PipelineError::Stage(_)) => {}
            other => panic!("expected a stage error, got {other:?}"),
        }
    }

    #[test]
    fn a_panic_in_a_windows_last_batch_errors_instead_of_hanging() {
        // The worker taking a window's last batch signals the dispatcher
        // before running it, so the dispatcher goes on to open the next
        // window while that batch panics. The run must still end as a
        // stage error, at every pool width and depth.
        struct PanicsInLastBatch {
            pinger: NodeId,
        }
        impl crate::DataPlane for PanicsInLastBatch {
            fn probe(
                &self,
                _route: &detector_topology::Route,
                _flow: detector_simnet::FlowKey,
                _rng: &mut SmallRng,
            ) -> crate::ProbeOutcome {
                crate::ProbeOutcome {
                    delivered: true,
                    rtt_us: 50.0,
                }
            }

            fn probe_tagged(
                &self,
                tag: crate::ProbeTag,
                route: &detector_topology::Route,
                flow: detector_simnet::FlowKey,
                rng: &mut SmallRng,
            ) -> crate::ProbeOutcome {
                // Window 0 completes; window 1 dies in its last batch.
                if tag.window == 1 && flow.src == self.pinger.0 {
                    panic!("probe backend blew up");
                }
                self.probe(route, flow, rng)
            }
        }

        let ft = Arc::new(Fattree::new(4).unwrap());
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // Silence expected worker panics.
        let mut outcomes = Vec::new();
        for (probe_workers, depth) in [(1, 1), (2, 2), (4, 3)] {
            let mut run = detector(&ft, None);
            // Batches ship in pinglist order: the last list is the last batch.
            let pinger = run.pinglists().last().expect("a planned fabric").pinger;
            let mut rng = SmallRng::seed_from_u64(3);
            let pipeline = PipelineConfig {
                probe_workers,
                depth,
            };
            let res = run.run_pipelined(
                &PanicsInLastBatch { pinger },
                4,
                &Script::new(),
                &pipeline,
                &mut rng,
            );
            outcomes.push((pipeline, res));
        }
        std::panic::set_hook(prev_hook);
        for (pipeline, res) in outcomes {
            assert!(
                matches!(res, Err(PipelineError::Stage(_))),
                "{pipeline:?}: expected a stage error, got {res:?}"
            );
        }
    }
}
