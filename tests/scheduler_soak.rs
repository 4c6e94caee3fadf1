//! Soak/stress test for the pipelined scheduler: a long churny run that
//! must complete without deadlock, without losing events, and with
//! strictly monotone window ids.
//!
//! The full soak (`soak_200_windows_fattree8`, `#[ignore]`-gated) drives
//! 200 pipelined windows on Fattree(8) under a rolling [`ChurnSchedule`]
//! whose events hit both the probe plan (scripted through the
//! incremental re-planner) and the live fabric (applied inside the data
//! plane's `window_started` hook behind an `RwLock`, concurrently with
//! in-flight probe batches). The fast mode (`soak_fast_mode`) runs the
//! same machinery at CI scale — Fattree(4), 48 windows — in the normal
//! test job.
//!
//! `depth_bounds_windows_in_flight` and its loopback-UDP twin
//! `depth_bounds_windows_in_flight_udp` pin the admission contract:
//! across depths and pool widths, no window opens while `depth` others
//! are open and not yet closed. Neither asserts any timing.
//!
//! Run the full soak with:
//! `cargo test --release --test scheduler_soak -- --ignored`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use detector::prelude::*;
use detector::simnet::ChurnSchedule;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A fabric that applies its churn schedule inside the data-plane
/// `window_started` hook — so fabric state changes land mid-pipeline,
/// while older windows' probe batches are still in flight.
struct ChurnFabric<'a> {
    inner: RwLock<Fabric<'a>>,
    schedule: ChurnSchedule,
}

impl DataPlane for ChurnFabric<'_> {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut rand::rngs::SmallRng) -> ProbeOutcome {
        let fabric = self.inner.read().expect("fabric lock");
        let rt = fabric.round_trip(route, flow, rng);
        ProbeOutcome {
            delivered: rt.success,
            rtt_us: rt.rtt_us,
        }
    }

    fn window_started(&self, window: u64, _start_s: u64) {
        let mut fabric = self.inner.write().expect("fabric lock");
        for ev in self.schedule.due(window) {
            ChurnSchedule::apply_to_fabric(&mut fabric, ev);
        }
    }
}

/// A rolling drain/recover schedule: every `period` windows another
/// link goes down for half a period, cycling through the given victims.
fn rolling_churn(victims: &[LinkId], windows: u64, period: u64) -> ChurnSchedule {
    let mut schedule = ChurnSchedule::new();
    let mut v = 0usize;
    let mut w = period;
    while w + period / 2 < windows {
        let link = victims[v % victims.len()];
        schedule = schedule
            .at(w, TopologyEvent::LinkDown { link })
            .at(w + period / 2, TopologyEvent::LinkUp { link });
        v += 1;
        w += period;
    }
    schedule
}

/// The soak body: runs `windows` pipelined windows on `ft` under the
/// given churn, then checks completion, monotonicity and event
/// integrity.
fn soak(ft: Arc<Fattree>, windows: u64, churn: ChurnSchedule, pipeline: PipelineConfig) {
    // Plan-side churn: the same schedule scripted through the
    // incremental re-planner.
    let script = Script::from_topology_events(churn.events().iter().map(|e| (e.window, e.event)));
    // Fabric-side churn: applied concurrently from the window_started
    // hook.
    let dataplane = ChurnFabric {
        inner: RwLock::new(Fabric::new(ft.as_ref(), 0x50AC)),
        schedule: churn,
    };

    let collector = CollectingSink::new();
    let mut run = Detector::builder(ft.clone() as SharedTopology)
        .config(SystemConfig {
            // Refresh cycles fire every 4 windows, exercising the
            // refresh path under load.
            cycle_s: 120,
            ..SystemConfig::default()
        })
        .sink(Box::new(collector.clone()))
        .build()
        .expect("boot");
    let mut rng = SmallRng::seed_from_u64(0x50AC);

    let results = run
        .run_pipelined(&dataplane, windows, &script, &pipeline, &mut rng)
        .expect("pipelined soak run");

    assert_soak_integrity(&results, &collector.events(), windows, script.len());
}

/// The soak assertions: completion, monotone ids, event-stream
/// integrity, and plan-update accounting — shared by the simulated and
/// UDP soak arms.
fn assert_soak_integrity(
    results: &[WindowResult],
    events: &[RuntimeEvent],
    windows: u64,
    scripted_changes: usize,
) {
    // Completion: every window produced a result (no deadlock — the
    // test finishing at all is the deadlock assertion — and no window
    // dropped).
    assert_eq!(results.len() as u64, windows);

    // Monotone window ids, consistent clocks, probes actually sent.
    for (i, w) in results.iter().enumerate() {
        assert_eq!(w.window, i as u64, "window ids must be dense and ordered");
        assert_eq!(w.start_s, i as u64 * 30, "window start times must stack");
        assert!(w.probes_sent > 0, "window {i} sent no probes");
    }

    // Event integrity: per window exactly one WindowStarted and one
    // DiagnosisReady, in order, with every intermediate event belonging
    // to the window that is currently open (no event loss, no
    // interleaving across windows).
    let mut open: Option<u64> = None;
    let mut next_window = 0u64;
    let mut diagnoses = 0u64;
    for e in events {
        match e {
            RuntimeEvent::WindowStarted { window, .. } => {
                assert_eq!(open, None, "window {window} opened inside another");
                assert_eq!(*window, next_window, "windows must open in order");
                open = Some(*window);
            }
            RuntimeEvent::DiagnosisReady(res) => {
                assert_eq!(open, Some(res.window), "diagnosis for a window not open");
                open = None;
                next_window += 1;
                diagnoses += 1;
            }
            RuntimeEvent::CycleRefreshed { window, .. }
            | RuntimeEvent::ReportIngested { window, .. }
            | RuntimeEvent::WindowCounters { window, .. }
            | RuntimeEvent::PingerUnhealthy { window, .. } => {
                assert_eq!(open, Some(*window), "intermediate event outside its window");
            }
            RuntimeEvent::PlanUpdated(_) => {
                assert_eq!(open, None, "plan updates land between windows");
            }
        }
    }
    assert_eq!(open, None, "a window was left open at the end of the run");
    assert_eq!(diagnoses, windows, "every window must reach diagnosis");

    // Every scripted plan change surfaced in the stream.
    let plan_updates = events
        .iter()
        .filter(|e| matches!(e, RuntimeEvent::PlanUpdated(_)))
        .count();
    assert_eq!(
        plan_updates, scripted_changes,
        "a PlanUpdated event was lost"
    );
}

/// CI-scale fast mode: same machinery, smaller fabric and fewer windows.
#[test]
fn soak_fast_mode() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let victims = vec![
        ft.ea_link(0, 0, 0),
        ft.ac_link(1, 0, 1),
        ft.ea_link(2, 1, 0),
    ];
    let windows = 48;
    soak(
        ft,
        windows,
        rolling_churn(&victims, windows, 8),
        PipelineConfig {
            probe_workers: 4,
            depth: 3,
        },
    );
}

/// The soak body over real sockets: plan-side churn scripted through
/// the re-planner while every probe crosses the kernel loopback stack
/// as an actual datagram, with deterministic injected loss at the
/// harness boundary. Fabric-side churn does not apply (there is no
/// fabric); the wire contributes real RTTs, real echo threads and the
/// retry machinery instead.
fn soak_udp(
    ft: Arc<Fattree>,
    windows: u64,
    churn: ChurnSchedule,
    pipeline: PipelineConfig,
    drop_per_mille: u16,
) {
    let script = Script::from_topology_events(churn.events().iter().map(|e| (e.window, e.event)));
    let cfg = SystemConfig {
        cycle_s: 120,
        probe_rate_pps: 0.2, // 6 probes per pinger-window keeps CI fast.
        ..SystemConfig::default()
    };
    let clock = Arc::new(HostClock::new());
    let harness = UdpHarness::spawn(4, cfg.dport, clock).expect("harness");
    let dataplane = harness
        .dataplane(
            &UdpConfig::default(),
            Some(LossShim::new(0x50AC, drop_per_mille)),
        )
        .expect("udp plane");

    let collector = CollectingSink::new();
    let mut run = Detector::builder(ft.clone() as SharedTopology)
        .config(cfg)
        .sink(Box::new(collector.clone()))
        .build()
        .expect("boot");
    let mut rng = SmallRng::seed_from_u64(0x50AC);

    let results = run
        .run_pipelined(&dataplane, windows, &script, &pipeline, &mut rng)
        .expect("pipelined UDP soak run");

    assert_soak_integrity(&results, &collector.events(), windows, script.len());

    // The soak really rode the wire: deliveries, shim drops, echoes.
    let stats = dataplane.stats();
    assert!(stats.delivered > 0, "no probe crossed the loopback");
    assert!(stats.shim_dropped > 0, "the loss shim never fired");
    assert_eq!(
        stats.kernel_stamped + stats.mono_stamped,
        stats.delivered,
        "every delivery must be stamped exactly once"
    );
    assert!(harness.stats().echoed > 0);
    assert_eq!(harness.stats().corrupt, 0, "loopback corrupted a probe");
}

/// CI-scale UDP soak: the fast-mode scenario over real sockets.
#[test]
fn udp_soak_fast_mode() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let victims = vec![
        ft.ea_link(0, 0, 0),
        ft.ac_link(1, 0, 1),
        ft.ea_link(2, 1, 0),
    ];
    let windows = 48;
    soak_udp(
        ft,
        windows,
        rolling_churn(&victims, windows, 8),
        PipelineConfig {
            probe_workers: 4,
            depth: 3,
        },
        150,
    );
}

/// A data plane that counts the windows opened and not yet closed
/// (`window_started` − `window_finished`) and keeps the most it saw at
/// an open.
struct InFlight<P> {
    inner: P,
    open: AtomicU64,
    peak: AtomicU64,
}

impl<P> InFlight<P> {
    fn new(inner: P) -> Self {
        Self {
            inner,
            open: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }
}

impl<P: DataPlane> DataPlane for InFlight<P> {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        self.inner.probe(route, flow, rng)
    }

    fn probe_tagged(
        &self,
        tag: ProbeTag,
        route: &Route,
        flow: FlowKey,
        rng: &mut SmallRng,
    ) -> ProbeOutcome {
        self.inner.probe_tagged(tag, route, flow, rng)
    }

    fn window_started(&self, window: u64, start_s: u64) {
        let open = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(open, Ordering::SeqCst);
        self.inner.window_started(window, start_s);
    }

    fn window_finished(&self, window: u64, end_s: u64) {
        self.inner.window_finished(window, end_s);
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs `windows` pipelined windows over `plane` for every depth in
/// {1, 2, 3} × probe workers in {1, 2, 4}, and checks that no window
/// opened while `depth` others were open and not yet closed.
fn assert_depth_bounds_windows_in_flight<P: DataPlane + Sync>(
    plane: &InFlight<P>,
    cfg: &SystemConfig,
    windows: u64,
) {
    let ft = Arc::new(Fattree::new(4).unwrap());
    for depth in 1..=3 {
        for probe_workers in [1, 2, 4] {
            let pipeline = PipelineConfig {
                probe_workers,
                depth,
            };
            plane.peak.store(0, Ordering::SeqCst);
            let mut run = Detector::builder(ft.clone() as SharedTopology)
                .config(cfg.clone())
                .build()
                .expect("boot");
            let mut rng = SmallRng::seed_from_u64(0xDE97);
            let results = run
                .run_pipelined(plane, windows, &Script::new(), &pipeline, &mut rng)
                .expect("pipelined run");
            assert_eq!(results.len() as u64, windows, "{pipeline:?}");
            assert_eq!(plane.open.load(Ordering::SeqCst), 0, "{pipeline:?}");
            let peak = plane.peak.load(Ordering::SeqCst);
            assert!(
                (1..=depth as u64).contains(&peak),
                "{pipeline:?}: {peak} windows in flight at an open"
            );
        }
    }
}

#[test]
fn depth_bounds_windows_in_flight() {
    let ft = Fattree::new(4).unwrap();
    let plane = InFlight::new(Fabric::new(&ft, 0xDE97));
    assert_depth_bounds_windows_in_flight(&plane, &SystemConfig::default(), 8);
}

/// The same bound over real sockets, where probes wait on the wire.
#[test]
fn depth_bounds_windows_in_flight_udp() {
    let cfg = SystemConfig {
        probe_rate_pps: 0.2, // 6 probes per pinger-window keeps CI fast.
        ..SystemConfig::default()
    };
    let harness = UdpHarness::spawn(2, cfg.dport, Arc::new(HostClock::new())).expect("harness");
    let udp = harness
        .dataplane(&UdpConfig::default(), None)
        .expect("udp plane");
    assert_depth_bounds_windows_in_flight(&InFlight::new(udp), &cfg, 6);
}

/// The full 200-window soak on Fattree(8).
#[test]
#[ignore = "long soak; run with --ignored (CI runs it in the scheduler smoke job)"]
fn soak_200_windows_fattree8() {
    let ft = Arc::new(Fattree::new(8).unwrap());
    let victims = vec![
        ft.ea_link(0, 0, 0),
        ft.ac_link(3, 1, 2),
        ft.ea_link(5, 2, 1),
        ft.ac_link(7, 0, 3),
        ft.ea_link(2, 3, 0),
    ];
    let windows = 200;
    soak(
        ft,
        windows,
        rolling_churn(&victims, windows, 10),
        PipelineConfig {
            probe_workers: 6,
            depth: 4,
        },
    );
}
