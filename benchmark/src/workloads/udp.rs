//! `ft8_udp_pipelined`: `run_pipelined` over real UDP datagrams.
//!
//! Fattree(8) at 1 probe/s/pinger is ~1 700 datagrams a window through
//! the kernel's loopback stack (the host loopback, not a link): syscalls,
//! wake-ups and wire wait dominate, which is where scheduler overlap and
//! any UDP batching show — and where a `pinger`/`Fabric` CPU win must
//! not.

use std::sync::Arc;

use detector_system::{
    Detector, HostClock, PipelineConfig, ProbeClock, Script, SharedTopology, SystemConfig,
    UdpConfig, UdpDataPlane, UdpHarness,
};
use detector_topology::Fattree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{Scale, Workload, CYCLE_WINDOWS};
use crate::layers::Seen;
use crate::measure::{check_block, Block, Harness};
use crate::plane::{matrix_links, FailPlane, StampSink};
use crate::traced::{Recomposed, TraceOutcome, TraceRun};

/// Two probe workers, two windows in flight, two responders and one recv
/// loop: the load shape the issue fixed (`probe_workers = 2`, one socket,
/// 2 responders). How many CPUs they share is `host::confine`'s call.
pub const PIPELINE: PipelineConfig = PipelineConfig {
    probe_workers: 2,
    depth: 2,
};
const RESPONDERS: usize = 2;

pub fn config() -> SystemConfig {
    SystemConfig::default().with_rate(1.0)
}

/// Responder threads on 127.0.0.1 and one probe socket talking to them.
/// No `LossShim`: the `FailPlane` drops before the socket is touched.
fn loopback(cfg: &SystemConfig) -> (UdpHarness, UdpDataPlane) {
    let clock: Arc<dyn ProbeClock> = Arc::new(HostClock::new());
    let harness = UdpHarness::spawn(RESPONDERS, cfg.dport, clock).expect("spawn responders");
    let udp = UdpConfig {
        sockets: 1,
        ..UdpConfig::default()
    };
    let plane = harness.dataplane(&udp, None).expect("bind probe socket");
    (harness, plane)
}

pub struct Session {
    det: Detector,
    // Dropped before the harness whose responders it talks to.
    plane: FailPlane<UdpDataPlane>,
    _harness: UdpHarness,
    sink: StampSink,
    rng: SmallRng,
    next_window: u64,
}

impl Session {
    /// Detector boot → responder threads and probe socket → first
    /// pipelined window.
    pub fn cold_start(topo: SharedTopology, seed: u64, probe_accounts: u64) -> (Self, u64) {
        let cfg = config();
        let sink = StampSink::new();
        let det = Detector::builder(topo)
            .config(cfg.clone())
            .sink(Box::new(sink.clone()))
            .build()
            .expect("detector boots");
        let (harness, inner) = loopback(&cfg);
        let plane = FailPlane::new(inner, seed, matrix_links(det.matrix()), probe_accounts);
        let mut s = Self {
            det,
            plane,
            _harness: harness,
            sink,
            rng: SmallRng::seed_from_u64(seed),
            next_window: 0,
        };
        let first = s.windows(1);
        (s, first.failed)
    }

    /// One `run_pipelined` call of `count` windows, checked.
    pub fn windows(&mut self, count: u64) -> Block {
        let run =
            self.det
                .run_pipelined(&self.plane, count, &Script::new(), &PIPELINE, &mut self.rng);
        let first = self.next_window;
        self.next_window += count;
        let block = check_block(&self.plane, &self.sink, first, count);
        if run.is_err() {
            return Block::all_failed(count);
        }
        block
    }
}

pub fn topology(scale: Scale) -> SharedTopology {
    let k = match scale {
        Scale::Full => 8,
        Scale::Smoke => 4,
    };
    Arc::new(Fattree::new(k).expect("valid radix"))
}

pub fn run(h: &mut Harness, scale: Scale) {
    h.sessions(|h| {
        let seed = h.session_seed();
        // The session is handed back so its teardown (joining socket
        // threads that poll every 20 ms) happens after the clock stopped.
        h.cold_starts(|| Session::cold_start(topology(scale), seed, 0));
        let (mut s, _) = Session::cold_start(topology(scale), seed, 0);
        h.untimed(s.windows(CYCLE_WINDOWS - 1));
        h.blocks(|| s.windows(CYCLE_WINDOWS));
    });
}

/// The traced run: a plain `run_pipelined` pass, one with probe accounts
/// (scheduler latencies, socket counters), and the re-composed
/// sequential loop with spans over a socket pair of its own.
pub fn trace(w: &Workload, seed: u64, scale: Scale) -> TraceOutcome {
    let mut run = TraceRun::start(w);
    let mut udp = None;
    let mut pass = |run: &mut TraceRun, probe_accounts: u64| {
        let (mut s, first_failed) = Session::cold_start(topology(scale), seed, probe_accounts);
        let pass = run.driver_pass(first_failed, |count| s.windows(count));
        udp = Some(s.plane.inner().stats());
        pass
    };
    let windows = run.windows();
    let untraced = pass(&mut run, 0);
    let accounted = pass(&mut run, windows);

    let cfg = config();
    let booted = run.boot(&cfg, || topology(scale));
    let plan_size = booted.plan_size();
    let (_harness, inner) = loopback(&cfg);
    let plane = FailPlane::new(
        inner,
        seed,
        matrix_links(&booted.deployment.matrix),
        windows,
    );
    let mut rec = Recomposed::new(booted, cfg, &plane, seed, false);
    let recomposed = run.recomposed_pass(&mut rec, |_, _| Vec::new());
    run.conclude(Seen {
        counts: &rec.diag.counts,
        plan_size,
        untraced: &untraced,
        accounted: Some(&accounted),
        recomposed,
        threads: PIPELINE.probe_workers,
        udp,
        agent: None,
    })
}
