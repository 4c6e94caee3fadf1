//! `ft16_step`: `Detector::step` over the simulated fabric, one thread.
//!
//! ~54 000 probes a window on Fattree(16): `pinger` and `simnet::Fabric`
//! do nearly all the work and diagnosis sees a single failed link. The
//! single-threaded baseline every other workload is read against.

use std::sync::Arc;

use detector_simnet::Fabric;
use detector_system::{Detector, SharedTopology, SystemConfig};
use detector_topology::Fattree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{Scale, Workload, CYCLE_WINDOWS};
use crate::layers::Seen;
use crate::measure::{check_block, Block, Harness};
use crate::plane::{matrix_links, FailPlane, StampSink};
use crate::traced::{Recomposed, TraceOutcome, TraceRun};

pub struct Session<'a> {
    det: Detector,
    plane: FailPlane<Fabric<'a>>,
    sink: StampSink,
    rng: SmallRng,
    next_window: u64,
}

impl<'a> Session<'a> {
    /// Detector boot (PMC, plan, deployment) → fabric → first window,
    /// which binds every `PingerBatch`. Returns the session and how many
    /// of the first window's diagnoses were wrong.
    pub fn cold_start(topo: &'a SharedTopology, seed: u64, probe_accounts: u64) -> (Self, u64) {
        let sink = StampSink::new();
        let det = Detector::builder(topo.clone())
            .config(SystemConfig::default())
            .sink(Box::new(sink.clone()))
            .build()
            .expect("detector boots");
        let plane = FailPlane::new(
            Fabric::quiet(topo.as_ref()),
            seed,
            matrix_links(det.matrix()),
            probe_accounts,
        );
        let mut s = Self {
            det,
            plane,
            sink,
            rng: SmallRng::seed_from_u64(seed),
            next_window: 0,
        };
        let first = s.windows(1);
        (s, first.failed)
    }

    /// Steps `count` windows and checks each against ground truth.
    pub fn windows(&mut self, count: u64) -> Block {
        for _ in 0..count {
            self.det.step(&self.plane, &mut self.rng);
        }
        let first = self.next_window;
        self.next_window += count;
        check_block(&self.plane, &self.sink, first, count)
    }
}

pub fn topology(scale: Scale) -> SharedTopology {
    let k = match scale {
        Scale::Full => 16,
        Scale::Smoke => 4,
    };
    Arc::new(Fattree::new(k).expect("valid radix"))
}

pub fn run(h: &mut Harness, scale: Scale) {
    h.sessions(|h| {
        let seed = h.session_seed();
        h.cold_starts(|| {
            let topo = topology(scale);
            ((), Session::cold_start(&topo, seed, 0).1)
        });
        let topo = topology(scale);
        let (mut s, _) = Session::cold_start(&topo, seed, 0);
        // The cold start ran window 0; finish its block untimed so every
        // measured block starts on a cycle boundary.
        h.untimed(s.windows(CYCLE_WINDOWS - 1));
        h.blocks(|| s.windows(CYCLE_WINDOWS));
    });
}

/// The traced run: a plain driver pass, one with probe accounts, and the
/// re-composed loop with spans, all over the same windows.
pub fn trace(w: &Workload, seed: u64, scale: Scale) -> TraceOutcome {
    let mut run = TraceRun::start(w);
    let topo = topology(scale);
    let pass = |run: &mut TraceRun, probe_accounts: u64| {
        let (mut s, first_failed) = Session::cold_start(&topo, seed, probe_accounts);
        run.driver_pass(first_failed, |count| s.windows(count))
    };
    let windows = run.windows();
    let untraced = pass(&mut run, 0);
    let accounted = pass(&mut run, windows);

    let cfg = SystemConfig::default();
    let booted = run.boot(&cfg, || topology(scale));
    let plan_size = booted.plan_size();
    let plane = FailPlane::new(
        Fabric::quiet(topo.as_ref()),
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
        threads: 1,
        udp: None,
        agent: None,
    })
}
