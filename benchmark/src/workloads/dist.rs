//! `vl2_dist_churn`: `run_distributed` over two loopback agents while
//! links go down and come back.
//!
//! On VL2(20, 12, 2) one link-down re-plan costs an order of magnitude
//! more than a window of probing, so the incremental `planner` re-solve
//! and the per-entry dispatch diffs are most of the time; fleet
//! bootstrap, the frame codec and the report wire ride along. The only
//! workload where `planner`/`dispatch` work — none of the others moves
//! when they change.

use std::sync::Arc;
use std::time::Instant;

use detector_agent::{DistScript, DistributedDetector};
use detector_core::types::LinkId;
use detector_simnet::Fabric;
use detector_system::{SharedTopology, SystemConfig, TopologyEvent};
use detector_topology::{Fattree, Vl2};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{Scale, Workload, CYCLE_WINDOWS};
use crate::calib::splitmix64;
use crate::layers::{AgentWire, Seen};
use crate::measure::{check_block, Block, Harness};
use crate::plane::{matrix_links, FailPlane, StampSink, FAILURE_WINDOWS};
use crate::stats::median;
use crate::traced::{Recomposed, TraceOutcome, TraceRun};

pub const AGENTS: usize = 2;

/// The churn of one block, as `(relative window, event)`: in every
/// failure epoch of the block a second, seed-drawn link goes down one
/// window after the onset and comes back two windows later. It is never
/// the epoch's failed link, so ground truth stays a single link.
pub fn churn(
    seed: u64,
    first_window: u64,
    windows: u64,
    candidates: &[LinkId],
    failed: impl Fn(u64) -> LinkId,
) -> Vec<(u64, TopologyEvent)> {
    let mut events = Vec::new();
    for rel in (0..windows).step_by(FAILURE_WINDOWS as usize) {
        if rel + 3 >= windows {
            break;
        }
        let epoch = (first_window + rel) / FAILURE_WINDOWS;
        let n = candidates.len() as u64;
        let mut i = splitmix64(seed ^ splitmix64(epoch ^ 0xC4_0A17)) % n;
        if candidates[i as usize] == failed(first_window + rel) {
            i = (i + 1) % n;
        }
        let link = candidates[i as usize];
        events.push((rel + 1, TopologyEvent::LinkDown { link }));
        events.push((rel + 3, TopologyEvent::LinkUp { link }));
    }
    events
}

pub struct Session<'a> {
    det: DistributedDetector,
    plane: FailPlane<Fabric<'a>>,
    sink: StampSink,
    rng: SmallRng,
    seed: u64,
    next_window: u64,
    /// Controller → agent and agent → controller bytes of every call so
    /// far.
    wire_bytes: (u64, u64),
}

impl<'a> Session<'a> {
    /// Controller tier boot (PMC, plan, deployment, host groups) → fabric
    /// → one distributed window: fleet bootstrap, full pinglist sync,
    /// every batch bound agent-side.
    pub fn cold_start(topo: &'a SharedTopology, seed: u64, probe_accounts: u64) -> (Self, u64) {
        let sink = StampSink::new();
        let mut det = DistributedDetector::new(topo.clone(), SystemConfig::default(), AGENTS)
            .expect("controller tier boots");
        det.add_sink(Box::new(sink.clone()));
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
            seed,
            next_window: 0,
            wire_bytes: (0, 0),
        };
        let first = s.windows(1);
        (s, first.failed)
    }

    /// One `run_distributed` call of `count` windows under the block's
    /// churn script, checked.
    pub fn windows(&mut self, count: u64) -> Block {
        let first = self.next_window;
        let script = churn(self.seed, first, count, self.plane.candidates(), |w| {
            self.plane.failed_link(w)
        })
        .into_iter()
        .fold(DistScript::new(), |s, (w, ev)| s.topology(w, ev));
        let run = self
            .det
            .run_distributed(&self.plane, count, &script, &mut self.rng);
        self.next_window += count;
        let block = check_block(&self.plane, &self.sink, first, count);
        let Ok(outcome) = run else {
            return Block::all_failed(count);
        };
        self.wire_bytes.0 += outcome.control_bytes;
        self.wire_bytes.1 += outcome.report_bytes;
        block
    }
}

pub fn topology(scale: Scale) -> SharedTopology {
    match scale {
        Scale::Full => Arc::new(Vl2::new(20, 12, 2).expect("valid VL2")),
        Scale::Smoke => Arc::new(Fattree::new(4).expect("valid radix")),
    }
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
        h.untimed(s.windows(CYCLE_WINDOWS - 1));
        h.blocks(|| s.windows(CYCLE_WINDOWS));
    });
}

/// The traced run: a plain `run_distributed` pass, one with probe
/// accounts (latencies, wire bytes, fleet bootstrap), and the re-composed
/// loop with spans — same churn, reports pushed through the frame codec
/// as the agent wire does.
pub fn trace(w: &Workload, seed: u64, scale: Scale) -> TraceOutcome {
    let mut run = TraceRun::start(w);
    let windows = run.windows();
    let topo = topology(scale);
    let mut agent = None;
    let mut pass = |run: &mut TraceRun, probe_accounts: u64| {
        let (mut s, first_failed) = Session::cold_start(&topo, seed, probe_accounts);
        let pass = run.driver_pass(first_failed, |count| s.windows(count));
        let (control_bytes, report_bytes) = s.wire_bytes;
        let bootstrap_ms: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let fleet = s
                    .det
                    .run_distributed(&s.plane, 0, &DistScript::new(), &mut s.rng);
                assert!(fleet.is_ok(), "fleet bootstrap failed");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        agent = Some(AgentWire {
            bootstrap_ms: median(&bootstrap_ms),
            control_bytes,
            report_bytes,
            windows,
        });
        pass
    };
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
    let mut rec = Recomposed::new(booted, cfg, &plane, seed, true);
    let recomposed = run.recomposed_pass(&mut rec, |first, count| {
        churn(seed, first, count, plane.candidates(), |w| {
            plane.failed_link(w)
        })
    });
    run.conclude(Seen {
        counts: &rec.diag.counts,
        plan_size,
        untraced: &untraced,
        accounted: Some(&accounted),
        recomposed,
        threads: AGENTS,
        udp: None,
        agent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_goes_down_after_onset_comes_back_and_spares_the_failed_link() {
        let candidates: Vec<LinkId> = (0..7).map(LinkId).collect();
        let failed = |w: u64| candidates[(w / FAILURE_WINDOWS) as usize % candidates.len()];
        for seed in 0..50 {
            let events = churn(seed, 40, 20, &candidates, failed);
            assert_eq!(events.len(), 10);
            for pair in events.chunks(2) {
                let (TopologyEvent::LinkDown { link: down }, TopologyEvent::LinkUp { link: up }) =
                    (pair[0].1, pair[1].1)
                else {
                    panic!("expected a down/up pair, got {pair:?}");
                };
                assert_eq!(down, up);
                assert_eq!(pair[0].0 % FAILURE_WINDOWS, 1);
                assert_eq!(pair[1].0, pair[0].0 + 2);
                assert_ne!(down, failed(40 + pair[0].0));
            }
        }
        // The warm-up remainder of the first block (19 windows from
        // window 1) never scripts past its end.
        assert!(churn(1, 1, 19, &candidates, failed)
            .iter()
            .all(|(w, _)| *w < 19));
    }
}
