//! Misbehaving agents, scripted: what the distributed controller does
//! with frames it cannot vouch for.
//!
//! `Report` frames are outside input. Each test runs two real
//! `PingerAgent`s through `run_distributed_over`, with agent 1's
//! agent → controller frames passed through an editing transport, and
//! checks that a bad or missing report fails the run with
//! `DistError::Protocol` *before* anything is filed — the diagnoser holds
//! nothing of the poisoned window or of the one a report named, and no
//! `ReportIngested` was emitted for it — and that a mis-answered
//! heartbeat degrades the agent like a missed one. An agent thread that
//! panics fails the run with a `DistError`, not a panic in the caller.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use detector::prelude::*;
use detector::system::{PingerReport, Watchdog};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The controller's end of a real agent's loopback, with every
/// agent → controller frame passed through `edit` (which may rewrite,
/// drop or multiply it).
struct Tamper<F>(LoopbackEnd, Mutex<(F, VecDeque<Frame>)>);

impl<F: FnMut(Frame) -> Vec<Frame> + Send> Transport for Tamper<F> {
    fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), TransportError> {
        self.0.send(&Frame::decode(&bytes)?)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        let mut state = self.1.lock().unwrap();
        loop {
            if let Some(frame) = state.1.pop_front() {
                return Ok(frame);
            }
            let edited = (state.0)(self.0.recv()?);
            state.1.extend(edited);
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.0.bytes_sent()
    }
}

impl<F: FnMut(Frame) -> Vec<Frame> + Send> ControlTransport for Tamper<F> {
    fn peer_bytes_sent(&self) -> u64 {
        self.0.peer_bytes_sent()
    }
}

/// One window over two real agents; agent 1's frames pass through
/// `edit`.
fn run_tampered(
    dist: &mut DistributedDetector,
    ft: &Arc<Fattree>,
    edit: impl FnMut(Frame) -> Vec<Frame> + Send + Clone + 'static,
) -> Result<DistOutcome, DistError> {
    let fabric = Fabric::quiet(ft.as_ref());
    let mut rng = SmallRng::seed_from_u64(11);
    std::thread::scope(|scope| {
        let mut connect = |g: usize| -> Option<Box<dyn ControlTransport>> {
            let (ctrl, agent) = loopback();
            let (topo, fabric) = (ft.clone() as SharedTopology, &fabric);
            scope.spawn(move || {
                PingerAgent::new(g as u32, topo, SystemConfig::default()).serve(&agent, fabric)
            });
            Some(match g {
                1 => Box::new(Tamper(ctrl, Mutex::new((edit.clone(), VecDeque::new())))),
                _ => Box::new(ctrl),
            })
        };
        let script = DistScript::new();
        dist.run_distributed_over(&fabric, 1, &script, &mut rng, &mut connect, &mut |_| None)
    })
}

fn detector(ft: &Arc<Fattree>) -> DistributedDetector {
    DistributedDetector::new(ft.clone(), SystemConfig::default(), 2).expect("boot")
}

#[test]
fn a_report_the_controller_cannot_vouch_for_fails_the_run_before_it_is_folded() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let foreign = partition_hosts(ft.graph(), 2).group(0)[0];
    // Each case rewrites agent 1's first report of window 0; the error
    // must name the check that caught it.
    type Rewrite = fn(PingerReport, NodeId) -> Vec<PingerReport>;
    let cases: [(&str, Rewrite); 4] = [
        ("not open", |r, _| vec![PingerReport { window: 1, ..r }]),
        ("twice", |r, _| vec![r.clone(), r]),
        ("not asked", |r, foreign| {
            vec![PingerReport {
                pinger: foreign,
                ..r
            }]
        }),
        ("no report for a healthy pinger's list", |_, _| vec![]),
    ];
    for (what, rewrite) in cases {
        let mut first = true;
        let edit = move |frame: Frame| match frame {
            Frame::Report(r) if std::mem::take(&mut first) => {
                let rewritten = rewrite(r, foreign);
                rewritten.into_iter().map(Frame::Report).collect()
            }
            other => vec![other],
        };
        let sink = CollectingSink::new();
        let mut dist = detector(&ft);
        dist.add_sink(Box::new(sink.clone()));
        match run_tampered(&mut dist, &ft, edit) {
            Err(DistError::Protocol(why)) if why.contains(what) => {}
            other => panic!("expected a protocol error saying {what:?}, got {other:?}"),
        }
        // Agent 0's honest reports arrived before agent 1 spoke; the
        // failed window filed none of them, and the bad report reached
        // neither the poisoned window nor the one it named.
        let filed = |w| dist.diagnoser().observations(w, &Watchdog::new());
        assert!(filed(0).is_empty(), "{what}: window 0 holds reports");
        assert!(filed(1).is_empty(), "{what}: window 1 was filed into");
        let ingested =
            |e: &RuntimeEvent| matches!(e, RuntimeEvent::ReportIngested { window: 0, .. });
        assert!(
            !sink.events().iter().any(ingested),
            "{what}: a report of the failed window was announced"
        );
    }
}

#[test]
fn a_heartbeat_answered_with_the_wrong_nonce_degrades_the_agent() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let edit = |frame: Frame| match frame {
        Frame::HeartbeatAck { nonce, agent } => vec![Frame::HeartbeatAck {
            nonce: nonce + 1,
            agent,
        }],
        other => vec![other],
    };
    let sink = CollectingSink::new();
    let mut dist = detector(&ft);
    dist.add_sink(Box::new(sink.clone()));
    let outcome = run_tampered(&mut dist, &ft, edit).expect("a missed heartbeat never fails");
    assert_eq!(outcome.results.len(), 1);
    // Exactly a missed heartbeat: agent 1's racks sit the window out.
    let group = dist.groups().group(1).to_vec();
    let unhealthy: Vec<NodeId> = (sink.events().iter())
        .filter_map(|e| match e {
            RuntimeEvent::PingerUnhealthy { pinger, .. } => Some(*pinger),
            _ => None,
        })
        .collect();
    assert!(!unhealthy.is_empty() && unhealthy.iter().all(|p| group.contains(p)));
    assert!(group.iter().all(|&s| !dist.watchdog.is_healthy(s)));
}

/// A data plane whose every probe panics, so every agent thread that
/// runs a window dies.
struct PanickingPlane;

impl DataPlane for PanickingPlane {
    fn probe(&self, _route: &Route, _flow: FlowKey, _rng: &mut SmallRng) -> ProbeOutcome {
        panic!("probe backend blew up");
    }
}

#[test]
fn an_agent_thread_panic_is_a_protocol_error() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let mut dist = detector(&ft);
    let mut rng = SmallRng::seed_from_u64(5);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // Silence the agents' expected panics.
    let res = dist.run_distributed(&PanickingPlane, 2, &DistScript::new(), &mut rng);
    std::panic::set_hook(prev_hook);
    match res {
        Err(DistError::Protocol("agent thread panicked")) => {}
        other => panic!("expected the agent panic as a protocol error, got {other:?}"),
    }
}
