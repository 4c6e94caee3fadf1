//! The probe-tier daemon: a [`PingerAgent`] owns one host group's
//! pinglists and serves the controller's frame stream.
//!
//! An agent is a pure protocol machine. It holds the authoritative copy
//! of every pinglist dispatched to its group, applies each
//! [`Frame::ListUpdate`] with the procedure the dispatch module defines
//! ([`apply_list_update`]) — so a list rebuilt from an edit script is
//! bit-identical to the controller's copy, enforced end-to-end by the
//! script's seal stamp — and caches bound
//! [`PingerBatch`]es through [`bound_batch`], the binding rule every
//! driver shares. Probe outcomes are a pure function of `(list, window
//! seed)` via [`batch_seed`](detector_system::batch_seed), which is what
//! makes the distributed run provably equivalent to sequential stepping.

use std::collections::HashMap;
use std::sync::Arc;

use detector_core::types::NodeId;
use detector_system::dispatch::{apply_list_update, ListUpdate};
use detector_system::wire::Frame;
use detector_system::{bound_batch, DataPlane, PingerBatch, Pinglist, SystemConfig};
use detector_topology::SharedTopology;

use crate::transport::{Transport, TransportError};

/// Why an agent's serve loop stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum AgentExit {
    /// The controller sent [`Frame::Shutdown`]: orderly teardown.
    Shutdown,
    /// The transport failed (controller gone, or this agent's simulated
    /// crash budget ran out).
    Transport(TransportError),
    /// The controller violated the protocol (e.g. a diff whose rebuilt
    /// list missed its seal stamp).
    Protocol(&'static str),
}

/// One probe-tier daemon: owns a host group's pinglists and runs their
/// probe windows on command.
pub struct PingerAgent {
    id: u32,
    topo: SharedTopology,
    cfg: SystemConfig,
    /// Authoritative dispatched lists, keyed by pinger.
    lists: HashMap<NodeId, Pinglist>,
    /// Bound batches cached across windows; [`bound_batch`] re-binds one
    /// iff its list's `(version, stamp)` changed.
    batches: HashMap<NodeId, Arc<PingerBatch>>,
}

impl PingerAgent {
    /// A fresh agent with no dispatched state.
    pub fn new(id: u32, topo: SharedTopology, cfg: SystemConfig) -> Self {
        Self {
            id,
            topo,
            cfg,
            lists: HashMap::new(),
            batches: HashMap::new(),
        }
    }

    /// The agent's ordinal (its host-group index).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Serves the controller until shutdown or failure: sends `Hello`,
    /// then answers every frame in arrival order. Probing runs inline on
    /// this thread (one agent = one host group = one probe worker).
    pub fn serve(mut self, transport: &dyn Transport, dataplane: &dyn DataPlane) -> AgentExit {
        if let Err(e) = transport.send(&Frame::Hello { agent: self.id }) {
            return AgentExit::Transport(e);
        }
        loop {
            let frame = match transport.recv() {
                Ok(f) => f,
                Err(e) => return AgentExit::Transport(e),
            };
            match self.handle(frame, transport, dataplane) {
                Ok(true) => {}
                Ok(false) => return AgentExit::Shutdown,
                Err(exit) => return exit,
            }
        }
    }

    /// Processes one frame; `Ok(false)` means orderly shutdown.
    fn handle(
        &mut self,
        frame: Frame,
        transport: &dyn Transport,
        dataplane: &dyn DataPlane,
    ) -> Result<bool, AgentExit> {
        match frame {
            Frame::ListUpdate(update) => self.apply(&update)?,
            Frame::Reset => {
                self.lists.clear();
                self.batches.clear();
            }
            Frame::WindowStart {
                window,
                window_seed,
                skip,
            } => {
                self.run_window(window, window_seed, &skip, transport, dataplane)?;
            }
            Frame::HeartbeatReq { nonce } => {
                transport
                    .send(&Frame::HeartbeatAck {
                        nonce,
                        agent: self.id,
                    })
                    .map_err(AgentExit::Transport)?;
            }
            Frame::Shutdown => return Ok(false),
            Frame::Hello { .. }
            | Frame::HeartbeatAck { .. }
            | Frame::Report(_)
            | Frame::WindowDone { .. } => {
                return Err(AgentExit::Protocol(
                    "agent-bound stream carried a controller-bound frame",
                ));
            }
        }
        Ok(true)
    }

    /// Applies one list update through the shared dispatch procedure. A
    /// removed list takes its binding with it; any other update leaves
    /// the binding for the next window's [`bound_batch`] to check.
    fn apply(&mut self, update: &ListUpdate) -> Result<(), AgentExit> {
        if !apply_list_update(&mut self.lists, update) {
            // The seal stamp is an end-to-end checksum over the rebuilt
            // list; the controller only diffs when the diff provably
            // reproduces its copy, so a miss means the streams diverged.
            return Err(AgentExit::Protocol("diff failed its seal stamp"));
        }
        if let ListUpdate::Remove(pinger) = update {
            self.batches.remove(pinger);
        }
        Ok(())
    }

    /// Probes every owned list not in `skip` and streams the reports
    /// back, closing the window with `WindowDone`. Lists run in pinger
    /// order; outcomes don't depend on that order (each batch derives
    /// its own RNG stream from the window seed), it just keeps the wire
    /// trace deterministic.
    fn run_window(
        &mut self,
        window: u64,
        window_seed: u64,
        skip: &[NodeId],
        transport: &dyn Transport,
        dataplane: &dyn DataPlane,
    ) -> Result<(), AgentExit> {
        let mut lists: Vec<(&NodeId, &Pinglist)> = self.lists.iter().collect();
        lists.sort_unstable_by_key(|&(pinger, _)| *pinger);
        for (&pinger, list) in lists {
            if skip.contains(&pinger) {
                continue;
            }
            let batch = bound_batch(&mut self.batches, list, self.topo.graph());
            let report = batch.run_window(dataplane, &self.cfg, window, window_seed);
            transport
                .send(&Frame::Report(report))
                .map_err(AgentExit::Transport)?;
        }
        transport
            .send(&Frame::WindowDone {
                window,
                agent: self.id,
            })
            .map_err(AgentExit::Transport)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback;
    use detector_simnet::Fabric;
    use detector_system::Detector;
    use detector_topology::Fattree;
    use std::sync::Arc;

    fn fattree_lists() -> (SharedTopology, Vec<Pinglist>) {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let det = Detector::new(ft.clone(), SystemConfig::default()).unwrap();
        let lists = det.pinglists().to_vec();
        (ft as SharedTopology, lists)
    }

    #[test]
    fn agent_probes_dispatched_lists_and_reports() {
        let (topo, lists) = fattree_lists();
        let fabric = Fabric::quiet(topo.as_ref());
        let (ctrl, agent_end) = loopback();
        let own: Vec<Pinglist> = lists.into_iter().take(2).collect();
        let expected: Vec<NodeId> = {
            let mut p: Vec<NodeId> = own.iter().map(|l| l.pinger).collect();
            p.sort_unstable();
            p
        };

        let agent = PingerAgent::new(0, topo.clone(), SystemConfig::default());
        let exit = std::thread::scope(|scope| {
            let handle = scope.spawn(move || agent.serve(&agent_end, &fabric));
            assert_eq!(ctrl.recv().unwrap(), Frame::Hello { agent: 0 });
            for l in &own {
                ctrl.send(&Frame::ListUpdate(ListUpdate::Replace(l.clone())))
                    .unwrap();
            }
            ctrl.send(&Frame::WindowStart {
                window: 0,
                window_seed: 42,
                skip: Vec::new(),
            })
            .unwrap();
            let mut reporters = Vec::new();
            loop {
                match ctrl.recv().unwrap() {
                    Frame::Report(r) => {
                        assert_eq!(r.window, 0);
                        assert!(r.total_sent() > 0);
                        reporters.push(r.pinger);
                    }
                    Frame::WindowDone { window, agent } => {
                        assert_eq!((window, agent), (0, 0));
                        break;
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            assert_eq!(reporters, expected);
            ctrl.send(&Frame::Shutdown).unwrap();
            handle.join().unwrap()
        });
        assert_eq!(exit, AgentExit::Shutdown);
    }

    #[test]
    fn skip_set_and_heartbeats_are_honored() {
        let (topo, lists) = fattree_lists();
        let fabric = Fabric::quiet(topo.as_ref());
        let (ctrl, agent_end) = loopback();
        let own = lists[0].clone();
        let skipped = own.pinger;

        let agent = PingerAgent::new(3, topo.clone(), SystemConfig::default());
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || agent.serve(&agent_end, &fabric));
            assert_eq!(ctrl.recv().unwrap(), Frame::Hello { agent: 3 });
            ctrl.send(&Frame::ListUpdate(ListUpdate::Replace(own.clone())))
                .unwrap();
            ctrl.send(&Frame::HeartbeatReq { nonce: 5 }).unwrap();
            assert_eq!(
                ctrl.recv().unwrap(),
                Frame::HeartbeatAck { nonce: 5, agent: 3 }
            );
            // The only owned pinger is skipped: the window yields no
            // reports, just its WindowDone.
            ctrl.send(&Frame::WindowStart {
                window: 7,
                window_seed: 1,
                skip: vec![skipped],
            })
            .unwrap();
            assert_eq!(
                ctrl.recv().unwrap(),
                Frame::WindowDone {
                    window: 7,
                    agent: 3
                }
            );
            ctrl.send(&Frame::Shutdown).unwrap();
            assert_eq!(handle.join().unwrap(), AgentExit::Shutdown);
        });
    }

    #[test]
    fn reset_drops_all_dispatched_state() {
        let (topo, lists) = fattree_lists();
        let fabric = Fabric::quiet(topo.as_ref());
        let (ctrl, agent_end) = loopback();
        let agent = PingerAgent::new(1, topo.clone(), SystemConfig::default());
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || agent.serve(&agent_end, &fabric));
            assert_eq!(ctrl.recv().unwrap(), Frame::Hello { agent: 1 });
            ctrl.send(&Frame::ListUpdate(ListUpdate::Replace(lists[0].clone())))
                .unwrap();
            ctrl.send(&Frame::Reset).unwrap();
            ctrl.send(&Frame::WindowStart {
                window: 0,
                window_seed: 9,
                skip: Vec::new(),
            })
            .unwrap();
            // No lists survive the reset: straight to WindowDone.
            assert_eq!(
                ctrl.recv().unwrap(),
                Frame::WindowDone {
                    window: 0,
                    agent: 1
                }
            );
            ctrl.send(&Frame::Shutdown).unwrap();
            assert_eq!(handle.join().unwrap(), AgentExit::Shutdown);
        });
    }

    #[test]
    fn controller_bound_frames_are_a_protocol_error() {
        let (topo, _) = fattree_lists();
        let fabric = Fabric::quiet(topo.as_ref());
        let (ctrl, agent_end) = loopback();
        let agent = PingerAgent::new(0, topo.clone(), SystemConfig::default());
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || agent.serve(&agent_end, &fabric));
            assert_eq!(ctrl.recv().unwrap(), Frame::Hello { agent: 0 });
            ctrl.send(&Frame::WindowDone {
                window: 0,
                agent: 0,
            })
            .unwrap();
            match handle.join().unwrap() {
                AgentExit::Protocol(_) => {}
                other => panic!("expected protocol error, got {other:?}"),
            }
        });
    }

    #[test]
    fn a_vanished_controller_ends_the_agent_with_a_closed_transport() {
        let (topo, _) = fattree_lists();
        let fabric = Fabric::quiet(topo.as_ref());
        let (ctrl, agent_end) = loopback();
        let agent = PingerAgent::new(2, topo.clone(), SystemConfig::default());
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || agent.serve(&agent_end, &fabric));
            assert_eq!(ctrl.recv().unwrap(), Frame::Hello { agent: 2 });
            drop(ctrl);
            assert_eq!(
                handle.join().unwrap(),
                AgentExit::Transport(TransportError::Closed)
            );
        });
    }
}
