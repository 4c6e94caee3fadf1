//! The simulated fabric: loss disciplines per link direction, dead
//! switches, background noise, and probe forwarding.

use std::collections::{HashMap, HashSet};

use detector_core::types::{LinkId, NodeId};
use detector_topology::{DcnTopology, Route};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::failures::{FailureKind, FailureScenario, FailureTarget};
use crate::flow::FlowKey;
use crate::rtt::RttModel;
use crate::LossDiscipline;

/// Traversal direction of an undirected link, relative to its endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// From `link.a` towards `link.b`.
    AtoB,
    /// From `link.b` towards `link.a`.
    BtoA,
}

/// Result of a one-way packet transmission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeOutcome {
    /// Did the packet reach the destination?
    pub delivered: bool,
    /// The link where it was dropped, if it was.
    pub dropped_link: Option<LinkId>,
    /// Accumulated one-way latency up to delivery or drop, microseconds.
    pub latency_us: f64,
}

/// Result of a request/response exchange.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundTrip {
    /// Did the response arrive?
    pub success: bool,
    /// Round-trip time, microseconds (meaningless unless `success`).
    pub rtt_us: f64,
    /// Where the exchange died, if it did.
    pub dropped_link: Option<LinkId>,
}

/// The simulated data-center fabric.
///
/// Holds the topology behind a `Sync` bound so a fabric can be shared
/// across concurrent probe stages (`Fabric: Sync`, and probing via
/// [`Fabric::send`] / [`Fabric::round_trip`] takes `&self`); every
/// concrete topology in `detector-topology` is plain data and satisfies
/// the bound. Mutation (disciplines, dead switches, utilization) still
/// requires `&mut self` — wrap the fabric in a lock to churn it mid-run.
pub struct Fabric<'a> {
    topo: &'a (dyn DcnTopology + Sync),
    disciplines: HashMap<(LinkId, LinkDir), LossDiscipline>,
    dead_switches: HashSet<NodeId>,
    /// Background loss rate per link (the normal 1e-4..1e-5 of §5.1).
    noise: Vec<f64>,
    /// Offered utilization per link (drives queueing latency).
    utilization: Vec<f64>,
    /// Latency model.
    pub rtt_model: RttModel,
}

impl<'a> Fabric<'a> {
    /// A fabric with background noise sampled per link from `seed`
    /// (log-uniform in [1e-5, 1e-4]).
    pub fn new(topo: &'a (dyn DcnTopology + Sync), seed: u64) -> Self {
        let n = topo.graph().num_links();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_ba5e);
        let noise = (0..n)
            .map(|_| {
                let exp = rng.gen_range(-5.0..-4.0f64);
                10f64.powf(exp)
            })
            .collect();
        Self {
            topo,
            disciplines: HashMap::new(),
            dead_switches: HashSet::new(),
            noise,
            utilization: vec![0.0; n],
            rtt_model: RttModel::default(),
        }
    }

    /// A fabric with zero background noise (for exact-loss tests).
    pub fn quiet(topo: &'a (dyn DcnTopology + Sync)) -> Self {
        let n = topo.graph().num_links();
        Self {
            topo,
            disciplines: HashMap::new(),
            dead_switches: HashSet::new(),
            noise: vec![0.0; n],
            utilization: vec![0.0; n],
            rtt_model: RttModel::default(),
        }
    }

    /// The topology this fabric simulates.
    pub fn topology(&self) -> &'a (dyn DcnTopology + Sync) {
        self.topo
    }

    /// Sets the loss discipline of one direction of a link.
    pub fn set_discipline(&mut self, link: LinkId, dir: LinkDir, disc: LossDiscipline) {
        if matches!(disc, LossDiscipline::Healthy) {
            self.disciplines.remove(&(link, dir));
        } else {
            self.disciplines.insert((link, dir), disc);
        }
    }

    /// Sets the loss discipline of both directions of a link.
    pub fn set_discipline_both(&mut self, link: LinkId, disc: LossDiscipline) {
        self.set_discipline(link, LinkDir::AtoB, disc);
        self.set_discipline(link, LinkDir::BtoA, disc);
    }

    /// Marks a switch as dead: every packet traversing it is dropped.
    pub fn kill_switch(&mut self, node: NodeId) {
        self.dead_switches.insert(node);
    }

    /// Brings a dead/drained switch back: packets traverse it again
    /// (the recovery half of a drain/undrain churn cycle).
    pub fn revive_switch(&mut self, node: NodeId) {
        self.dead_switches.remove(&node);
    }

    /// Removes all injected failures (noise remains).
    pub fn clear_failures(&mut self) {
        self.disciplines.clear();
        self.dead_switches.clear();
    }

    /// Applies a failure scenario.
    pub fn apply_scenario(&mut self, scenario: &FailureScenario) {
        for f in &scenario.failures {
            let disc = match f.kind {
                FailureKind::Full => LossDiscipline::Full,
                FailureKind::DeterministicPartial { fraction } => {
                    LossDiscipline::DeterministicPartial {
                        fraction,
                        salt: f.salt,
                    }
                }
                FailureKind::RandomPartial { rate } => LossDiscipline::RandomPartial { rate },
            };
            match f.target {
                FailureTarget::Link(l) => self.set_discipline_both(l, disc),
                FailureTarget::Switch(s) => self.kill_switch(s),
            }
        }
    }

    /// Overrides the per-link utilization (from a workload).
    pub fn set_utilization(&mut self, util: Vec<f64>) {
        assert_eq!(util.len(), self.utilization.len());
        self.utilization = util;
    }

    /// Background loss rate of a link.
    pub fn noise_rate(&self, link: LinkId) -> f64 {
        self.noise[link.index()]
    }

    fn direction(&self, link: LinkId, from: NodeId) -> LinkDir {
        let l = self.topo.graph().link(link);
        if l.a == from {
            LinkDir::AtoB
        } else {
            debug_assert_eq!(l.b, from, "node {from} is not an endpoint of {link}");
            LinkDir::BtoA
        }
    }

    /// Sends one packet along `route`; applies dead switches, per-link
    /// disciplines and background noise hop by hop.
    pub fn send(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        // One deref of each list before the hop loop, not one a hop.
        let (nodes, links): (&[NodeId], &[LinkId]) = (&route.nodes, &route.links);
        let mut latency = 0.0;
        for (i, &link) in links.iter().enumerate() {
            let from = nodes[i];
            let to = nodes[i + 1];
            // A dead switch silently eats everything it would forward.
            if self.dead_switches.contains(&from) || self.dead_switches.contains(&to) {
                return ProbeOutcome {
                    delivered: false,
                    dropped_link: Some(link),
                    latency_us: latency,
                };
            }
            let dir = self.direction(link, from);
            if let Some(d) = self.disciplines.get(&(link, dir)) {
                let draw = rng.gen::<f64>();
                if d.drops(flow, draw) {
                    return ProbeOutcome {
                        delivered: false,
                        dropped_link: Some(link),
                        latency_us: latency,
                    };
                }
            }
            let noise = self.noise[link.index()];
            if noise > 0.0 && rng.gen::<f64>() < noise {
                return ProbeOutcome {
                    delivered: false,
                    dropped_link: Some(link),
                    latency_us: latency,
                };
            }
            latency += self
                .rtt_model
                .hop_latency_us(self.utilization[link.index()], rng);
        }
        ProbeOutcome {
            delivered: true,
            dropped_link: None,
            latency_us: latency,
        }
    }

    /// Request along `route`, response along the same route reversed
    /// (deTector's source-routed echo, §3.2).
    pub fn round_trip(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> RoundTrip {
        let back = Route {
            nodes: route.nodes.iter().rev().copied().collect(),
            links: route.links.iter().rev().copied().collect(),
        };
        self.round_trip_via(route, &back, flow, rng)
    }

    /// Request along `fwd`, response along `rev` (baseline probes, whose
    /// reply takes its own ECMP path).
    pub fn round_trip_via(
        &self,
        fwd: &Route,
        rev: &Route,
        flow: FlowKey,
        rng: &mut SmallRng,
    ) -> RoundTrip {
        let out = self.send(fwd, flow, rng);
        if !out.delivered {
            return RoundTrip {
                success: false,
                rtt_us: 0.0,
                dropped_link: out.dropped_link,
            };
        }
        let back = self.send(rev, flow.reversed(), rng);
        if !back.delivered {
            return RoundTrip {
                success: false,
                rtt_us: 0.0,
                dropped_link: back.dropped_link,
            };
        }
        RoundTrip {
            success: true,
            rtt_us: out.latency_us + back.latency_us,
            dropped_link: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_topology::Fattree;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn healthy_quiet_fabric_delivers() {
        let ft = Fattree::new(4).unwrap();
        let fabric = Fabric::quiet(&ft);
        let route = ft.ecmp_route(ft.server(0, 0, 0), ft.server(3, 1, 1), 5);
        let mut r = rng();
        for _ in 0..100 {
            let out = fabric.send(&route, FlowKey::udp(0, 15, 100, 200), &mut r);
            assert!(out.delivered);
            assert!(out.latency_us > 0.0);
        }
    }

    #[test]
    fn full_loss_kills_the_affected_direction_only() {
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ea_link(0, 0, 0);
        // The link goes edge(0,0) -> agg(0,0): edge is `a`.
        fabric.set_discipline(bad, LinkDir::AtoB, LossDiscipline::Full);

        // A route that climbs through agg(0,0) from edge(0,0) dies...
        let up = ft.ecmp_route(ft.server(0, 0, 0), ft.server(1, 0, 0), 0);
        assert!(up.links.contains(&bad));
        let mut r = rng();
        let out = fabric.send(&up, FlowKey::udp(0, 4, 1, 2), &mut r);
        assert!(!out.delivered);
        assert_eq!(out.dropped_link, Some(bad));

        // ...but the reverse direction still works.
        let down = Route {
            nodes: up.nodes.iter().rev().copied().collect(),
            links: up.links.iter().rev().copied().collect(),
        };
        let out = fabric.send(&down, FlowKey::udp(4, 0, 2, 1), &mut r);
        assert!(out.delivered);
    }

    #[test]
    fn dead_switch_drops_traversals() {
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        fabric.kill_switch(ft.agg(0, 0));
        let mut r = rng();
        let mut failures = 0;
        let mut successes = 0;
        for h in 0..16u64 {
            let route = ft.ecmp_route(ft.server(0, 0, 0), ft.server(2, 0, 0), h);
            let out = fabric.send(&route, FlowKey::udp(0, 8, h as u16, 9), &mut r);
            if out.delivered {
                successes += 1;
            } else {
                failures += 1;
            }
        }
        // Half the ECMP fan-out climbs through agg(0,0).
        assert!(failures > 0);
        assert!(successes > 0);
    }

    #[test]
    fn round_trip_exercises_reverse_direction() {
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ea_link(1, 0, 0);
        // Fail only edge(1,0) -> agg(1,0): the direction only the *reply*
        // traverses. The request gets through; the echo dies, and the
        // round trip still catches the failure (§4.1's bidirectional-link
        // argument).
        fabric.set_discipline(bad, LinkDir::AtoB, LossDiscipline::Full);
        let route = ft.ecmp_route(ft.server(0, 0, 0), ft.server(1, 0, 0), 0);
        assert!(route.links.contains(&bad));
        let mut r = rng();
        let rt = fabric.round_trip(&route, FlowKey::udp(0, 4, 7, 8), &mut r);
        // One of the two directions must be hit.
        assert!(!rt.success);
        assert_eq!(rt.dropped_link, Some(bad));
    }

    #[test]
    fn noise_rate_is_in_documented_band() {
        let ft = Fattree::new(4).unwrap();
        let fabric = Fabric::new(&ft, 9);
        for l in 0..ft.graph().num_links() {
            let n = fabric.noise_rate(LinkId(l as u32));
            assert!((1e-5..=1e-4).contains(&n), "noise {n}");
        }
    }

    #[test]
    fn same_seed_same_outcomes() {
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::new(&ft, 3);
        fabric.set_discipline_both(
            ft.ac_link(0, 0, 0),
            LossDiscipline::RandomPartial { rate: 0.5 },
        );
        let route = ft.ecmp_route(ft.server(0, 0, 0), ft.server(2, 0, 0), 0);
        let run = |seed: u64| -> Vec<bool> {
            let mut r = SmallRng::seed_from_u64(seed);
            (0..64)
                .map(|i| {
                    fabric
                        .send(&route, FlowKey::udp(0, 8, i, 9), &mut r)
                        .delivered
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
