//! Failure scenario generation (§6.2).
//!
//! Without access to production loss data, the paper synthesizes failures
//! from published measurements: the failure mix and per-tier probabilities
//! follow Gill et al., SIGCOMM'11 \[20\] and the loss-rate distribution
//! follows Benson et al. \[12\] (rates spanning 1e-4 to 1). We encode the
//! same recipe with documented constants:
//!
//! * a failure event targets a switch with probability 0.2, a link
//!   otherwise (device failures are rarer than link failures but heavier);
//! * loss types split 30% full loss / 35% deterministic partial /
//!   35% random partial — each minute of the paper's testbed experiment
//!   picks one of the three at random;
//! * partial loss rates are log-uniform over \[1e-4, 1\], so low-rate
//!   losses (the hard case for Pingmesh/NetNORAD) are well represented.

use detector_core::types::{LinkId, NodeId};
use detector_topology::{pod_switches, DcnTopology, TopologyEvent};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::fabric::Fabric;
use crate::LossDiscipline;

/// What fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureTarget {
    /// A single (probe) link, both directions.
    Link(LinkId),
    /// A whole switch: every packet traversing it is dropped.
    Switch(NodeId),
}

/// How it fails.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FailureKind {
    /// All packets dropped.
    Full,
    /// A `fraction` of the flow space is dropped deterministically.
    DeterministicPartial {
        /// Affected fraction of flows.
        fraction: f64,
    },
    /// Every packet dropped independently at `rate`.
    RandomPartial {
        /// Per-packet drop probability.
        rate: f64,
    },
}

/// One injected failure.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InjectedFailure {
    /// What fails.
    pub target: FailureTarget,
    /// How it fails.
    pub kind: FailureKind,
    /// Salt for blackhole flow selection.
    pub salt: u64,
}

/// A set of simultaneous failures plus the derived ground truth.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FailureScenario {
    /// The injected failures.
    pub failures: Vec<InjectedFailure>,
}

impl FailureScenario {
    /// A single full-loss link failure (the simplest scenario).
    pub fn single_link(link: LinkId) -> Self {
        Self {
            failures: vec![InjectedFailure {
                target: FailureTarget::Link(link),
                kind: FailureKind::Full,
                salt: 0,
            }],
        }
    }

    /// The probe links a localization algorithm should blame: failed
    /// links themselves, plus every probe link adjacent to a failed
    /// switch.
    pub fn ground_truth(&self, topo: &dyn DcnTopology) -> Vec<LinkId> {
        let probe_links = topo.probe_links();
        let mut out = Vec::new();
        for f in &self.failures {
            match f.target {
                FailureTarget::Link(l) => {
                    if l.index() < probe_links {
                        out.push(l);
                    }
                }
                FailureTarget::Switch(s) => {
                    for &(_, l) in topo.graph().neighbors(s) {
                        if l.index() < probe_links {
                            out.push(l);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A scheduled mid-run topology change: at the start of `window`, apply
/// `event` to both the simulated fabric and the running detector so drop
/// behaviour and re-planning stay in lockstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Window index before which the event fires.
    pub window: u64,
    /// What changes.
    pub event: TopologyEvent,
}

/// A script of [`TopologyEvent`]s indexed by window — the simnet driver
/// for churn scenarios (drains, repairs, expansions) interacting with
/// incremental re-planning.
///
/// The schedule only *describes* the churn; per window the campaign loop
/// pulls the due events, mirrors each onto the fabric with
/// [`ChurnSchedule::apply_to_fabric`] (a downed link drops every packet,
/// a drained switch eats traversals) and onto the detector with
/// `Detector::apply` (which re-plans incrementally).
///
/// # Examples
///
/// ```
/// use detector_core::types::LinkId;
/// use detector_simnet::ChurnSchedule;
///
/// let churn = ChurnSchedule::drain_recover(LinkId(3), 2, 5);
/// assert_eq!(churn.due(2).count(), 1);
/// assert_eq!(churn.due(3).count(), 0);
/// assert_eq!(churn.due(5).count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event firing before `window` (builder style).
    pub fn at(mut self, window: u64, event: TopologyEvent) -> Self {
        self.events.push(ChurnEvent { window, event });
        self.events.sort_by_key(|e| e.window);
        self
    }

    /// The classic drill: `link` goes down before `down_window` and is
    /// repaired before `up_window`.
    pub fn drain_recover(link: LinkId, down_window: u64, up_window: u64) -> Self {
        Self::new()
            .at(down_window, TopologyEvent::LinkDown { link })
            .at(up_window, TopologyEvent::LinkUp { link })
    }

    /// All scheduled events, in firing order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// The events due at the start of `window`.
    pub fn due(&self, window: u64) -> impl Iterator<Item = &TopologyEvent> {
        self.events
            .iter()
            .filter(move |e| e.window == window)
            .map(|e| &e.event)
    }

    /// Mirrors a topology event onto the simulated fabric: a downed link
    /// drops every packet in both directions, a drained switch eats all
    /// traversals, and the `Up`/`Undrain`/`PodAdded` counterparts restore
    /// forwarding.
    ///
    /// Recovery events model *repair*: `LinkUp` sets the link fully
    /// healthy, and `SwitchUndrain`/`PodAdded` revive dead switches —
    /// clearing whatever failure was previously injected on the same
    /// link or switch (by this schedule or a [`FailureScenario`]). A
    /// scenario where a link must stay faulty through a churn cycle
    /// should re-inject its discipline after the recovery event.
    pub fn apply_to_fabric(fabric: &mut Fabric<'_>, event: &TopologyEvent) {
        match event {
            TopologyEvent::LinkDown { link } => {
                fabric.set_discipline_both(*link, LossDiscipline::Full);
            }
            TopologyEvent::LinkUp { link } => {
                fabric.set_discipline_both(*link, LossDiscipline::Healthy);
            }
            TopologyEvent::SwitchDrain { switch } => fabric.kill_switch(*switch),
            TopologyEvent::SwitchUndrain { switch } => fabric.revive_switch(*switch),
            TopologyEvent::PodDrained { pod } => {
                for s in pod_switches(fabric.topology(), *pod) {
                    fabric.kill_switch(s);
                }
            }
            TopologyEvent::PodAdded { pod } => {
                for s in pod_switches(fabric.topology(), *pod) {
                    fabric.revive_switch(s);
                }
            }
        }
    }
}

/// Randomized failure generator with the documented mix.
#[derive(Clone, Copy, Debug)]
pub struct FailureGenerator {
    /// Probability that a failure event takes out a switch.
    pub switch_fraction: f64,
    /// Probability that a (link) failure is full loss.
    pub full_fraction: f64,
    /// Lower bound of the log-uniform partial loss rate.
    pub min_rate: f64,
    /// Upper bound of the log-uniform partial loss rate.
    pub max_rate: f64,
}

impl Default for FailureGenerator {
    fn default() -> Self {
        Self {
            switch_fraction: 0.2,
            full_fraction: 0.3,
            min_rate: 1e-4,
            max_rate: 1.0,
        }
    }
}

impl FailureGenerator {
    /// A generator that only produces link failures (no switch-down), as
    /// used when comparing localization accuracy per link (Tables 4/5).
    pub fn links_only() -> Self {
        Self {
            switch_fraction: 0.0,
            ..Self::default()
        }
    }

    /// A generator whose partial losses are never below `min_rate` —
    /// useful to separate "detectable" failures from background noise in
    /// controlled tests.
    pub fn with_min_rate(mut self, min_rate: f64) -> Self {
        self.min_rate = min_rate;
        self
    }

    fn sample_rate(&self, rng: &mut SmallRng) -> f64 {
        let lo = self.min_rate.log10();
        let hi = self.max_rate.log10();
        10f64.powf(rng.gen_range(lo..hi))
    }

    fn sample_kind(&self, rng: &mut SmallRng) -> FailureKind {
        let x: f64 = rng.gen();
        if x < self.full_fraction {
            FailureKind::Full
        } else if x < self.full_fraction + (1.0 - self.full_fraction) / 2.0 {
            FailureKind::DeterministicPartial {
                fraction: self.sample_rate(rng).max(1e-3),
            }
        } else {
            FailureKind::RandomPartial {
                rate: self.sample_rate(rng),
            }
        }
    }

    /// Samples `n` simultaneous failures with distinct targets.
    pub fn sample(&self, topo: &dyn DcnTopology, n: usize, rng: &mut SmallRng) -> FailureScenario {
        let probe_links = topo.probe_links() as u32;
        let switches: Vec<NodeId> = topo
            .graph()
            .nodes()
            .iter()
            .filter(|nd| nd.kind.is_switch())
            .map(|nd| nd.id)
            .collect();

        let mut used_links = std::collections::HashSet::new();
        let mut used_switches = std::collections::HashSet::new();
        let mut failures = Vec::with_capacity(n);
        while failures.len() < n {
            let target = if rng.gen::<f64>() < self.switch_fraction {
                let s = switches[rng.gen_range(0..switches.len())];
                if !used_switches.insert(s) {
                    continue;
                }
                FailureTarget::Switch(s)
            } else {
                let l = LinkId(rng.gen_range(0..probe_links));
                if !used_links.insert(l) {
                    continue;
                }
                FailureTarget::Link(l)
            };
            failures.push(InjectedFailure {
                target,
                kind: self.sample_kind(rng),
                salt: rng.gen(),
            });
        }
        FailureScenario { failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_topology::Fattree;
    use rand::SeedableRng;

    #[test]
    fn ground_truth_of_link_failure_is_the_link() {
        let ft = Fattree::new(4).unwrap();
        let s = FailureScenario::single_link(ft.ea_link(1, 1, 1));
        assert_eq!(s.ground_truth(&ft), vec![ft.ea_link(1, 1, 1)]);
    }

    #[test]
    fn ground_truth_of_switch_failure_is_its_probe_links() {
        let ft = Fattree::new(4).unwrap();
        let s = FailureScenario {
            failures: vec![InjectedFailure {
                target: FailureTarget::Switch(ft.agg(0, 0)),
                kind: FailureKind::Full,
                salt: 0,
            }],
        };
        let truth = s.ground_truth(&ft);
        // agg(0,0) has 2 edge links + 2 core links in a 4-ary Fattree;
        // all are probe links.
        assert_eq!(truth.len(), 4);
    }

    #[test]
    fn server_links_are_excluded_from_truth() {
        let ft = Fattree::new(4).unwrap();
        let s = FailureScenario {
            failures: vec![InjectedFailure {
                target: FailureTarget::Switch(ft.edge(0, 0)),
                kind: FailureKind::Full,
                salt: 0,
            }],
        };
        // edge(0,0): 2 agg links are probe links; 2 server links are not.
        assert_eq!(s.ground_truth(&ft).len(), 2);
    }

    #[test]
    fn generator_respects_count_and_distinctness() {
        let ft = Fattree::new(6).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let gen = FailureGenerator::default();
        for n in [1usize, 5, 10, 20] {
            let s = gen.sample(&ft, n, &mut rng);
            assert_eq!(s.failures.len(), n);
        }
    }

    #[test]
    fn links_only_generator_never_kills_switches() {
        let ft = Fattree::new(4).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let gen = FailureGenerator::links_only();
        let s = gen.sample(&ft, 20, &mut rng);
        assert!(s
            .failures
            .iter()
            .all(|f| matches!(f.target, FailureTarget::Link(_))));
    }

    #[test]
    fn churn_events_round_trip_on_the_fabric() {
        use rand::SeedableRng;
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        let link = ft.ea_link(0, 0, 0);
        let route = ft.ecmp_route(ft.server(0, 0, 0), ft.server(1, 0, 0), 0);
        assert!(route.links.contains(&link));
        let mut rng = SmallRng::seed_from_u64(1);
        let flow = crate::FlowKey::udp(0, 4, 1, 2);

        ChurnSchedule::apply_to_fabric(&mut fabric, &TopologyEvent::LinkDown { link });
        assert!(!fabric.send(&route, flow, &mut rng).delivered);
        ChurnSchedule::apply_to_fabric(&mut fabric, &TopologyEvent::LinkUp { link });
        assert!(fabric.send(&route, flow, &mut rng).delivered);

        let agg = ft.agg(0, 0);
        assert!(route.nodes.contains(&agg));
        ChurnSchedule::apply_to_fabric(&mut fabric, &TopologyEvent::SwitchDrain { switch: agg });
        assert!(!fabric.send(&route, flow, &mut rng).delivered);
        ChurnSchedule::apply_to_fabric(&mut fabric, &TopologyEvent::SwitchUndrain { switch: agg });
        assert!(fabric.send(&route, flow, &mut rng).delivered);

        ChurnSchedule::apply_to_fabric(&mut fabric, &TopologyEvent::PodDrained { pod: 0 });
        assert!(!fabric.send(&route, flow, &mut rng).delivered);
        ChurnSchedule::apply_to_fabric(&mut fabric, &TopologyEvent::PodAdded { pod: 0 });
        assert!(fabric.send(&route, flow, &mut rng).delivered);
    }

    #[test]
    fn schedule_orders_and_filters_by_window() {
        let link = LinkId(9);
        let churn = ChurnSchedule::new()
            .at(5, TopologyEvent::LinkUp { link })
            .at(2, TopologyEvent::LinkDown { link });
        assert_eq!(churn.events()[0].window, 2);
        let due: Vec<_> = churn.due(2).collect();
        assert_eq!(due, vec![&TopologyEvent::LinkDown { link }]);
        assert_eq!(churn.due(0).count(), 0);
    }

    #[test]
    fn sampled_rates_stay_in_band() {
        let ft = Fattree::new(4).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let gen = FailureGenerator::default();
        let s = gen.sample(&ft, 50, &mut rng);
        for f in &s.failures {
            match f.kind {
                FailureKind::RandomPartial { rate } => {
                    assert!((1e-4..=1.0).contains(&rate));
                }
                FailureKind::DeterministicPartial { fraction } => {
                    assert!((1e-3..=1.0).contains(&fraction));
                }
                FailureKind::Full => {}
            }
        }
    }
}
