//! The live-topology view: versioned network state driving incremental
//! probe-plan updates.
//!
//! The paper stresses (§4, Table 3) that the probe matrix must be
//! recomputed quickly when the network changes. The runtime therefore no
//! longer freezes an immutable snapshot at build time: it watches a
//! [`TopologyView`], a wrapper around a shared [`DcnTopology`] that keeps
//! the *operational* state — which links are administratively down, which
//! switches are drained — under a monotonically increasing `epoch`.
//! Changes arrive as [`TopologyEvent`]s; every applied event bumps the
//! epoch and yields a [`TopologyDelta`] naming exactly the links whose
//! up/down state flipped, which is what the incremental planner consumes
//! to re-solve only the affected PMC subproblems.
//!
//! The underlying graph stays immutable (link and node ids never change);
//! expansion scenarios are expressed by starting with a pod drained and
//! bringing it up with [`TopologyEvent::PodAdded`].
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use detector_topology::{Fattree, SharedTopology, TopologyEvent, TopologyView};
//!
//! let ft = Arc::new(Fattree::new(4).unwrap());
//! let link = ft.ea_link(0, 0, 0);
//! let mut view = TopologyView::new(ft as SharedTopology);
//! assert_eq!(view.epoch(), 0);
//! assert!(view.is_link_up(link));
//!
//! let delta = view.apply(&TopologyEvent::LinkDown { link });
//! assert_eq!(delta.epoch, 1);
//! assert_eq!(delta.went_down, vec![link]);
//! assert!(!view.is_link_up(link));
//!
//! let delta = view.apply(&TopologyEvent::LinkUp { link });
//! assert_eq!(delta.came_up, vec![link]);
//! assert!(view.is_link_up(link));
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use detector_core::json::{Json, ToJson};
use detector_core::types::{LinkId, NodeId};

use crate::graph::NodeKind;
use crate::DcnTopology;

/// A shared, thread-safe handle to a monitored topology.
///
/// The runtime owns its topology and shares it with the controller and the
/// live [`TopologyView`]; `Send + Sync` keeps the door open for the
/// async/overlapping-window scheduler.
pub type SharedTopology = Arc<dyn DcnTopology + Send + Sync>;

/// One operational change to the monitored network.
///
/// Events mutate a [`TopologyView`], never the underlying graph: ids stay
/// stable, so probe paths, link indices and reports remain comparable
/// across epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyEvent {
    /// A link failed or was administratively disabled (both directions).
    LinkDown {
        /// The affected link.
        link: LinkId,
    },
    /// A previously down link was repaired/re-enabled.
    LinkUp {
        /// The affected link.
        link: LinkId,
    },
    /// A switch was drained for maintenance: every link adjacent to it is
    /// unusable until [`TopologyEvent::SwitchUndrain`].
    SwitchDrain {
        /// The drained switch.
        switch: NodeId,
    },
    /// A drained switch returned to service.
    SwitchUndrain {
        /// The restored switch.
        switch: NodeId,
    },
    /// A whole pod was drained (all its aggregation and edge switches) —
    /// the inverse of [`TopologyEvent::PodAdded`]. On topologies without
    /// pods (VL2, BCube) this affects no switch but still bumps the epoch.
    PodDrained {
        /// Fattree pod number.
        pod: u32,
    },
    /// A pod came online — the expansion scenario: build the topology at
    /// its final size, drain the not-yet-installed pod, and apply
    /// `PodAdded` when it is racked. Undrains the pod's switches;
    /// explicitly downed links ([`TopologyEvent::LinkDown`]) stay down.
    PodAdded {
        /// Fattree pod number.
        pod: u32,
    },
}

impl ToJson for TopologyEvent {
    fn to_json(&self) -> Json {
        match self {
            TopologyEvent::LinkDown { link } => Json::obj(vec![
                ("event", Json::Str("link_down".into())),
                ("link", Json::uint(link.0 as u64)),
            ]),
            TopologyEvent::LinkUp { link } => Json::obj(vec![
                ("event", Json::Str("link_up".into())),
                ("link", Json::uint(link.0 as u64)),
            ]),
            TopologyEvent::SwitchDrain { switch } => Json::obj(vec![
                ("event", Json::Str("switch_drain".into())),
                ("switch", Json::uint(switch.0 as u64)),
            ]),
            TopologyEvent::SwitchUndrain { switch } => Json::obj(vec![
                ("event", Json::Str("switch_undrain".into())),
                ("switch", Json::uint(switch.0 as u64)),
            ]),
            TopologyEvent::PodDrained { pod } => Json::obj(vec![
                ("event", Json::Str("pod_drained".into())),
                ("pod", Json::uint(*pod as u64)),
            ]),
            TopologyEvent::PodAdded { pod } => Json::obj(vec![
                ("event", Json::Str("pod_added".into())),
                ("pod", Json::uint(*pod as u64)),
            ]),
        }
    }
}

/// What one applied [`TopologyEvent`] changed, link-wise.
///
/// The incremental planner re-solves exactly the subproblems whose
/// universes intersect `went_down ∪ came_up`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopologyDelta {
    /// The view's epoch after the event (every event bumps it, even a
    /// no-op such as downing an already-down link).
    pub epoch: u64,
    /// Links that became unusable, sorted ascending.
    pub went_down: Vec<LinkId>,
    /// Links that became usable again, sorted ascending.
    pub came_up: Vec<LinkId>,
}

impl TopologyDelta {
    /// True when no link changed state (the event was redundant).
    pub fn is_empty(&self) -> bool {
        self.went_down.is_empty() && self.came_up.is_empty()
    }

    /// All changed links (down and up), sorted ascending.
    pub fn changed_links(&self) -> Vec<LinkId> {
        let mut all: Vec<LinkId> = self
            .went_down
            .iter()
            .chain(self.came_up.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all
    }
}

impl ToJson for TopologyDelta {
    fn to_json(&self) -> Json {
        let links =
            |ls: &[LinkId]| Json::Array(ls.iter().map(|l| Json::uint(l.0 as u64)).collect());
        Json::obj(vec![
            ("epoch", Json::uint(self.epoch)),
            ("went_down", links(&self.went_down)),
            ("came_up", links(&self.came_up)),
        ])
    }
}

/// A versioned, mutable view over a shared topology.
///
/// Wraps the immutable graph with the operational state that
/// [`TopologyEvent`]s mutate. `offline_links()` is the derived set the
/// planner and dispatcher consult: explicitly downed links plus every
/// link adjacent to a drained switch.
#[derive(Clone)]
pub struct TopologyView {
    topo: SharedTopology,
    epoch: u64,
    down_links: HashSet<LinkId>,
    drained: HashSet<NodeId>,
    /// Derived: `down_links ∪ links adjacent to drained switches`.
    offline: HashSet<LinkId>,
}

impl TopologyView {
    /// A pristine view: epoch 0, every link up, no switch drained.
    pub fn new(topo: SharedTopology) -> Self {
        Self {
            topo,
            epoch: 0,
            down_links: HashSet::new(),
            drained: HashSet::new(),
            offline: HashSet::new(),
        }
    }

    /// The monitored topology.
    pub fn topology(&self) -> &dyn DcnTopology {
        self.topo.as_ref()
    }

    /// A shared handle to the monitored topology.
    pub fn shared(&self) -> SharedTopology {
        Arc::clone(&self.topo)
    }

    /// The current epoch: 0 at construction, +1 per applied event.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Links explicitly taken down by [`TopologyEvent::LinkDown`].
    pub fn down_links(&self) -> &HashSet<LinkId> {
        &self.down_links
    }

    /// Switches currently drained.
    pub fn drained_switches(&self) -> &HashSet<NodeId> {
        &self.drained
    }

    /// Every unusable link: explicitly down, or adjacent to a drained
    /// switch.
    pub fn offline_links(&self) -> &HashSet<LinkId> {
        &self.offline
    }

    /// True when the link is usable in the current epoch.
    pub fn is_link_up(&self, link: LinkId) -> bool {
        !self.offline.contains(&link)
    }

    /// The aggregation/edge switches of a Fattree pod (empty on
    /// topologies without pods).
    pub fn pod_switches(&self, pod: u32) -> Vec<NodeId> {
        pod_switches(self.topo.as_ref(), pod)
    }

    /// Applies one event: bumps the epoch and returns the link-state
    /// delta. Redundant events (downing a down link) yield an empty delta
    /// but still advance the epoch, so event streams stay totally ordered.
    pub fn apply(&mut self, event: &TopologyEvent) -> TopologyDelta {
        match event {
            TopologyEvent::LinkDown { link } => {
                self.down_links.insert(*link);
            }
            TopologyEvent::LinkUp { link } => {
                self.down_links.remove(link);
            }
            TopologyEvent::SwitchDrain { switch } => {
                self.drained.insert(*switch);
            }
            TopologyEvent::SwitchUndrain { switch } => {
                self.drained.remove(switch);
            }
            TopologyEvent::PodDrained { pod } => {
                self.drained.extend(self.pod_switches(*pod));
            }
            TopologyEvent::PodAdded { pod } => {
                for s in self.pod_switches(*pod) {
                    self.drained.remove(&s);
                }
            }
        }
        self.epoch += 1;
        self.refresh_offline()
    }

    /// Recomputes the derived offline set and diffs it against the
    /// previous one.
    fn refresh_offline(&mut self) -> TopologyDelta {
        let graph = self.topo.graph();
        let mut offline = self.down_links.clone();
        for &s in &self.drained {
            for &(_, l) in graph.neighbors(s) {
                offline.insert(l);
            }
        }
        let mut went_down: Vec<LinkId> = offline.difference(&self.offline).copied().collect();
        let mut came_up: Vec<LinkId> = self.offline.difference(&offline).copied().collect();
        went_down.sort_unstable();
        came_up.sort_unstable();
        self.offline = offline;
        TopologyDelta {
            epoch: self.epoch,
            went_down,
            came_up,
        }
    }
}

impl core::fmt::Debug for TopologyView {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TopologyView")
            .field("topology", &self.topo.name())
            .field("epoch", &self.epoch)
            .field("down_links", &self.down_links.len())
            .field("drained", &self.drained.len())
            .finish()
    }
}

/// The aggregation/edge switches of a Fattree pod (empty on topologies
/// without pods).
pub fn pod_switches(topo: &dyn DcnTopology, pod: u32) -> Vec<NodeId> {
    topo.graph()
        .nodes()
        .iter()
        .filter(|n| {
            matches!(
                n.kind,
                NodeKind::AggSwitch { pod: p, .. } | NodeKind::EdgeSwitch { pod: p, .. }
                if p == pod
            )
        })
        .map(|n| n.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fattree, Vl2};

    fn view(k: u32) -> (Arc<Fattree>, TopologyView) {
        let ft = Arc::new(Fattree::new(k).unwrap());
        let v = TopologyView::new(ft.clone() as SharedTopology);
        (ft, v)
    }

    #[test]
    fn epoch_advances_even_on_redundant_events() {
        let (ft, mut v) = view(4);
        let link = ft.ea_link(0, 0, 0);
        let d1 = v.apply(&TopologyEvent::LinkDown { link });
        assert_eq!(d1.epoch, 1);
        assert_eq!(d1.went_down, vec![link]);
        let d2 = v.apply(&TopologyEvent::LinkDown { link });
        assert_eq!(d2.epoch, 2);
        assert!(d2.is_empty());
    }

    #[test]
    fn switch_drain_takes_adjacent_links_down() {
        let (ft, mut v) = view(4);
        let agg = ft.agg(0, 0);
        let d = v.apply(&TopologyEvent::SwitchDrain { switch: agg });
        // agg(0,0) has 2 edge links + 2 core links in a 4-ary Fattree.
        assert_eq!(d.went_down.len(), 4);
        for l in &d.went_down {
            assert!(!v.is_link_up(*l));
        }
        let d = v.apply(&TopologyEvent::SwitchUndrain { switch: agg });
        assert_eq!(d.came_up.len(), 4);
        assert!(v.offline_links().is_empty());
    }

    #[test]
    fn link_down_survives_an_overlapping_drain_cycle() {
        let (ft, mut v) = view(4);
        let link = ft.ea_link(0, 0, 0); // edge(0,0) ↔ agg(0,0)
        v.apply(&TopologyEvent::LinkDown { link });
        v.apply(&TopologyEvent::SwitchDrain {
            switch: ft.agg(0, 0),
        });
        // Undraining must not resurrect the explicitly downed link.
        let d = v.apply(&TopologyEvent::SwitchUndrain {
            switch: ft.agg(0, 0),
        });
        assert!(!d.came_up.contains(&link));
        assert!(!v.is_link_up(link));
    }

    #[test]
    fn pod_events_cover_the_pods_switch_links() {
        let (_ft, mut v) = view(4);
        let d = v.apply(&TopologyEvent::PodDrained { pod: 1 });
        // Pod 1: 2 aggs (2 EA + 2 AC links each) + 2 edges (EA links
        // already counted + 2 server links each): 4 EA + 4 AC + 4 server.
        assert_eq!(d.went_down.len(), 12);
        assert_eq!(v.drained_switches().len(), 4);
        let d = v.apply(&TopologyEvent::PodAdded { pod: 1 });
        assert_eq!(d.came_up.len(), 12);
        assert!(v.offline_links().is_empty());
    }

    #[test]
    fn pod_events_are_noops_on_podless_topologies() {
        let vl = Arc::new(Vl2::new(4, 4, 2).unwrap());
        let mut v = TopologyView::new(vl as SharedTopology);
        let d = v.apply(&TopologyEvent::PodDrained { pod: 0 });
        assert!(d.is_empty());
        assert_eq!(d.epoch, 1);
    }

    #[test]
    fn events_round_trip_through_json() {
        let cases = [
            (
                TopologyEvent::LinkDown { link: LinkId(7) },
                r#"{"event":"link_down","link":7}"#,
            ),
            (
                TopologyEvent::LinkUp { link: LinkId(7) },
                r#"{"event":"link_up","link":7}"#,
            ),
            (
                TopologyEvent::SwitchDrain { switch: NodeId(3) },
                r#"{"event":"switch_drain","switch":3}"#,
            ),
            (
                TopologyEvent::SwitchUndrain { switch: NodeId(3) },
                r#"{"event":"switch_undrain","switch":3}"#,
            ),
            (
                TopologyEvent::PodDrained { pod: 2 },
                r#"{"event":"pod_drained","pod":2}"#,
            ),
            (
                TopologyEvent::PodAdded { pod: 2 },
                r#"{"event":"pod_added","pod":2}"#,
            ),
        ];
        for (ev, golden) in cases {
            let text = ev.to_json().to_string();
            assert_eq!(text, golden);
            assert_eq!(Json::parse(&text), Ok(ev.to_json()));
        }
    }

    #[test]
    fn deltas_round_trip_through_json() {
        let cases = [
            (
                TopologyDelta::default(),
                r#"{"epoch":0,"went_down":[],"came_up":[]}"#,
            ),
            (
                TopologyDelta {
                    epoch: 9,
                    went_down: vec![LinkId(3), LinkId(17)],
                    came_up: vec![LinkId(4)],
                },
                r#"{"epoch":9,"went_down":[3,17],"came_up":[4]}"#,
            ),
        ];
        for (d, golden) in cases {
            let text = d.to_json().to_string();
            assert_eq!(text, golden);
            assert_eq!(Json::parse(&text), Ok(d.to_json()));
        }
    }

    #[test]
    fn changed_links_merges_both_directions() {
        let (ft, mut v) = view(4);
        v.apply(&TopologyEvent::LinkDown {
            link: ft.ea_link(0, 0, 0),
        });
        let mut d = v.apply(&TopologyEvent::LinkUp {
            link: ft.ea_link(0, 0, 0),
        });
        d.went_down = vec![ft.ea_link(1, 0, 0)];
        let all = d.changed_links();
        assert_eq!(all.len(), 2);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
    }
}
