//! The controller: incremental probe planning and pinglist dispatch
//! (§3.1), driven by the live [`TopologyView`].
//!
//! The controller is an *incremental planner*: it owns a
//! [`TopologyView`] whose [`TopologyEvent`]s produce link-state deltas,
//! and a partitioned [`ProbePlan`] that re-solves only the subproblems
//! the delta touches. A link leaves the plan as a
//! [`TopologyEvent::LinkDown`] on that delta path, and returns as a
//! [`TopologyEvent::LinkUp`].

use std::collections::HashSet;

use detector_core::dense::Runs;
use detector_core::json::{Json, ToJson};
use detector_core::pmc::{PmcError, ProbeMatrix};
use detector_core::types::{LinkId, NodeId, PathRef};
use detector_topology::{DcnTopology, TopologyEvent, TopologyView};

use crate::dispatch::DispatchStats;
use crate::pinglist::{seal_all, PingEntry, Pinglist};
use crate::planner::{ProbePlan, ReplanStats, EXHAUSTIVE_LIMIT};
use crate::{SharedTopology, SystemConfig};

/// Everything the controller dispatches for one cycle.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// The probe matrix of this cycle.
    pub matrix: ProbeMatrix,
    /// One pinglist per active pinger, ascending by pinger.
    pub pinglists: Vec<Pinglist>,
    /// Cycle number.
    pub version: u64,
}

/// The outcome of applying one or more [`TopologyEvent`]s: what changed
/// and what the incremental re-plan cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanUpdate {
    /// The view's epoch after the event(s).
    pub epoch: u64,
    /// Links whose up/down state actually flipped.
    pub links_changed: usize,
    /// Change in the number of deployed probe paths (new − old).
    pub probes_delta: i64,
    /// What installing the re-planned deployment cost: lists
    /// re-dispatched (a single-cell delta re-dispatches only the lists
    /// carrying paths of the touched cell), entries and wire bytes that
    /// traveled. Filled by the runtime's re-plan
    /// ([`Detector::apply`](crate::Detector::apply)), since the controller
    /// itself does not own the deployed lists; all zero when nothing was
    /// re-dispatched.
    pub dispatch: DispatchStats,
    /// Wall-clock time of the whole re-plan (view update, plan patch,
    /// deployment and dispatch), microseconds. Filled by the runtime's
    /// re-plan, as `dispatch` is; 0 from [`Controller::apply_events`].
    pub replan_micros: u64,
    /// Per-cell re-plan accounting.
    pub stats: ReplanStats,
}

impl ToJson for PlanUpdate {
    fn to_json(&self) -> Json {
        let (d, s) = (&self.dispatch, &self.stats);
        let count = |n: usize| Json::uint(n as u64);
        Json::obj(vec![
            ("epoch", Json::uint(self.epoch)),
            ("links_changed", count(self.links_changed)),
            ("probes_delta", Json::Int(self.probes_delta)),
            ("lists_redispatched", count(d.lists_redispatched)),
            ("entries_diffed", count(d.entries_diffed)),
            ("bytes_dispatched", Json::uint(d.bytes_dispatched)),
            ("replan_micros", Json::uint(self.replan_micros)),
            ("cells_resolved", count(s.cells_resolved)),
            ("cells_restored", count(s.cells_restored)),
            ("cells_total", count(s.cells_total)),
            ("cells_rebased", count(s.cells_rebased)),
        ])
    }
}

/// The logical controller.
pub struct Controller {
    view: TopologyView,
    cfg: SystemConfig,
    version: u64,
    /// Below this many original paths the controller materializes the full
    /// candidate set (small testbeds); above it, the symmetry plan is used.
    exhaustive_limit: u128,
    /// The partitioned plan, built lazily on first use.
    plan: Option<ProbePlan>,
}

impl Controller {
    /// A controller for `topo` with the given system configuration.
    pub fn new(topo: SharedTopology, cfg: SystemConfig) -> Self {
        Self {
            view: TopologyView::new(topo),
            cfg,
            version: 0,
            exhaustive_limit: EXHAUSTIVE_LIMIT,
            plan: None,
        }
    }

    /// Overrides the materialization threshold (tests and benches force
    /// the symmetric planner with 0).
    pub fn with_exhaustive_limit(mut self, limit: u128) -> Self {
        self.exhaustive_limit = limit;
        self
    }

    /// The monitored topology.
    pub fn topology(&self) -> &dyn DcnTopology {
        self.view.topology()
    }

    /// The live topology view (epoch, offline links, drained switches).
    pub fn view(&self) -> &TopologyView {
        &self.view
    }

    /// The view's current epoch.
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// Applies one topology event, incrementally patching the probe plan.
    pub fn apply_event(&mut self, event: &TopologyEvent) -> Result<PlanUpdate, PmcError> {
        self.apply_events(std::iter::once(*event))
    }

    /// Applies a batch of topology events as one re-plan: the view absorbs
    /// every event first, then the merged link-state delta patches the
    /// plan once.
    pub fn apply_events(
        &mut self,
        events: impl IntoIterator<Item = TopologyEvent>,
    ) -> Result<PlanUpdate, PmcError> {
        let mut changed: HashSet<LinkId> = HashSet::new();
        for ev in events {
            let delta = self.view.apply(&ev);
            // A link that flips twice within the batch nets out below via
            // the offline-set comparison inside the plan.
            changed.extend(delta.went_down);
            changed.extend(delta.came_up);
        }
        let mut changed: Vec<LinkId> = changed.into_iter().collect();
        changed.sort_unstable();

        let mut stats = ReplanStats::default();
        let mut probes_delta = 0;
        // With no plan yet, the first compute_matrix() builds against
        // the already-updated view; nothing to patch. A failed patch leaves
        // the plan as it was (the patch is atomic) and behind the view,
        // which the next compute_matrix() re-syncs.
        if let Some(plan) = self.plan.as_mut().filter(|_| !changed.is_empty()) {
            let old_paths = plan.num_paths();
            stats = plan.apply(&changed, self.view.offline_links())?;
            probes_delta = plan.num_paths() as i64 - old_paths as i64;
        }
        Ok(PlanUpdate {
            epoch: self.view.epoch(),
            links_changed: changed.len(),
            probes_delta,
            stats,
            // Dispatch accounting and timing are the runtime's re-plan's.
            ..PlanUpdate::default()
        })
    }

    /// The partitioned probe plan, if one has been built — exposes the
    /// per-cell id ranges ([`ProbePlan::cell_ranges`]) so tests and
    /// operator tooling can reason about dispatch stability.
    pub fn probe_plan(&self) -> Option<&ProbePlan> {
        self.plan.as_ref()
    }

    /// The probe matrix for the current topology state, assembled from
    /// the incrementally maintained plan. If a previous
    /// [`Controller::apply_events`] failed mid-patch, this re-syncs the
    /// plan to the view first (the plan diffs the offline sets itself,
    /// so an in-sync plan solves nothing).
    pub fn compute_matrix(&mut self) -> Result<ProbeMatrix, PmcError> {
        if self.plan.is_none() {
            self.plan = Some(ProbePlan::with_options(
                self.view.shared(),
                &self.cfg.pmc,
                self.view.offline_links(),
                self.exhaustive_limit,
                self.cfg.id_headroom,
            )?);
        }
        let plan = self.plan.as_mut().expect("plan built above");
        plan.apply(&[], self.view.offline_links())?;
        Ok(plan.matrix())
    }

    /// Computes the matrix and builds pinglists, excluding unhealthy
    /// servers from pinger duty (watchdog input, §3.2).
    pub fn build_deployment(
        &mut self,
        unhealthy: &HashSet<NodeId>,
    ) -> Result<Deployment, PmcError> {
        let matrix = self.compute_matrix()?;
        self.version += 1;
        let pinglists = self.assign(&matrix, unhealthy);
        Ok(Deployment {
            matrix,
            pinglists,
            version: self.version,
        })
    }

    /// Distributes matrix paths to pingers: ≥ 2 pingers per source ToR
    /// per path (fault tolerance), plus in-rack probes covering
    /// server–ToR links.
    ///
    /// Every switch's usable servers are looked up once per call, into
    /// one run per node, and every path and in-rack loop reads them from
    /// there. A ToR-based path (Fattree, VL2) goes to the first
    /// `pingers_per_tor` usable servers under its source ToR, two of them
    /// rotated by the path id, and its responder is usable server
    /// `id % len` under the destination ToR; a server-based path (BCube)
    /// goes to its first server. Each pinger then probes every other
    /// usable server under its own switch. Every list is counted before it
    /// is filled, so its entries and its one run array of routes are
    /// allocated once, at their size. Lists come out ascending by pinger
    /// and sealed.
    pub fn assign(&self, matrix: &ProbeMatrix, unhealthy: &HashSet<NodeId>) -> Vec<Pinglist> {
        let graph = self.view.topology().graph();
        let offline = self.view.offline_links();
        let interval_us = (1_000_000.0 / self.cfg.probe_rate_pps) as u64;

        // A server can serve as pinger or responder only when it is
        // healthy and its access link is up (its ToR may be drained). With
        // no server sick and no link off, each is, and its access link is
        // not looked up.
        let everyone = unhealthy.is_empty() && offline.is_empty();
        let usable = |server: NodeId| -> bool {
            if everyone {
                return true;
            }
            if unhealthy.contains(&server) {
                return false;
            }
            graph
                .switch_of(server)
                .and_then(|tor| graph.link_between(server, tor))
                .is_none_or(|l| !offline.contains(&l))
        };
        // Every switch's usable servers, in adjacency order: run `n` is
        // node `n`'s (empty for a server).
        let mut servers = Runs::default();
        servers.reserve(graph.num_nodes(), graph.num_servers());
        for node in graph.nodes() {
            let switch = node.kind.is_switch();
            let under = graph.neighbors(node.id).iter().map(|&(n, _)| n);
            servers.push_run(
                under.filter(|&n| switch && !graph.node(n).kind.is_switch() && usable(n)),
            );
        }

        // A path's pingers (the first one or two of the array) and its
        // responder: under the source and the destination ToR for ToR
        // endpoints, the path's own ends for server endpoints.
        let place = |path: PathRef<'_>| -> Option<([NodeId; 2], usize, NodeId)> {
            let nodes = path.nodes();
            let (&first, &last) = (nodes.first()?, nodes.last()?);
            if !graph.node(first).kind.is_switch() {
                return usable(first).then_some(([first; 2], 1, last));
            }
            let under = servers.run(first.index());
            let pingers = under.get(..under.len().min(self.cfg.pingers_per_tor))?;
            let responders = servers.run(last.index());
            let responder = *responders.get(path.id.index() % responders.len().max(1))?;
            let pinger = |j: usize| pingers.get((path.id.index() + j) % pingers.len().max(1));
            Some(([*pinger(0)?, *pinger(1)?], pingers.len().min(2), responder))
        };
        // A pinger's switch and the other usable servers under it.
        let rack = |pinger: NodeId| {
            let tor = graph.switch_of(pinger);
            let peers = tor.map(|tor| servers.run(tor.index())).unwrap_or_default();
            (
                tor,
                peers.iter().copied().filter(move |&peer| peer != pinger),
            )
        };

        // Each pinger's entries and route nodes, counted first so that
        // every list is reserved exactly and filled in place.
        let mut sizes = vec![(0u32, 0u32); graph.num_nodes()];
        for path in &matrix.paths {
            let Some((pingers, take, responder)) = place(path) else {
                continue;
            };
            for &pinger in &pingers[..take] {
                let hops = route_of(pinger, path.nodes(), responder).count() as u32;
                let size = &mut sizes[pinger.index()];
                *size = (size.0 + 1, size.1 + hops);
            }
        }
        // One list per active pinger, ascending by pinger, found through
        // its node id.
        let mut lists = Vec::with_capacity(sizes.iter().filter(|s| s.0 > 0).count());
        let mut list_of: Vec<Option<u32>> = vec![None; graph.num_nodes()];
        for (node, &(entries, hops)) in graph.nodes().iter().zip(&sizes) {
            if entries == 0 {
                continue;
            }
            let (entries, hops) = (entries as usize, hops as usize);
            let pinger = node.id;
            let peers = rack(pinger).1.count();
            let mut routes = Runs::default();
            routes.reserve(entries + peers, hops + 3 * peers);
            list_of[pinger.index()] = Some(lists.len() as u32);
            lists.push(Pinglist {
                version: self.version,
                pinger,
                entries: Vec::with_capacity(entries + peers),
                routes,
                interval_us,
                base_sport: self.cfg.base_sport,
                port_range: self.cfg.port_range,
                dport: self.cfg.dport,
                stamp: 0, // Sealed below, once assembly is complete.
            });
        }

        for path in &matrix.paths {
            let Some((pingers, take, responder)) = place(path) else {
                continue;
            };
            let nodes = path.nodes();
            let waypoint = {
                let mid = nodes[nodes.len() / 2];
                graph.node(mid).kind.is_switch().then_some(mid)
            };
            let entry = PingEntry {
                path: Some(path.id),
                responder,
                waypoint,
            };
            for &pinger in &pingers[..take] {
                let Some(list) = list_of[pinger.index()].and_then(|li| lists.get_mut(li as usize))
                else {
                    continue;
                };
                list.push(entry, route_of(pinger, nodes, responder));
            }
        }

        // In-rack probes: each pinger probes every other server under its
        // ToR to cover server–ToR links (§3.1).
        for list in &mut lists {
            let pinger = list.pinger;
            let (Some(tor), peers) = rack(pinger) else {
                continue;
            };
            for peer in peers {
                let entry = PingEntry {
                    path: None,
                    responder: peer,
                    waypoint: None,
                };
                list.push(entry, [pinger, tor, peer]);
            }
        }
        // Freeze each list's content stamp once, so per-window binding
        // checks compare two u64s instead of re-hashing every entry.
        seal_all(&mut lists);
        lists
    }
}

/// The route of `pinger`'s entry for a path through `nodes`: a pinger
/// under a ToR wraps the path between itself and the responder; a server
/// endpoint's path is its route already.
fn route_of(
    pinger: NodeId,
    nodes: &[NodeId],
    responder: NodeId,
) -> impl Iterator<Item = NodeId> + '_ {
    let ends = (nodes.first() != Some(&pinger)).then_some((pinger, responder));
    let head = ends.map(|(pinger, _)| pinger);
    (head.into_iter().chain(nodes.iter().copied())).chain(ends.map(|(_, responder)| responder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_topology::Fattree;
    use std::sync::Arc;

    /// The canonical plan for the view's current offline set, built from
    /// scratch: the targets oracle for the incremental plan (and its row
    /// oracle while nothing is offline).
    fn from_scratch(ctl: &Controller) -> ProbeMatrix {
        let view = ctl.view();
        let plan = ProbePlan::with_options(
            view.shared(),
            &ctl.cfg.pmc,
            view.offline_links(),
            ctl.exhaustive_limit,
            ctl.cfg.id_headroom,
        );
        plan.unwrap().matrix()
    }

    fn deployment(k: u32) -> (Arc<Fattree>, Deployment) {
        let ft = Arc::new(Fattree::new(k).unwrap());
        let mut ctl = Controller::new(ft.clone(), SystemConfig::default());
        let d = ctl.build_deployment(&HashSet::new()).unwrap();
        (ft, d)
    }

    #[test]
    fn every_matrix_path_is_assigned_twice() {
        let (_ft, d) = deployment(4);
        // Ids are segmented (per-cell ranges with headroom), so count per
        // id instead of indexing a dense array.
        let mut counts: std::collections::HashMap<detector_core::types::PathId, usize> =
            std::collections::HashMap::new();
        for l in &d.pinglists {
            for e in &l.entries {
                if let Some(pid) = e.path {
                    *counts.entry(pid).or_default() += 1;
                }
            }
        }
        assert_eq!(counts.len(), d.matrix.num_paths());
        assert!(counts.values().all(|&c| c == 2), "counts: {counts:?}");
    }

    #[test]
    fn routes_start_at_pinger_and_end_at_responder() {
        let (ft, d) = deployment(4);
        for l in &d.pinglists {
            assert_eq!(l.routes.len(), l.entries.len());
            for (e, route) in l.iter() {
                assert_eq!(route[0], l.pinger);
                assert_eq!(*route.last().unwrap(), e.responder);
                // And the route must be walkable in the graph.
                ft.graph()
                    .route_from_nodes(route.to_vec())
                    .expect("pinglist route must be connected");
            }
        }
    }

    #[test]
    fn in_rack_probes_cover_rack_peers() {
        let (ft, d) = deployment(4);
        // Each pinger probes the one other server in its rack (k=4 ⇒ 2
        // servers per ToR).
        for l in &d.pinglists {
            let in_rack = l.entries.iter().filter(|e| e.path.is_none()).count();
            assert_eq!(in_rack, 1, "pinger {:?}", l.pinger);
        }
        let _ = ft;
    }

    #[test]
    fn unhealthy_servers_are_not_pingers() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft.clone(), SystemConfig::default());
        let mut bad = HashSet::new();
        // All servers of pod 0, rack 0 are sick.
        bad.insert(ft.server(0, 0, 0));
        bad.insert(ft.server(0, 0, 1));
        let d = ctl.build_deployment(&bad).unwrap();
        for l in &d.pinglists {
            assert!(!bad.contains(&l.pinger));
        }
    }

    #[test]
    fn version_increments_per_cycle() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft, SystemConfig::default());
        let d1 = ctl.build_deployment(&HashSet::new()).unwrap();
        let d2 = ctl.build_deployment(&HashSet::new()).unwrap();
        assert_eq!(d1.version + 1, d2.version);
    }

    #[test]
    fn downed_links_are_never_probed() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft.clone(), SystemConfig::default());
        let dead = ft.ac_link(0, 0, 0);
        ctl.apply_events([TopologyEvent::LinkDown { link: dead }])
            .unwrap();
        let d = ctl.build_deployment(&HashSet::new()).unwrap();
        for p in &d.matrix.paths {
            assert!(!p.covers(dead), "path {} crosses the dead link", p.id);
        }
        // The dead link is reported uncoverable; its neighbors are still
        // monitored.
        assert!(d.matrix.uncoverable.contains(&dead));
        assert!(d.matrix.num_paths() > 0);
        let healthy = ft.ac_link(1, 0, 0);
        assert!(d.matrix.paths.iter().any(|p| p.covers(healthy)));
    }

    #[test]
    fn exclusion_rides_the_delta_path() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft.clone(), SystemConfig::default());
        // Build first so exclusion exercises the incremental patch.
        ctl.build_deployment(&HashSet::new()).unwrap();
        let dead = ft.ea_link(2, 1, 0);
        let up = ctl
            .apply_events([TopologyEvent::LinkDown { link: dead }])
            .unwrap();
        assert_eq!(up.epoch, 1);
        assert_eq!(up.links_changed, 1);
        assert_eq!(up.stats.cells_resolved, 1);
        assert_eq!(up.stats.cells_total, 2);

        // Clearing restores the pristine plan without re-solving.
        let up = ctl
            .apply_events([TopologyEvent::LinkUp { link: dead }])
            .unwrap();
        assert_eq!(up.epoch, 2);
        assert_eq!(up.stats.cells_restored, 1);
        assert_eq!(up.stats.cells_resolved, 0);
        assert!(ctl.view().down_links().is_empty());
    }

    #[test]
    fn incremental_matrix_equals_from_scratch_after_events() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft.clone(), SystemConfig::default());
        ctl.build_deployment(&HashSet::new()).unwrap();
        ctl.apply_event(&TopologyEvent::SwitchDrain {
            switch: ft.agg(1, 1),
        })
        .unwrap();
        ctl.apply_event(&TopologyEvent::LinkDown {
            link: ft.ea_link(0, 0, 0),
        })
        .unwrap();
        // Degraded, the repaired plan achieves what the from-scratch
        // plan achieves (coverage compared up to α; beyond it is
        // incidental in either) without probing an offline link…
        let patched = ctl.compute_matrix().unwrap();
        let scratch = from_scratch(&ctl);
        let alpha = ctl.cfg.pmc.alpha;
        let certified = |m: &ProbeMatrix| {
            let a = m.achieved;
            (a.targets_met, a.identifiability, a.coverage.min(alpha))
        };
        assert_eq!(certified(&patched), certified(&scratch));
        assert_eq!(patched.uncoverable, scratch.uncoverable);
        for l in ctl.view().offline_links() {
            assert!(patched.paths.iter().all(|p| !p.covers(*l)));
        }

        // …and healed, it is the from-scratch plan row for row; ids may
        // differ (the patched plan keeps its birth ranges, the scratch
        // plan derives fresh ones).
        ctl.apply_event(&TopologyEvent::SwitchUndrain {
            switch: ft.agg(1, 1),
        })
        .unwrap();
        ctl.apply_event(&TopologyEvent::LinkUp {
            link: ft.ea_link(0, 0, 0),
        })
        .unwrap();
        let patched = ctl.compute_matrix().unwrap();
        let scratch = from_scratch(&ctl);
        assert_eq!(patched.num_paths(), scratch.num_paths());
        for (pa, pb) in patched.paths.iter().zip(&scratch.paths) {
            assert_eq!(pa.links(), pb.links());
            assert_eq!(pa.nodes(), pb.nodes());
        }
        assert_eq!(patched.achieved, scratch.achieved);
    }

    #[test]
    fn drained_tor_fields_no_pingers() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft.clone(), SystemConfig::default());
        let tor = ft.edge(0, 0);
        ctl.apply_event(&TopologyEvent::SwitchDrain { switch: tor })
            .unwrap();
        let d = ctl.build_deployment(&HashSet::new()).unwrap();
        for l in &d.pinglists {
            assert_ne!(ft.graph().switch_of(l.pinger), Some(tor));
            for (_, route) in l.iter() {
                assert!(!route.contains(&tor), "route crosses drained ToR");
            }
        }
    }

    /// The install's version rebase: `rebase_and_diff`'s count of
    /// re-dispatched lists.
    fn rebase(next: &mut Deployment, prev: &Deployment) -> usize {
        crate::dispatch::rebase_and_diff(prev, next, &[])
            .1
            .lists_redispatched
    }

    #[test]
    fn rebase_keeps_versions_of_unchanged_lists() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft, SystemConfig::default());
        let d1 = ctl.build_deployment(&HashSet::new()).unwrap();
        let mut d2 = ctl.build_deployment(&HashSet::new()).unwrap();
        assert!(d2.pinglists.iter().all(|l| l.version == d2.version));
        let redispatched = rebase(&mut d2, &d1);
        // Nothing changed between the cycles, so every list keeps its
        // original version and nothing is re-dispatched.
        assert_eq!(redispatched, 0);
        assert!(d2.pinglists.iter().all(|l| l.version == d1.version));
    }

    /// [`rebase`] by a linear pinger scan per list — the quadratic form
    /// the binary search replaced.
    fn rebase_by_scan(next: &mut Deployment, prev: &Deployment) -> usize {
        let mut redispatched = 0;
        for list in &mut next.pinglists {
            match prev.pinglists.iter().find(|l| l.pinger == list.pinger) {
                Some(old) if old.same_assignment(list) => list.version = old.version,
                _ => redispatched += 1,
            }
        }
        redispatched
    }

    /// Rebases a copy of `next` each way; returns the (agreed) count.
    fn rebase_both_ways(next: &mut Deployment, prev: &Deployment) -> usize {
        let mut scanned = next.clone();
        let want = rebase_by_scan(&mut scanned, prev);
        assert_eq!(rebase(next, prev), want);
        let versions = |d: &Deployment| d.pinglists.iter().map(|l| l.version).collect::<Vec<_>>();
        assert_eq!(versions(next), versions(&scanned));
        want
    }

    #[test]
    fn rebase_matches_a_linear_scan_with_pingers_added_removed_and_changed() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft, SystemConfig::default());
        let full = ctl.build_deployment(&HashSet::new()).unwrap();
        let lists = full.pinglists.len();
        assert!(lists > 2);

        // Unchanged cycle.
        let mut next = ctl.build_deployment(&HashSet::new()).unwrap();
        assert_eq!(rebase_both_ways(&mut next, &full), 0);

        // Pinger added: `prev` lacks a list in the middle of the order.
        let mut prev = full.clone();
        let added = prev.pinglists.remove(lists / 2).pinger;
        let mut next = ctl.build_deployment(&HashSet::new()).unwrap();
        assert_eq!(rebase_both_ways(&mut next, &prev), 1);
        for l in &next.pinglists {
            assert_eq!(l.version == next.version, l.pinger == added);
        }

        // Pinger removed: `prev` has a list `next` no longer carries.
        let mut next = ctl.build_deployment(&HashSet::new()).unwrap();
        next.pinglists.remove(0);
        assert_eq!(rebase_both_ways(&mut next, &full), 0);
        assert!(next.pinglists.iter().all(|l| l.version == full.version));

        // A link-down re-plan with four pingers a ToR: some lists
        // change, some keep their version.
        let ft = Arc::new(Fattree::new(8).unwrap());
        let cfg = SystemConfig {
            pingers_per_tor: 4,
            ..SystemConfig::default()
        };
        let mut ctl = Controller::new(ft.clone(), cfg);
        let prev = ctl.build_deployment(&HashSet::new()).unwrap();
        let link = ft.ea_link(1, 1, 0);
        ctl.apply_event(&TopologyEvent::LinkDown { link }).unwrap();
        let mut next = ctl.build_deployment(&HashSet::new()).unwrap();
        let redispatched = rebase_both_ways(&mut next, &prev);
        assert!(0 < redispatched && redispatched < next.pinglists.len());
    }

    #[test]
    fn waypoint_is_a_switch() {
        let (ft, d) = deployment(4);
        for l in &d.pinglists {
            for e in &l.entries {
                if let Some(w) = e.waypoint {
                    assert!(ft.graph().node(w).kind.is_switch());
                }
            }
        }
    }
}
