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

use detector_core::pmc::{PmcError, ProbeMatrix};
use detector_core::types::{LinkId, NodeId};
use detector_topology::{Dcn, DcnTopology, TopologyEvent, TopologyView};

use crate::pinglist::{PingEntry, Pinglist};
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

impl Deployment {
    /// Carries version numbers over from a previous deployment for every
    /// pinglist whose assignment did not change, so pingers (which cache
    /// their bound routes by version) re-bind only the lists a re-plan
    /// actually touched. Returns the number of lists that *are*
    /// re-dispatched — lists whose assignment changed or whose pinger is
    /// new. With segmented path ids a single-cell delta leaves every
    /// other cell's entries bit-identical, so this count covers exactly
    /// the pinglists carrying paths of the touched cells.
    pub fn rebase_versions(&mut self, prev: &Deployment) -> usize {
        debug_assert!(prev.pinglists.is_sorted_by_key(|l| l.pinger));
        let mut redispatched = 0;
        for list in &mut self.pinglists {
            let old = prev
                .pinglists
                .binary_search_by_key(&list.pinger, |l| l.pinger)
                .map(|at| &prev.pinglists[at]);
            match old {
                Ok(old) if old.same_assignment(list) => list.version = old.version,
                _ => redispatched += 1,
            }
        }
        redispatched
    }
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
    /// Pinglists actually re-dispatched by the update (fresh versions; a
    /// single-cell delta re-dispatches only the lists carrying paths of
    /// the touched cell). Filled by the runtime's dispatch step —
    /// [`Detector::apply`](crate::Detector::apply) — since the
    /// controller itself does not own the deployed lists; 0 when no
    /// re-dispatch happened.
    pub lists_redispatched: usize,
    /// Entries that actually traveled: per-entry adds + removes across
    /// diffed lists, plus every entry of whole-list replacements. Filled
    /// by the dispatch step alongside `lists_redispatched`.
    pub entries_diffed: usize,
    /// Bytes of the dispatch's frames as [`crate::wire`] encodes them —
    /// minimal re-dispatch measured on the wire, not in list counts.
    pub bytes_dispatched: u64,
    /// Wall-clock time of the whole re-plan (view update, plan patch,
    /// deployment and dispatch), microseconds. Filled by the runtime's
    /// re-plan, as the dispatch fields are; 0 from
    /// [`Controller::apply_events`].
    pub replan_micros: u64,
    /// Per-cell re-plan accounting.
    pub stats: ReplanStats,
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
            // Dispatch accounting is known only after pinglist dispatch.
            lists_redispatched: 0,
            entries_diffed: 0,
            bytes_dispatched: 0,
            replan_micros: 0,
            stats,
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

    /// Recomputes the probe matrix from scratch for the *current* view
    /// state, ignoring the incremental plan — the canonical plan for the
    /// current offline set. It is the *targets* oracle for the
    /// incremental path, not a row oracle: while a link is offline the
    /// standing plan is a repair of what it had, so after any event
    /// sequence [`Controller::compute_matrix`] must achieve what this
    /// achieves (certified targets, uncoverable links, verified coverage
    /// and identifiability over the online links) without necessarily
    /// carrying the same paths; with nothing offline the two carry the
    /// same paths row for row. `PathId`s may differ even then: the
    /// standing plan keeps the id ranges it was born with (id
    /// *stability* across deltas is the point of segmented allocation),
    /// while a fresh plan derives its ranges from the current per-cell
    /// solution sizes.
    pub fn compute_matrix_from_scratch(&self) -> Result<ProbeMatrix, PmcError> {
        let plan = ProbePlan::with_options(
            self.view.shared(),
            &self.cfg.pmc,
            self.view.offline_links(),
            self.exhaustive_limit,
            self.cfg.id_headroom,
        )?;
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
    /// Every switch's usable servers are looked up once per call, into a
    /// [`UsableServers`] table, and every path and in-rack loop reads
    /// them from there. A ToR-based
    /// path (Fattree, VL2) goes to the first `pingers_per_tor` usable
    /// servers under its source ToR, two of them rotated by the path
    /// id, and its responder is usable server `id % len` under the
    /// destination ToR; a server-based path (BCube) goes to its first
    /// server. Each pinger then probes every other usable server under
    /// its own switch. Lists come out ascending by pinger and sealed.
    fn assign(&self, matrix: &ProbeMatrix, unhealthy: &HashSet<NodeId>) -> Vec<Pinglist> {
        let graph = self.view.topology().graph();
        let offline = self.view.offline_links();
        let interval_us = (1_000_000.0 / self.cfg.probe_rate_pps) as u64;

        // A server can serve as pinger or responder only when it is
        // healthy and its access link is up (its ToR may be drained).
        let usable = |server: NodeId| -> bool {
            if unhealthy.contains(&server) {
                return false;
            }
            graph
                .switch_of(server)
                .and_then(|tor| graph.link_between(server, tor))
                .is_none_or(|l| !offline.contains(&l))
        };
        let servers = UsableServers::new(graph, usable);

        // One list per active pinger, found through its node id.
        let mut lists: Vec<Pinglist> = Vec::new();
        let mut list_of: Vec<Option<usize>> = vec![None; graph.num_nodes()];
        let mut list_for = |pinger: NodeId, lists: &mut Vec<Pinglist>| -> usize {
            *list_of[pinger.index()].get_or_insert_with(|| {
                lists.push(Pinglist {
                    version: self.version,
                    pinger,
                    entries: Vec::new(),
                    interval_us,
                    base_sport: self.cfg.base_sport,
                    port_range: self.cfg.port_range,
                    dport: self.cfg.dport,
                    stamp: 0, // Sealed below, once assembly is complete.
                });
                lists.len() - 1
            })
        };

        for path in &matrix.paths {
            let nodes = path.nodes();
            let (Some(&first), Some(&last)) = (nodes.first(), nodes.last()) else {
                continue;
            };
            let waypoint = {
                let mid = nodes[nodes.len() / 2];
                graph.node(mid).kind.is_switch().then_some(mid)
            };

            if graph.node(first).kind.is_switch() {
                // ToR-based endpoints: pick pingers under the source ToR
                // and a responder under the destination ToR.
                let under = servers.under(first);
                let pingers = &under[..under.len().min(self.cfg.pingers_per_tor)];
                if pingers.is_empty() {
                    continue;
                }
                let responders = servers.under(last);
                let Some(&responder) = responders.get(path.id.index() % responders.len().max(1))
                else {
                    continue;
                };
                // At least two pingers per path.
                let take = pingers.len().clamp(1, 2);
                for j in 0..take {
                    let pinger = pingers[(path.id.index() + j) % pingers.len()];
                    let mut route = Vec::with_capacity(nodes.len() + 2);
                    route.push(pinger);
                    route.extend_from_slice(nodes);
                    route.push(responder);
                    let li = list_for(pinger, &mut lists);
                    lists[li].entries.push(PingEntry {
                        path: Some(path.id),
                        route,
                        responder,
                        waypoint,
                    });
                }
            } else {
                // Server-based endpoints (BCube): the first server pings.
                if !usable(first) {
                    continue;
                }
                let li = list_for(first, &mut lists);
                lists[li].entries.push(PingEntry {
                    path: Some(path.id),
                    route: nodes.to_vec(),
                    responder: last,
                    waypoint,
                });
            }
        }

        // In-rack probes: each pinger probes every other server under its
        // ToR to cover server–ToR links (§3.1).
        for list in &mut lists {
            let pinger = list.pinger;
            let Some(tor) = graph.switch_of(pinger) else {
                continue;
            };
            for &peer in servers.under(tor) {
                if peer == pinger {
                    continue;
                }
                list.entries.push(PingEntry {
                    path: None,
                    route: vec![pinger, tor, peer],
                    responder: peer,
                    waypoint: None,
                });
            }
        }
        lists.sort_by_key(|l| l.pinger);
        // Freeze each list's content stamp once, so per-window binding
        // checks compare two u64s instead of re-hashing every entry.
        for list in &mut lists {
            list.seal();
        }
        lists
    }
}

/// Every switch's usable servers, looked up once per
/// [`Controller::assign`]: a flat table indexed by `NodeId` whose entry
/// for a switch is `servers_under(switch)` filtered by usability, in
/// adjacency order (empty for a server).
struct UsableServers {
    /// `servers[start[n]..start[n + 1]]` are node `n`'s usable servers.
    start: Vec<usize>,
    servers: Vec<NodeId>,
}

impl UsableServers {
    fn new(graph: &Dcn, usable: impl Fn(NodeId) -> bool) -> Self {
        let mut start = Vec::with_capacity(graph.num_nodes() + 1);
        let mut servers = Vec::with_capacity(graph.num_servers());
        start.push(0);
        for node in graph.nodes() {
            if node.kind.is_switch() {
                servers.extend(
                    graph
                        .neighbors(node.id)
                        .iter()
                        .map(|&(n, _)| n)
                        .filter(|&n| !graph.node(n).kind.is_switch() && usable(n)),
                );
            }
            start.push(servers.len());
        }
        Self { start, servers }
    }

    /// The usable servers under `switch`.
    fn under(&self, switch: NodeId) -> &[NodeId] {
        &self.servers[self.start[switch.index()]..self.start[switch.index() + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_topology::Fattree;
    use std::sync::Arc;

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
            for e in &l.entries {
                assert_eq!(e.route[0], l.pinger);
                assert_eq!(*e.route.last().unwrap(), e.responder);
                // And the route must be walkable in the graph.
                ft.graph()
                    .route_from_nodes(e.route.clone())
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
        let scratch = ctl.compute_matrix_from_scratch().unwrap();
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
        let scratch = ctl.compute_matrix_from_scratch().unwrap();
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
            for e in &l.entries {
                assert!(!e.route.contains(&tor), "route crosses drained ToR");
            }
        }
    }

    #[test]
    fn rebase_keeps_versions_of_unchanged_lists() {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut ctl = Controller::new(ft, SystemConfig::default());
        let d1 = ctl.build_deployment(&HashSet::new()).unwrap();
        let mut d2 = ctl.build_deployment(&HashSet::new()).unwrap();
        assert!(d2.pinglists.iter().all(|l| l.version == d2.version));
        let redispatched = d2.rebase_versions(&d1);
        // Nothing changed between the cycles, so every list keeps its
        // original version and nothing is re-dispatched.
        assert_eq!(redispatched, 0);
        assert!(d2.pinglists.iter().all(|l| l.version == d1.version));
    }

    /// `rebase_versions` by a linear pinger scan per list — the quadratic
    /// form the binary search replaced.
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
        assert_eq!(next.rebase_versions(prev), want);
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
