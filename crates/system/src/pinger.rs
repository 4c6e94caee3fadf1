//! The pinger: a server's bound pinglist, probed once per reporting
//! window (§3.1, §6.1). Every driver probes through a [`PingerBatch`]:
//! [`Detector::step`](crate::Detector::step) runs them inline,
//! `run_pipelined`'s probe workers take them off a per-window cursor, and
//! each distributed agent runs its host group's batches.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use detector_core::splitmix64;
use detector_core::types::{NodeId, PathId};
use detector_simnet::FlowKey;
use detector_topology::{Dcn, Route};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::dataplane::{DataPlane, ProbeTag};
use crate::pinglist::Pinglist;
use crate::report::{FlowRecord, PathCounters, PingerReport};
use crate::SystemConfig;

/// A server's probing work, bound once and run every window: the
/// pinglist with its routes resolved at bind time (not per probe), and
/// one probe-RNG stream per window seeded via [`batch_seed`] (not one
/// draw negotiated per probe dispatch). [`Detector::step`], the
/// pipelined probe workers and the distributed agents all run batches,
/// so the per-probe behaviour is one shared code path.
///
/// [`Detector::step`]: crate::Detector::step
pub struct PingerBatch {
    /// The header and the bound entries. Each entry's node list moved
    /// into its `Route` at bind time, so `route` is empty here: read the
    /// route from `routes`.
    list: Pinglist,
    /// Resolved routes, one per pinglist entry.
    routes: Vec<Route>,
    /// Counter slot of each entry: an index into `path_keys` for a path
    /// entry, `path_keys.len()` for every in-rack one. Entries probing
    /// the same path share a slot, and the in-rack entries share the
    /// last, so a window accumulates each slot's counters in probe order.
    slots: Vec<usize>,
    /// The bound entries' distinct path ids, ascending.
    path_keys: Vec<PathId>,
    /// [`Pinglist::stamp`] of the *dispatched* list (before any
    /// unresolvable entries were dropped) — half of the binding-cache
    /// key, see [`PingerBatch::bound_to`].
    stamp: u64,
}

impl PingerBatch {
    /// Binds a pinglist, resolving each entry's node route against the
    /// monitored topology's graph and its report key to a counter slot.
    /// Entries whose route cannot be resolved (e.g. stale after a
    /// topology change) are dropped, as a production pinger would on a
    /// dispatch error.
    pub fn bind(mut list: Pinglist, graph: &Dcn) -> Self {
        let stamp = list.stamp;
        // The header stays in `list`; the entries come out of it and go
        // back one by one as their routes resolve.
        let entries = std::mem::take(&mut list.entries);
        let mut kept = list;
        kept.entries.reserve_exact(entries.len());
        let mut routes = Vec::with_capacity(entries.len());
        for mut e in entries {
            if let Some(r) = graph.route_from_nodes(std::mem::take(&mut e.route)) {
                routes.push(r);
                kept.entries.push(e);
            }
        }
        let mut path_keys: Vec<PathId> = kept.entries.iter().filter_map(|e| e.path).collect();
        path_keys.sort_unstable();
        path_keys.dedup();
        let slots = kept
            .entries
            .iter()
            .map(|e| match e.path {
                Some(pid) => {
                    let (Ok(at) | Err(at)) = path_keys.binary_search(&pid);
                    at
                }
                None => path_keys.len(),
            })
            .collect();
        Self {
            list: kept,
            routes,
            slots,
            path_keys,
            stamp,
        }
    }

    /// The pinger server.
    pub fn server(&self) -> NodeId {
        self.list.pinger
    }

    /// The version of the bound pinglist: half of the binding-cache key
    /// (an incremental re-plan leaves untouched lists at their old
    /// version, so their bindings survive it).
    pub fn version(&self) -> u64 {
        self.list.version
    }

    /// True when this binding was made for exactly `list` — same version
    /// *and* same sealed content stamp (two `u64` compares; the stamp is
    /// frozen by [`Pinglist::seal`] at dispatch, not re-hashed here).
    /// [`bound_batch`] keys the binding cache on this pair rather than
    /// the version alone, so a cycle refresh can never serve routes or
    /// `PathId`s from a pre-re-base binding even if a dispatch path
    /// ever re-minted a version number.
    pub fn bound_to(&self, list: &Pinglist) -> bool {
        self.list.version == list.version && self.stamp == list.stamp
    }

    /// Number of bound entries.
    pub fn num_entries(&self) -> usize {
        self.list.entries.len()
    }

    /// Runs one reporting window: sweeps the entries at the configured
    /// rate, advancing the source port and QoS class every sweep,
    /// confirms each loss with [`SystemConfig::confirm_probes`]
    /// same-content re-probes, and aggregates counters. The report
    /// keeps a flow record for each flow that lost a probe on a path
    /// that kept one and, per path, the number of flows probed. The
    /// probe RNG is this server's stream of the window, derived from the
    /// window's master seed by [`batch_seed`].
    pub fn run_window(
        &self,
        dataplane: &dyn DataPlane,
        cfg: &SystemConfig,
        window: u64,
        window_seed: u64,
    ) -> PingerReport {
        let rng = &mut SmallRng::seed_from_u64(batch_seed(window_seed, self.server()));
        let mut report = PingerReport {
            pinger: self.list.pinger,
            window,
            ..Default::default()
        };
        let entries = &self.list.entries;
        if entries.is_empty() {
            return report;
        }
        let budget = (cfg.probe_rate_pps * cfg.window_s as f64) as u64;
        let full_sweeps = budget / entries.len() as u64;
        let partial = (budget % entries.len() as u64) as usize;
        let mut counters = vec![PathCounters::default(); self.path_keys.len() + 1];
        // A flow's `(sport, dscp)` depends only on the sweep.
        let key = |sweep: u64| {
            let sport = self
                .list
                .base_sport
                .wrapping_add((sweep % u64::from(self.list.port_range.max(1))) as u16);
            // Cycle QoS classes so class-specific failures (e.g. a
            // misconfigured priority queue) are exposed (§6.1); with none
            // configured, probes keep `FlowKey::udp`'s class 0.
            let class = sweep as usize % cfg.dscp_classes.len().max(1);
            (
                sport,
                cfg.dscp_classes.get(class).copied().unwrap_or_default(),
            )
        };
        // `(slot, key, lost)` of each scheduled path probe that was lost.
        let mut losses = Vec::new();
        for sweep in 0..=full_sweeps {
            let (sport, dscp) = key(sweep);
            let len = if sweep < full_sweeps {
                entries.len()
            } else {
                partial
            };
            let bound = entries.iter().zip(&self.routes).zip(&self.slots);
            for ((entry, route), &slot) in bound.take(len) {
                let mut flow = FlowKey::udp(
                    self.list.pinger.0,
                    entry.responder.0,
                    sport,
                    self.list.dport,
                );
                flow.dscp = dscp;
                let tag = ProbeTag {
                    window,
                    path_id: entry.path.map_or(ProbeTag::IN_RACK, |p| p.0),
                    waypoint: entry.waypoint.map_or(0, |n| n.0),
                };
                // detlint::allow(panic_path, reason = "bind() draws every slot from 0..=path_keys.len(), which sizes counters")
                let counters = &mut counters[slot];
                if probe_once(dataplane, tag, route, flow, cfg, counters, rng) {
                    // Confirm the loss pattern with same-content re-probes
                    // (§3.1): deterministic drops stay lost, random drops may
                    // get through — exactly the signal the diagnoser wants.
                    let mut lost = 1u64;
                    for _ in 0..cfg.confirm_probes {
                        lost +=
                            u64::from(probe_once(dataplane, tag, route, flow, cfg, counters, rng));
                    }
                    // Per-flow counters feed the loss-type classifier (§7).
                    if entry.path.is_some() {
                        losses.push((slot, (sport, dscp), lost));
                    }
                }
            }
        }
        // The flows a slot probed are the distinct keys among the sweeps
        // that reached it: every full one, plus the partial one if one of
        // the slot's entries lies before `partial`.
        let mut keys: Vec<_> = (0..full_sweeps).map(key).collect();
        keys.sort_unstable();
        let times = |k| keys.partition_point(|x| *x <= k) - keys.partition_point(|x| *x < k);
        let tail = key(full_sweeps);
        let full_flows = keys.chunk_by(|a, b| a == b).count() as u32;
        let tail_flows = full_flows + u32::from(times(tail) == 0);
        let mut in_tail = vec![0u64; counters.len()];
        for &slot in self.slots.iter().take(partial) {
            if let Some(n) = in_tail.get_mut(slot) {
                *n += 1;
            }
        }
        // The flows without a record travel as that count and nothing
        // else. A path whose every flow lost all it sent keeps no record
        // at all — its counters already give each flow's rate — and the
        // others keep the flows that lost a probe: each sent its scheduled
        // probes plus `confirm_probes` for every one of them it lost.
        losses.sort_unstable();
        let mut rest = losses.as_slice();
        report.paths.reserve(self.path_keys.len());
        report.flows_probed.reserve(self.path_keys.len());
        let bound = self.path_keys.iter().zip(&counters).zip(&in_tail);
        for (slot, ((&path, &c), &in_tail)) in bound.enumerate() {
            let (own, after) = rest.split_at(rest.partition_point(|l| l.0 == slot));
            rest = after;
            // A short window may not reach every entry: only probed paths
            // report.
            if c.sent == 0 {
                continue;
            }
            report.paths.push((path, c));
            let flows = if in_tail > 0 { tail_flows } else { full_flows };
            report.flows_probed.push(flows);
            if own.is_empty() || c.lost == c.sent {
                continue;
            }
            let fan = self.slots.iter().filter(|&&s| s == slot).count() as u64;
            for flow in own.chunk_by(|a, b| a.1 == b.1) {
                let Some(&(_, (sport, dscp), _)) = flow.first() else {
                    continue;
                };
                let scheduled =
                    fan * times((sport, dscp)) as u64 + in_tail * u64::from((sport, dscp) == tail);
                report.flows.push(FlowRecord {
                    path,
                    sport,
                    dscp,
                    sent: scheduled + u64::from(cfg.confirm_probes) * flow.len() as u64,
                    lost: flow.iter().map(|l| l.2).sum(),
                });
            }
        }
        report.in_rack = counters.last().copied().unwrap_or_default();
        report
    }
}

/// Derives the probe-RNG seed of one server's batch in one window from
/// the window's master seed. The derivation is a pure function of
/// `(window_seed, server)`, so a server's probe outcomes do not depend
/// on when — or on which thread — its batch runs: the property that
/// makes the pipelined scheduler bit-equivalent to sequential
/// [`Detector::step`](crate::Detector::step).
pub fn batch_seed(window_seed: u64, server: NodeId) -> u64 {
    splitmix64(window_seed ^ splitmix64(u64::from(server.0)))
}

/// The batch serving `list`, re-binding first iff the dispatched list's
/// `(version, stamp)` changed (§3.2's idempotent pinglist refresh): the
/// binding cache of every driver. The stamp keeps a refresh from serving
/// a pre-re-base binding.
pub fn bound_batch(
    bound: &mut HashMap<NodeId, Arc<PingerBatch>>,
    list: &Pinglist,
    graph: &Dcn,
) -> Arc<PingerBatch> {
    match bound.entry(list.pinger) {
        Entry::Occupied(mut e) => {
            if !e.get().bound_to(list) {
                e.insert(Arc::new(PingerBatch::bind(list.clone(), graph)));
            }
            Arc::clone(e.get())
        }
        Entry::Vacant(e) => Arc::clone(e.insert(Arc::new(PingerBatch::bind(list.clone(), graph)))),
    }
}

/// Sends one probe, updates counters, returns true on loss.
fn probe_once(
    dataplane: &dyn DataPlane,
    tag: ProbeTag,
    route: &Route,
    flow: FlowKey,
    cfg: &SystemConfig,
    counters: &mut PathCounters,
    rng: &mut SmallRng,
) -> bool {
    let out = dataplane.probe_tagged(tag, route, flow, rng);
    counters.sent += 1;
    let lost = !out.delivered || out.rtt_us > cfg.timeout_us;
    // A branch, not `+= u64::from(lost)`: losses are rare, and the
    // unconditional add measured ~5 % slower on `ft16_step` (one core of
    // a Xeon @ 2.10 GHz).
    if lost {
        counters.lost += 1;
    }
    lost
}

/// The per-probe `HashMap` accumulation `run_window` replaced — two map
/// lookups per probe, and a record for every flow whether it lost a
/// probe or not (`flows_probed` left empty) — kept as the oracle for the
/// slot-indexed, lossy-only window.
#[cfg(test)]
pub(crate) fn run_window_full_records(
    p: &PingerBatch,
    dataplane: &dyn DataPlane,
    cfg: &SystemConfig,
    window: u64,
    rng: &mut SmallRng,
) -> PingerReport {
    use std::collections::HashMap;
    let mut paths: HashMap<PathId, PathCounters> = HashMap::new();
    let mut in_rack = PathCounters::default();
    let mut flows: HashMap<(PathId, u16, u8), (u64, u64)> = HashMap::new();
    let budget = (cfg.probe_rate_pps * cfg.window_s as f64) as u64;
    for i in 0..if p.list.entries.is_empty() { 0 } else { budget } {
        let ei = (i as usize) % p.list.entries.len();
        let sweep = (i as usize) / p.list.entries.len();
        let entry = &p.list.entries[ei];
        let route = &p.routes[ei];
        let sport = p
            .list
            .base_sport
            .wrapping_add((sweep % p.list.port_range.max(1) as usize) as u16);
        let mut flow = FlowKey::udp(p.list.pinger.0, entry.responder.0, sport, p.list.dport);
        if !cfg.dscp_classes.is_empty() {
            flow.dscp = cfg.dscp_classes[sweep % cfg.dscp_classes.len()];
        }
        let tag = ProbeTag {
            window,
            path_id: entry.path.map_or(ProbeTag::IN_RACK, |p| p.0),
            waypoint: entry.waypoint.map_or(0, |n| n.0),
        };
        let counters = match entry.path {
            Some(pid) => paths.entry(pid).or_default(),
            None => &mut in_rack,
        };
        let lost = probe_once(dataplane, tag, route, flow, cfg, counters, rng);
        let mut flow_sent = 1u64;
        let mut flow_lost = u64::from(lost);
        if lost {
            for _ in 0..cfg.confirm_probes {
                flow_sent += 1;
                flow_lost += u64::from(probe_once(dataplane, tag, route, flow, cfg, counters, rng));
            }
        }
        if let Some(pid) = entry.path {
            let e = flows.entry((pid, flow.sport, flow.dscp)).or_insert((0, 0));
            e.0 += flow_sent;
            e.1 += flow_lost;
        }
    }
    let mut report = PingerReport {
        pinger: p.list.pinger,
        window,
        paths: paths.into_iter().collect(),
        flows_probed: Vec::new(),
        in_rack,
        flows: flows
            .into_iter()
            .map(|((path, sport, dscp), (sent, lost))| FlowRecord {
                path,
                sport,
                dscp,
                sent,
                lost,
            })
            .collect(),
    };
    report.paths.sort_unstable_by_key(|(p, _)| *p);
    report.flows.sort_unstable_by_key(FlowRecord::key);
    report
}

/// What a full-record report becomes on the lossy-only wire: each path's
/// records counted, then the clean ones dropped, and with them every
/// record of a path whose counters say it lost every probe.
#[cfg(test)]
pub(crate) fn lossy_only(mut full: PingerReport) -> PingerReport {
    let count = |pid| full.flows.iter().filter(|f| f.path == pid).count() as u32;
    full.flows_probed = full.paths.iter().map(|(pid, _)| count(*pid)).collect();
    let dead: std::collections::HashSet<PathId> = (full.paths.iter())
        .filter(|(_, c)| c.sent > 0 && c.lost == c.sent)
        .map(|(pid, _)| *pid)
        .collect();
    full.flows.retain(|f| f.lost > 0 && !dead.contains(&f.path));
    full
}

/// Resource-cost model of a pinger process (Fig. 4b).
///
/// We cannot measure a production pinger process from inside a simulator;
/// instead the model is calibrated to the paper's reported operating
/// point — ~0.4 % CPU, ~13 MB RSS and ~100 Kbps at 10–15 probes/s with
/// 850-byte probes — and extrapolates linearly in the probe rate (the
/// pinger's work per probe is constant).
#[derive(Clone, Copy, Debug)]
pub struct PingerCostModel {
    /// CPU percent per probe/s.
    pub cpu_pct_per_pps: f64,
    /// Base memory footprint, MB.
    pub mem_base_mb: f64,
    /// Memory per probe/s (buffers), MB.
    pub mem_mb_per_pps: f64,
    /// Probe wire size, bytes.
    pub probe_bytes: f64,
}

impl Default for PingerCostModel {
    fn default() -> Self {
        Self {
            cpu_pct_per_pps: 0.04,
            mem_base_mb: 12.0,
            mem_mb_per_pps: 0.1,
            probe_bytes: 850.0,
        }
    }
}

impl PingerCostModel {
    /// CPU utilization (percent of one core) at `pps` probes per second.
    pub fn cpu_percent(&self, pps: f64) -> f64 {
        self.cpu_pct_per_pps * pps
    }

    /// Memory footprint (MB) at `pps`.
    pub fn memory_mb(&self, pps: f64) -> f64 {
        self.mem_base_mb + self.mem_mb_per_pps * pps
    }

    /// Transmit bandwidth (Kbps) at `pps`.
    pub fn bandwidth_kbps(&self, pps: f64) -> f64 {
        pps * self.probe_bytes * 8.0 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinglist::PingEntry;
    use detector_simnet::{Fabric, LossDiscipline};
    use detector_topology::{DcnTopology, Fattree};
    use rand::Rng;

    fn setup(ft: &Fattree) -> (Pinglist, Fabric<'_>) {
        let pinger = ft.server(0, 0, 0);
        let responder = ft.server(1, 0, 0);
        let route = vec![
            pinger,
            ft.edge(0, 0),
            ft.agg(0, 0),
            ft.core(0, 0),
            ft.agg(1, 0),
            ft.edge(1, 0),
            responder,
        ];
        let mut list = Pinglist {
            version: 1,
            pinger,
            entries: vec![PingEntry {
                path: Some(PathId(0)),
                route,
                responder,
                waypoint: Some(ft.core(0, 0)),
            }],
            interval_us: 100_000,
            base_sport: 33000,
            port_range: 16,
            dport: 53533,
            stamp: 0,
        };
        list.seal();
        (list, Fabric::quiet(ft))
    }

    #[test]
    fn clean_window_counts_all_sent() {
        let ft = Fattree::new(4).unwrap();
        let (list, fabric) = setup(&ft);
        let pinger = PingerBatch::bind(list, ft.graph());
        let cfg = SystemConfig::default();
        let rep = pinger.run_window(&fabric, &cfg, 0, 1);
        let c = *rep.path(PathId(0)).unwrap();
        assert_eq!(c.sent, 300); // 10 pps × 30 s.
        assert_eq!(c.lost, 0);
    }

    #[test]
    fn full_loss_triggers_confirmation_probes() {
        let ft = Fattree::new(4).unwrap();
        let (list, mut fabric) = setup(&ft);
        fabric.set_discipline_both(ft.ea_link(0, 0, 0), LossDiscipline::Full);
        let pinger = PingerBatch::bind(list, ft.graph());
        let cfg = SystemConfig::default();
        let rep = pinger.run_window(&fabric, &cfg, 0, 2);
        let c = *rep.path(PathId(0)).unwrap();
        // Each of the 300 scheduled probes is lost and confirmed twice.
        assert_eq!(c.sent, 300 * 3);
        assert_eq!(c.lost, 300 * 3);
    }

    #[test]
    fn deterministic_partial_loss_shows_port_dependence() {
        let ft = Fattree::new(4).unwrap();
        let (list, mut fabric) = setup(&ft);
        fabric.set_discipline_both(
            ft.ea_link(0, 0, 0),
            LossDiscipline::DeterministicPartial {
                fraction: 0.5,
                salt: 99,
            },
        );
        let pinger = PingerBatch::bind(list, ft.graph());
        let cfg = SystemConfig::default();
        let rep = pinger.run_window(&fabric, &cfg, 0, 3);
        let c = *rep.path(PathId(0)).unwrap();
        // Some ports blackholed, some clean: strictly partial.
        assert!(c.lost > 0);
        assert!(c.lost < c.sent);
    }

    #[test]
    fn unresolvable_entries_are_dropped_at_bind() {
        let ft = Fattree::new(4).unwrap();
        let (mut list, _fabric) = setup(&ft);
        list.entries.push(PingEntry {
            path: Some(PathId(1)),
            route: vec![ft.server(0, 0, 0), ft.server(3, 1, 1)], // Not adjacent.
            responder: ft.server(3, 1, 1),
            waypoint: None,
        });
        let pinger = PingerBatch::bind(list, ft.graph());
        assert_eq!(pinger.num_entries(), 1);
    }

    #[test]
    fn dscp_blackhole_is_seen_as_partial_loss() {
        // A failure that only drops the EF class: roughly one third of
        // probes (one of three swept classes) are lost.
        let ft = Fattree::new(4).unwrap();
        let (list, mut fabric) = setup(&ft);
        fabric.set_discipline_both(
            ft.ea_link(0, 0, 0),
            LossDiscipline::DscpBlackhole { dscp: 46 },
        );
        let pinger = PingerBatch::bind(list, ft.graph());
        let cfg = SystemConfig::default();
        let rep = pinger.run_window(&fabric, &cfg, 0, 5);
        let c = *rep.path(PathId(0)).unwrap();
        assert!(c.lost > 0, "EF probes must be lost");
        assert!(c.lost < c.sent, "other classes must get through");
        // The lost fraction is near one third of the *scheduled* probes
        // (confirmation probes of the same flow are also lost).
        let scheduled = 300.0;
        let lost_scheduled = c.lost as f64 / 3.0; // Each loss confirmed twice.
        let frac = lost_scheduled / scheduled;
        assert!((frac - 1.0 / 3.0).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn batch_runs_are_reproducible() {
        // Same (window_seed, server) ⇒ identical report, regardless of
        // when or where the batch runs — the pipelined scheduler's
        // equivalence hinges on this.
        let ft = Fattree::new(4).unwrap();
        let (list, mut fabric) = setup(&ft);
        fabric.set_discipline_both(
            ft.ea_link(0, 0, 0),
            LossDiscipline::RandomPartial { rate: 0.3 },
        );
        let batch = PingerBatch::bind(list, ft.graph());
        let cfg = SystemConfig::default();
        let a = batch.run_window(&fabric, &cfg, 0, 42);
        let b = batch.run_window(&fabric, &cfg, 0, 42);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.in_rack, b.in_rack);
        assert_eq!(a.flows_probed, b.flows_probed);
        assert_eq!(a.flows, b.flows);
        let c = batch.run_window(&fabric, &cfg, 0, 43);
        assert_ne!(
            a.paths, c.paths,
            "different window seeds must drive different probe streams"
        );
    }

    #[test]
    fn batch_seeds_separate_servers() {
        let s = batch_seed(7, NodeId(1));
        assert_ne!(s, batch_seed(7, NodeId(2)));
        assert_ne!(s, batch_seed(8, NodeId(1)));
        assert_eq!(s, batch_seed(7, NodeId(1)));
    }

    #[test]
    fn binding_is_keyed_on_version_and_content() {
        // The binding-cache validity check must reject a list whose
        // version matches but whose content differs — e.g. a cycle
        // refresh serving a version that was minted before a cell
        // re-base changed the entries' PathIds. A version-only key would
        // hand out routes bound to the retired ids.
        let ft = Fattree::new(4).unwrap();
        let (list, _fabric) = setup(&ft);
        let batch = PingerBatch::bind(list.clone(), ft.graph());
        assert!(batch.bound_to(&list), "identical list must hit the cache");

        // Same version, different content (the entry's path id moved to
        // a fresh range): the cache must miss.
        let mut rebased = list.clone();
        rebased.entries[0].path = Some(PathId(64));
        rebased.seal();
        assert_eq!(rebased.version, list.version);
        assert!(
            !batch.bound_to(&rebased),
            "a pre-re-base binding must not serve re-based ids"
        );

        // Different version, same content: also a miss (the version is
        // half of the key; dispatch bumps it only on content changes, so
        // honoring it keeps the check conservative).
        let mut bumped = list.clone();
        bumped.version += 1;
        assert!(!batch.bound_to(&bumped));

        // The stamp is computed over the *dispatched* list, so a list
        // with unresolvable (dropped-at-bind) entries still validates
        // against what was dispatched, not against the filtered copy.
        let mut with_bad_entry = list.clone();
        with_bad_entry.entries.push(PingEntry {
            path: Some(PathId(1)),
            route: vec![ft.server(0, 0, 0), ft.server(3, 1, 1)], // Not adjacent.
            responder: ft.server(3, 1, 1),
            waypoint: None,
        });
        with_bad_entry.seal();
        let partial = PingerBatch::bind(with_bad_entry.clone(), ft.graph());
        assert_eq!(partial.num_entries(), 1, "bad entry dropped at bind");
        assert!(partial.bound_to(&with_bad_entry));
        assert!(!partial.bound_to(&list));
    }

    /// `run_window` counts flows and rebuilds lossy flows' probe counts
    /// from the sweeps instead of keeping a record per probe; this pins
    /// it to the per-probe `HashMap` reference. Mutations it kills, each
    /// applied on a scratch copy: "flows counted by sweep, not key"
    /// (`flows_probed` = the number of sweeps that reached the path,
    /// wrong once a key repeats) and "`sent` missing the confirmations"
    /// (a lossy flow's `sent` = its scheduled probes only).
    #[test]
    fn slot_indexed_window_is_bit_identical_to_the_hashmap_reference() {
        let ft = Fattree::new(6).unwrap();
        let pinger = ft.server(0, 0, 0);
        // Three cross-pod routes, one intra-pod route and two in-rack peers:
        // entries are drawn from these with repetition, so lists carry
        // duplicate `PathId`s (also across different routes) and
        // duplicate in-rack responders.
        let cross = |agg: u32, core: u32, pod: u32| {
            let responder = ft.server(pod, 0, 0);
            let route = vec![
                pinger,
                ft.edge(0, 0),
                ft.agg(0, agg),
                ft.core(agg, core),
                ft.agg(pod, agg),
                ft.edge(pod, 0),
                responder,
            ];
            (route, responder, Some(ft.core(agg, core)))
        };
        let intra = {
            let responder = ft.server(0, 1, 0);
            let route = vec![
                pinger,
                ft.edge(0, 0),
                ft.agg(0, 1),
                ft.edge(0, 1),
                responder,
            ];
            (route, responder, None)
        };
        let rack = |host: u32| {
            let responder = ft.server(0, 0, host);
            (vec![pinger, ft.edge(0, 0), responder], responder, None)
        };
        let shapes = [cross(0, 0, 1), cross(1, 1, 2), cross(0, 1, 3), intra];
        let disciplines = [
            LossDiscipline::Healthy,
            LossDiscipline::Full,
            LossDiscipline::RandomPartial { rate: 0.4 },
            LossDiscipline::DeterministicPartial {
                fraction: 0.5,
                salt: 7,
            },
            LossDiscipline::DscpBlackhole { dscp: 46 },
        ];
        let mut draw = SmallRng::seed_from_u64(0x51_07);
        for case in 0..96u64 {
            let mut entries = Vec::new();
            for _ in 0..draw.gen_range(0..9usize) {
                let (route, responder, waypoint) = if draw.gen_range(0..4u32) == 0 {
                    rack(draw.gen_range(1..3u32))
                } else {
                    shapes[draw.gen_range(0..shapes.len())].clone()
                };
                let in_rack = route.len() == 3;
                entries.push(PingEntry {
                    path: (!in_rack).then(|| PathId(draw.gen_range(0..4u32) * 5)),
                    route,
                    responder,
                    waypoint,
                });
            }
            let mut list = Pinglist {
                version: case,
                pinger,
                entries,
                interval_us: 100_000,
                base_sport: if case % 7 == 0 { u16::MAX - 1 } else { 33000 },
                // The last one is larger than any sweep count below.
                port_range: [0, 1, 2, 5, 16, 1000][draw.gen_range(0..6usize)],
                dport: 53533,
                stamp: 0,
            };
            list.seal();
            let mut cfg = SystemConfig {
                // Shorter than, equal to and longer than the port ranges,
                // and one that repeats a class.
                dscp_classes: [
                    vec![],
                    vec![46],
                    vec![0, 18, 46],
                    vec![0, 8, 18, 26, 34, 46, 48],
                    vec![0, 46, 0],
                ][draw.gen_range(0..5usize)]
                .clone(),
                confirm_probes: draw.gen_range(0..4u32),
                ..SystemConfig::default()
            };
            // Budgets below, at and far above one sweep of the list.
            cfg.probe_rate_pps = [0.1, 0.2, 1.0, 10.0][draw.gen_range(0..4usize)];
            let mut fabric = Fabric::quiet(&ft);
            let disc = disciplines[draw.gen_range(0..disciplines.len())];
            let links = [
                ft.ea_link(0, 0, 0),
                ft.ea_link(0, 0, 1),
                ft.server_link(0, 0, 1),
            ];
            fabric.set_discipline_both(links[draw.gen_range(0..links.len())], disc);

            let bound = PingerBatch::bind(list, ft.graph());
            let seed = draw.gen_range(0..u64::MAX);
            let got = bound.run_window(&fabric, &cfg, case, seed);
            let want = lossy_only(run_window_full_records(
                &bound,
                &fabric,
                &cfg,
                case,
                &mut SmallRng::seed_from_u64(batch_seed(seed, pinger)),
            ));
            assert_eq!(got, want, "case {case}");
            assert!(got.paths.windows(2).all(|w| w[0].0 < w[1].0), "case {case}");
            assert!(
                got.flows.windows(2).all(|w| w[0].key() < w[1].key()),
                "case {case}"
            );
        }
    }

    #[test]
    fn cost_model_matches_paper_calibration() {
        let m = PingerCostModel::default();
        assert!((m.cpu_percent(10.0) - 0.4).abs() < 1e-9);
        assert!((m.memory_mb(10.0) - 13.0).abs() < 1e-9);
        let bw = m.bandwidth_kbps(15.0);
        assert!((bw - 102.0).abs() < 1.0, "bw {bw}");
    }
}
