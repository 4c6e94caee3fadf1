//! What a report costs follows what was lost, not what was probed —
//! pinned as counts and bytes, which repeat exactly, instead of as the
//! diagnoser's resident memory, which is these numbers times 21 retained
//! windows.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use detector::prelude::*;
use detector::system::{Controller, Deployment, PathCounters, Pinger, PingerReport};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn deploy(ft: &Arc<Fattree>, cfg: &SystemConfig) -> Deployment {
    Controller::new(ft.clone(), cfg.clone())
        .build_deployment(&HashSet::new())
        .expect("deployment builds")
}

/// One window of every pinger of `dep` over `plane`.
fn window(ft: &Fattree, dep: &Deployment, plane: &dyn DataPlane, seed: u64) -> Vec<PingerReport> {
    let cfg = SystemConfig::default();
    (dep.pinglists.iter())
        .map(|list| {
            let mut rng = SmallRng::seed_from_u64(seed ^ u64::from(list.pinger.0));
            Pinger::bind(list.clone(), ft.graph()).run_window(plane, &cfg, 0, &mut rng)
        })
        .collect()
}

/// Bytes a path record may take: five when each of its varints is one
/// byte (path-id delta, sent, lost, flows probed, record count), a sixth
/// where a delta or a counter passes 127, and a seventh to spare.
const PER_RECORD: usize = 7;

/// The mean `Report` frame of a window of reports that carry no flow
/// record, each frame held to `PER_RECORD` bytes a path record and 16
/// for the rest.
fn mean_frame(reports: &[PingerReport]) -> usize {
    let mut bytes = 0;
    for report in reports {
        assert!(report.flows.is_empty(), "{:?}", report.flows.first());
        assert_eq!(report.flows_probed.len(), report.paths.len());
        assert!(report.flows_probed.iter().all(|&n| n > 0));
        let records = report.paths.len();
        let frame = Frame::Report(report.clone()).encode();
        assert!(
            frame.len() <= PER_RECORD * records + 16,
            "{} bytes for {records} records",
            frame.len()
        );
        bytes += frame.len();
    }
    bytes / reports.len()
}

#[test]
fn a_quiet_window_ships_no_flow_record_and_a_kilobyte_a_pinger() {
    let ft = Arc::new(Fattree::new(32).unwrap());
    let dep = deploy(&ft, &SystemConfig::default());
    let fabric = Fabric::quiet(ft.as_ref());
    // 698 pingers reporting 43 paths on average: 271 bytes a report, at
    // most 6 a path record.
    let mean = mean_frame(&window(&ft, &dep, &fabric, 7));
    assert!((250..300).contains(&mean), "{mean} bytes a report");
}

#[test]
fn a_storm_ships_no_flow_record_and_costs_what_a_quiet_window_does() {
    let ft = Arc::new(Fattree::new(32).unwrap());
    let dep = deploy(&ft, &SystemConfig::default());
    // One dead uplink of every edge switch: 512 links losing every
    // probe, so every path through one loses all its flows' probes and
    // ships their count alone.
    let mut fabric = Fabric::quiet(ft.as_ref());
    let half = ft.half();
    for pod in 0..ft.k() {
        for edge in 0..half {
            let uplink = ft.ea_link(pod, edge, (pod + edge) % half);
            fabric.set_discipline_both(uplink, LossDiscipline::Full);
        }
    }
    let reports = window(&ft, &dep, &fabric, 7);
    let dead = (reports.iter())
        .flat_map(|r| &r.paths)
        .filter(|(_, c)| c.sent > 0 && c.lost == c.sent)
        .count();
    let paths: usize = reports.iter().map(|r| r.paths.len()).sum();
    assert!(dead * 20 > paths, "{dead} of {paths} paths dead");
    let mean = mean_frame(&reports);
    assert!((250..300).contains(&mean), "{mean} bytes a report");
}

/// A fabric that counts, per flow of each pinger and path, the probes it
/// sent and lost, and each pinger's in-rack probes and all its probes —
/// the pinger's bookkeeping, done from outside.
struct Recording<'a> {
    fabric: Fabric<'a>,
    timeout_us: f64,
    /// `(pinger, path, sport, dscp)` → the flow's probes.
    flows: RefCell<BTreeMap<(u32, u32, u16, u8), PathCounters>>,
    /// Pinger → its in-rack probes.
    in_rack: RefCell<BTreeMap<u32, PathCounters>>,
    /// Pinger → every `probe_tagged` call it made.
    calls: RefCell<BTreeMap<u32, PathCounters>>,
}

fn count<K: Ord>(counters: &RefCell<BTreeMap<K, PathCounters>>, key: K, lost: bool) {
    let mut counters = counters.borrow_mut();
    let c = counters.entry(key).or_default();
    c.sent += 1;
    c.lost += u64::from(lost);
}

impl DataPlane for Recording<'_> {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        self.fabric.probe(route, flow, rng)
    }

    fn probe_tagged(
        &self,
        tag: ProbeTag,
        route: &Route,
        flow: FlowKey,
        rng: &mut SmallRng,
    ) -> ProbeOutcome {
        let out = self.probe(route, flow, rng);
        let lost = !out.delivered || out.rtt_us > self.timeout_us;
        count(&self.calls, flow.src, lost);
        if tag.path_id == ProbeTag::IN_RACK {
            count(&self.in_rack, flow.src, lost);
        } else {
            let key = (flow.src, tag.path_id, flow.sport, flow.dscp);
            count(&self.flows, key, lost);
        }
        out
    }
}

#[test]
fn under_every_discipline_the_records_are_the_lossy_flows_of_paths_that_kept_a_probe() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let cfg = SystemConfig::default();
    let dep = deploy(&ft, &cfg);
    // The uplink of an edge switch under every discipline, then a dead
    // server link: its pinger loses every probe, in-rack ones included.
    let sick = dep.pinglists[0].pinger;
    let half = ft.half();
    let mut servers = (0..ft.k()).flat_map(|pod| {
        (0..half).flat_map(move |edge| (0..half).map(move |host| (pod, edge, host)))
    });
    let (pod, edge, host) = servers
        .find(|&(pod, edge, host)| ft.server(pod, edge, host) == sick)
        .expect("pingers are servers");
    let uplink = ft.ea_link(1, 0, 1);
    let cases = [
        (uplink, LossDiscipline::Full),
        (
            uplink,
            LossDiscipline::DeterministicPartial {
                fraction: 0.5,
                salt: 3,
            },
        ),
        (uplink, LossDiscipline::RandomPartial { rate: 0.05 }),
        (uplink, LossDiscipline::RandomPartial { rate: 0.3 }),
        (uplink, LossDiscipline::DscpBlackhole { dscp: 46 }),
        (ft.server_link(pod, edge, host), LossDiscipline::Full),
    ];
    let mut all_lost = 0;
    for (seed, (link, discipline)) in cases.into_iter().enumerate() {
        let mut fabric = Fabric::quiet(ft.as_ref());
        fabric.set_discipline_both(link, discipline);
        let plane = Recording {
            fabric,
            timeout_us: cfg.timeout_us,
            flows: RefCell::default(),
            in_rack: RefCell::default(),
            calls: RefCell::default(),
        };
        let reports = window(&ft, &dep, &plane, seed as u64);
        let in_rack = plane.in_rack.into_inner();
        let calls = plane.calls.into_inner();
        for r in &reports {
            // One total of the pinger's in-rack probes, and every probe
            // it sent counted once.
            let pinger = r.pinger.0;
            let want = in_rack.get(&pinger).copied().unwrap_or_default();
            assert_eq!(r.in_rack, want, "{discipline:?}, pinger {pinger}");
            let made = calls.get(&pinger).copied().unwrap_or_default();
            assert_eq!(r.total_sent(), made.sent, "{discipline:?}, pinger {pinger}");
            let every_call_lost = made.sent > 0 && made.lost == made.sent;
            assert_eq!(
                r.all_lost(),
                every_call_lost,
                "{discipline:?}, pinger {pinger}"
            );
            all_lost += usize::from(r.all_lost());
        }
        let seen = plane.flows.into_inner();
        assert!(
            seen.values().any(|c| c.lost > 0),
            "{discipline:?} lost nothing"
        );
        // A `(pinger, path)` kept a probe when one of its flows did.
        let kept: BTreeSet<(u32, u32)> = (seen.iter())
            .filter(|(_, c)| c.lost < c.sent)
            .map(|(k, _)| (k.0, k.1))
            .collect();
        let lossy: Vec<_> = (seen.iter())
            .filter(|(k, c)| c.lost > 0 && kept.contains(&(k.0, k.1)))
            .map(|(&key, _)| key)
            .collect();
        let recorded: Vec<_> = (reports.iter())
            .flat_map(|r| {
                r.flows
                    .iter()
                    .map(|f| (r.pinger.0, f.path.0, f.sport, f.dscp))
            })
            .collect();
        assert_eq!(recorded, lossy, "{discipline:?}");
        let mut dead_paths = 0;
        for r in &reports {
            for ((pid, c), &probed) in r.paths.iter().zip(&r.flows_probed) {
                let on_path = |k: &&(u32, u32, u16, u8)| (k.0, k.1) == (r.pinger.0, pid.0);
                assert_eq!(probed as usize, seen.keys().filter(on_path).count());
                if c.lost == c.sent {
                    // Its count of flows, and nothing else.
                    assert!(probed > 0 && r.flows_of(*pid).is_empty(), "{discipline:?}");
                    dead_paths += 1;
                }
            }
        }
        // Under full loss every lossy path is a dead one.
        if matches!(discipline, LossDiscipline::Full) {
            assert!(recorded.is_empty() && dead_paths > 0, "{discipline:?}");
        }
    }
    assert_eq!(all_lost, 1, "only the pinger behind the dead server link");
}
