//! What a report costs follows what was lost, not what was probed —
//! pinned as counts and bytes, which repeat exactly, instead of as the
//! diagnoser's resident memory, which is these numbers times 21 retained
//! windows.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
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

#[test]
fn a_quiet_window_ships_no_flow_record_and_a_kilobyte_a_pinger() {
    let ft = Arc::new(Fattree::new(32).unwrap());
    let dep = deploy(&ft, &SystemConfig::default());
    let fabric = Fabric::quiet(ft.as_ref());
    let reports = window(&ft, &dep, &fabric, 7);
    let mut bytes = 0;
    for report in &reports {
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
    // 698 pingers reporting 43 paths on average: 271 bytes a report, at
    // most 6 a path record.
    let mean = bytes / reports.len();
    assert!((250..300).contains(&mean), "{mean} bytes a report");
}

/// A fabric that remembers, per flow of each pinger and path, whether a
/// probe of it was lost, and counts each pinger's in-rack probes and all
/// its probes — the pinger's bookkeeping, done from outside.
struct Recording<'a> {
    fabric: Fabric<'a>,
    timeout_us: f64,
    /// `(pinger, path, sport, dscp)` → lost a probe.
    flows: RefCell<BTreeMap<(u32, u32, u16, u8), bool>>,
    /// Pinger → its in-rack probes.
    in_rack: RefCell<BTreeMap<u32, PathCounters>>,
    /// Pinger → every `probe_tagged` call it made.
    calls: RefCell<BTreeMap<u32, PathCounters>>,
}

fn count(counters: &RefCell<BTreeMap<u32, PathCounters>>, pinger: u32, lost: bool) {
    let mut counters = counters.borrow_mut();
    let c = counters.entry(pinger).or_default();
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
            *self.flows.borrow_mut().entry(key).or_default() |= lost;
        }
        out
    }
}

#[test]
fn under_every_discipline_the_records_are_the_flows_that_lost_a_probe() {
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
        let lossy: Vec<_> = (seen.iter().filter(|(_, &lost)| lost))
            .map(|(&key, _)| key)
            .collect();
        assert!(!lossy.is_empty(), "{discipline:?} lost nothing");
        let recorded: Vec<_> = (reports.iter())
            .flat_map(|r| {
                r.flows
                    .iter()
                    .map(|f| (r.pinger.0, f.path.0, f.sport, f.dscp))
            })
            .collect();
        assert_eq!(recorded, lossy, "{discipline:?}");
        for r in &reports {
            for ((pid, _), &probed) in r.paths.iter().zip(&r.flows_probed) {
                let on_path = |k: &&(u32, u32, u16, u8)| (k.0, k.1) == (r.pinger.0, pid.0);
                assert_eq!(probed as usize, seen.keys().filter(on_path).count());
            }
        }
    }
    assert_eq!(all_lost, 1, "only the pinger behind the dead server link");
}
