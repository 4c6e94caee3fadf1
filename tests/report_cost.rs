//! What a report costs follows what was lost, not what was probed —
//! pinned as counts and bytes, which repeat exactly, instead of as the
//! diagnoser's resident memory, which is these numbers times 21 retained
//! windows.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use detector::prelude::*;
use detector::system::{Controller, Deployment, Pinger, PingerReport};
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
        let records = report.paths.len() + report.in_rack.len();
        let frame = Frame::Report(report.clone()).encode();
        assert!(
            frame.len() <= 24 * records + 16,
            "{} bytes for {records} records",
            frame.len()
        );
        bytes += frame.len();
    }
    // 698 pingers reporting 43 paths and 15 in-rack peers on average:
    // 1 245 bytes a report, where a record for every flow made it 2 177.
    let mean = bytes / reports.len();
    assert!((1100..1300).contains(&mean), "{mean} bytes a report");
}

/// A fabric that remembers, per flow of each pinger and path, whether a
/// probe of it was lost — the pinger's bookkeeping, done from outside.
struct Recording<'a> {
    fabric: Fabric<'a>,
    timeout_us: f64,
    /// `(pinger, path, sport, dscp)` → lost a probe.
    flows: RefCell<BTreeMap<(u32, u32, u16, u8), bool>>,
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
        if tag.path_id != ProbeTag::IN_RACK {
            let lost = !out.delivered || out.rtt_us > self.timeout_us;
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
    let disciplines = [
        LossDiscipline::Full,
        LossDiscipline::DeterministicPartial {
            fraction: 0.5,
            salt: 3,
        },
        LossDiscipline::RandomPartial { rate: 0.05 },
        LossDiscipline::RandomPartial { rate: 0.3 },
        LossDiscipline::DscpBlackhole { dscp: 46 },
    ];
    for (seed, discipline) in disciplines.into_iter().enumerate() {
        let mut fabric = Fabric::quiet(ft.as_ref());
        fabric.set_discipline_both(ft.ea_link(1, 0, 1), discipline);
        let plane = Recording {
            fabric,
            timeout_us: cfg.timeout_us,
            flows: RefCell::default(),
        };
        let reports = window(&ft, &dep, &plane, seed as u64);
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
}
