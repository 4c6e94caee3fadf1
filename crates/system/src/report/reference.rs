//! Test-only oracle: reports and loss classification as they were when a
//! report carried a record for every flow it probed.
//!
//! [`run_window_full_records`] is the pinger's merge before the clean
//! records were dropped and [`ReportStore::flow_samples_full`] the
//! store's aggregation over such reports. The property below runs both
//! generations side by side on the same fabric: the lossy-only report
//! must be the full one with its clean records counted and removed, and
//! `classify_suspect` must not be able to tell which store it reads.

use std::collections::HashSet;
use std::sync::Arc;

use detector_core::pll::{classify_loss, ClassifyConfig};
use detector_core::types::{LinkId, NodeId};
use detector_simnet::{Fabric, LossDiscipline};
use detector_topology::{DcnTopology, Fattree};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::ReportStore;
use crate::controller::Controller;
use crate::diagnoser::Diagnoser;
use crate::pinger::{batch_seed, lossy_only, run_window_full_records, Pinger};
use crate::watchdog::Watchdog;
use crate::SystemConfig;

fn discipline(kind: u8, level: u8) -> LossDiscipline {
    match kind % 4 {
        0 => LossDiscipline::Full,
        1 => LossDiscipline::DeterministicPartial {
            fraction: 0.2 + f64::from(level % 6) / 10.0,
            salt: u64::from(level),
        },
        2 => LossDiscipline::RandomPartial {
            rate: 0.01 + f64::from(level % 30) / 100.0,
        },
        _ => LossDiscipline::DscpBlackhole { dscp: 46 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// New report ≡ reference report with its clean records counted and
    /// dropped, and `classify_suspect` over the lossy-only store ≡
    /// `classify_loss` over the full-record store — all five fields, on
    /// every failed link and on one healthy link, with some pingers'
    /// reports excluded by the watchdog.
    #[test]
    fn lossy_only_reports_classify_as_full_records_do(
        big in 0u8..2,
        failures in proptest::collection::vec((0u16..512, 0u8..4, 0u8..60), 1..4),
        sick in proptest::collection::vec(0usize..64, 0..3),
        windows in 1u64..5,
        seed in 0u64..1_000,
    ) {
        let ft = Arc::new(Fattree::new(if big == 1 { 6 } else { 4 }).unwrap());
        let cfg = SystemConfig::default();
        let dep = Controller::new(ft.clone(), cfg.clone())
            .build_deployment(&HashSet::new())
            .expect("deployment builds");
        // Background noise too: lossy flows on paths no failure touches.
        let mut fabric = Fabric::new(ft.as_ref(), seed ^ 0xFAB);
        let mut links = Vec::new();
        for &(link, kind, level) in &failures {
            let l = LinkId(u32::from(link) % ft.probe_links() as u32);
            fabric.set_discipline_both(l, discipline(kind, level));
            links.push(l);
        }
        let healthy = (0..ft.probe_links() as u32).map(LinkId).find(|l| !links.contains(l));
        links.extend(healthy);

        let mut watchdog = Watchdog::new();
        for &s in &sick {
            watchdog.mark_unhealthy(dep.pinglists[s % dep.pinglists.len()].pinger);
        }
        let excluded = |p: NodeId| !watchdog.is_healthy(p);

        let mut lossy = Diagnoser::new(dep.matrix.clone(), cfg.pll);
        let full = ReportStore::new();
        for w in 0..windows {
            for list in &dep.pinglists {
                let pinger = Pinger::bind(list.clone(), ft.graph());
                let rng = || SmallRng::seed_from_u64(batch_seed(seed ^ w, list.pinger));
                let got = pinger.run_window(&fabric, &cfg, w, &mut rng());
                let want = run_window_full_records(&pinger, &fabric, &cfg, w, &mut rng());
                prop_assert_eq!(&got, &lossy_only(want.clone()));
                prop_assert!(got.flows.iter().all(|f| f.lost > 0));
                lossy.ingest(got);
                full.ingest(want);
            }
        }
        for w in 0..windows {
            for &l in &links {
                let through = |pid| dep.matrix.path(pid).is_some_and(|p| p.covers(l));
                let samples = full.flow_samples_full(w, &excluded, &through);
                let want = classify_loss(&samples, &ClassifyConfig::default());
                prop_assert_eq!(lossy.classify_suspect(w, l, &watchdog), want, "window {} {}", w, l);
            }
        }
    }
}
