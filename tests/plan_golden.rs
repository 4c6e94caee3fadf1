//! The boot plans, pinned bit for bit: every path's id, nodes and links,
//! in plan order, folded into one FNV-1a digest per case. The PMC solver's
//! data structures (the decomposition's union-find, the lazy greedy's
//! queue) may change; the plans they produce may not. A digest here moves
//! only when a plan does — then the change must explain why.
//!
//! The deployments built from those plans are pinned the same way: every
//! pinglist's header and every entry's path, route, responder and
//! waypoint, in list and entry order. `Controller::assign`'s lookups may
//! change; the pinglists it hands out may not.

use std::collections::HashSet;
use std::sync::Arc;

use detector_core::pmc::{PmcConfig, ProbeMatrix};
use detector_core::types::NodeId;
use detector_system::{
    Controller, Pinglist, ProbePlan, SharedTopology, SystemConfig, TopologyEvent, EXHAUSTIVE_LIMIT,
};
use detector_topology::{BCube, DcnTopology, Fattree, Vl2};

/// 64-bit FNV-1a over little-endian words: stable across platforms,
/// toolchains and runs, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The digest of a matrix's paths: per path its id, then its node and
/// link sequences, each preceded by its length.
fn digest(m: &ProbeMatrix) -> u64 {
    let mut h = Fnv::new();
    h.word(m.paths.len() as u32);
    for p in &m.paths {
        h.word(p.id.0);
        h.word(p.nodes().len() as u32);
        for n in p.nodes() {
            h.word(n.0);
        }
        h.word(p.links().len() as u32);
        for l in p.links() {
            h.word(l.0);
        }
    }
    h.0
}

/// Boots a plan for `topo` with nothing offline and returns its matrix
/// and the number of cells it was solved in.
fn boot(topo: SharedTopology, cfg: &PmcConfig) -> (ProbeMatrix, usize) {
    let plan = ProbePlan::new(topo, cfg, &HashSet::new()).expect("the boot solve succeeds");
    (plan.matrix(), plan.num_cells())
}

fn assert_plan(topo: SharedTopology, cfg: &PmcConfig, cells: usize, paths: usize, want: u64) {
    let (m, got_cells) = boot(topo, cfg);
    assert_eq!(got_cells, cells, "cells");
    assert_eq!(m.num_paths(), paths, "paths");
    assert!(m.achieved.targets_met, "targets");
    assert_eq!(digest(&m), want, "digest {:#018x}", digest(&m));
}

fn vl2() -> SharedTopology {
    let vl: SharedTopology = Arc::new(Vl2::new(20, 12, 2).unwrap());
    assert!(vl.original_path_count() <= EXHAUSTIVE_LIMIT, "materialized");
    vl
}

#[test]
fn vl2_20_12_2_at_3_1() {
    assert_plan(vl2(), &PmcConfig::new(3, 1), 1, 241, 0x1415_bf9c_1dee_9a7c);
}

#[test]
fn vl2_20_12_2_at_1_1() {
    assert_plan(vl2(), &PmcConfig::new(1, 1), 1, 119, 0xa815_7b8d_e333_e547);
}

#[test]
fn vl2_20_12_2_at_2_2() {
    assert_plan(vl2(), &PmcConfig::new(2, 2), 1, 619, 0xfc94_1833_db6b_f5ee);
}

#[test]
fn fattree_8_materialized_in_four_cells() {
    let ft: SharedTopology = Arc::new(Fattree::new(8).unwrap());
    assert!(ft.original_path_count() <= EXHAUSTIVE_LIMIT, "materialized");
    assert_plan(ft, &PmcConfig::new(3, 1), 4, 320, 0x00a0_f93c_7259_1306);
}

#[test]
fn fattree_16_symmetric() {
    let ft: SharedTopology = Arc::new(Fattree::new(16).unwrap());
    assert!(ft.original_path_count() > EXHAUSTIVE_LIMIT, "provider-fed");
    assert_plan(ft, &PmcConfig::new(3, 1), 8, 1896, 0xee56_5130_bfcc_9cf2);
}

#[test]
fn bcube_4_1() {
    let bc: SharedTopology = Arc::new(BCube::new(4, 1).unwrap());
    assert_plan(bc, &PmcConfig::new(1, 2), 1, 54, 0x0b98_f907_4f19_bdaf);
}

/// The storm's plan: Fattree(32) at the default configuration, one base
/// solve replicated to 16 groups.
#[test]
fn fattree_32_symmetric_at_the_default_config() {
    let ft: SharedTopology = Arc::new(Fattree::new(32).unwrap());
    let cfg = SystemConfig::default().pmc;
    assert_plan(ft, &cfg, 16, 15024, 0xce87_0505_f91e_32e7);
}

/// The provider-fed path on the two families that never take it at the
/// default threshold.
fn assert_symmetric_plan(topo: SharedTopology, cfg: &PmcConfig, paths: usize, want: u64) {
    let plan = ProbePlan::with_exhaustive_limit(topo, cfg, &HashSet::new(), 0).unwrap();
    let m = plan.matrix();
    assert_eq!(
        (plan.num_cells(), m.num_paths()),
        (1, paths),
        "cells, paths"
    );
    assert_eq!(digest(&m), want, "digest {:#018x}", digest(&m));
}

#[test]
fn vl2_20_12_2_symmetric() {
    assert_symmetric_plan(vl2(), &PmcConfig::new(3, 1), 240, 0xc73d_bfad_97ff_ec75);
}

#[test]
fn bcube_4_1_symmetric() {
    let bc: SharedTopology = Arc::new(BCube::new(4, 1).unwrap());
    assert_symmetric_plan(bc, &PmcConfig::new(1, 2), 36, 0xb2e1_9d15_f90b_fd5c);
}

/// A replica cell repaired after one of its links went down: the
/// excluded link is pulled back into the base group and the base
/// provider is re-solved around it.
#[test]
fn fattree_16_after_a_link_down() {
    let ft = Arc::new(Fattree::new(16).unwrap());
    let cfg = PmcConfig::new(3, 1);
    let mut plan = ProbePlan::new(ft.clone() as SharedTopology, &cfg, &HashSet::new()).unwrap();
    let dead = ft.ac_link(3, 5, 2);
    let offline: HashSet<_> = [dead].into_iter().collect();
    let stats = plan.apply(&[dead], &offline).unwrap();
    assert_eq!(stats.cells_resolved, 1);
    let m = plan.matrix();
    assert!(m.paths.iter().all(|p| !p.covers(dead)));
    assert_eq!(m.num_paths(), 1894, "paths");
    assert_eq!(
        digest(&m),
        0x444d_a601_f030_6462,
        "digest {:#018x}",
        digest(&m)
    );
}

/// The digest of a deployment's pinglists: per list its pinger, interval
/// and ports, then per entry its path (flag, id), route (length, nodes),
/// responder and waypoint (flag, id). Versions and stamps are left out:
/// the one counts cycles, the other is a hash of the rest.
fn deployment_digest(lists: &[Pinglist]) -> u64 {
    let mut h = Fnv::new();
    let opt = |h: &mut Fnv, w: Option<u32>| {
        h.word(u32::from(w.is_some()));
        h.word(w.unwrap_or(0));
    };
    h.word(lists.len() as u32);
    for l in lists {
        h.word(l.pinger.0);
        h.word(l.interval_us as u32);
        h.word((l.interval_us >> 32) as u32);
        h.word(u32::from(l.base_sport));
        h.word(u32::from(l.port_range));
        h.word(u32::from(l.dport));
        h.word(l.entries.len() as u32);
        for (e, route) in l.iter() {
            opt(&mut h, e.path.map(|p| p.0));
            h.word(route.len() as u32);
            for n in route {
                h.word(n.0);
            }
            h.word(e.responder.0);
            opt(&mut h, e.waypoint.map(|w| w.0));
        }
    }
    h.0
}

fn assert_deployment(
    ctl: &mut Controller,
    unhealthy: &HashSet<NodeId>,
    lists: usize,
    entries: usize,
    want: u64,
) {
    let d = ctl
        .build_deployment(unhealthy)
        .expect("the deployment builds");
    let got = deployment_digest(&d.pinglists);
    assert_eq!(d.pinglists.len(), lists, "lists");
    let n: usize = d.pinglists.iter().map(|l| l.entries.len()).sum();
    assert_eq!(n, entries, "entries");
    assert_eq!(got, want, "deployment digest {got:#018x}");
}

#[test]
fn fattree_16_deployment() {
    let ft: SharedTopology = Arc::new(Fattree::new(16).unwrap());
    let mut ctl = Controller::new(ft, SystemConfig::default());
    assert_deployment(&mut ctl, &HashSet::new(), 180, 5052, 0x7aa7_642f_148d_c9b1);
}

/// Every seventh server unhealthy and one server's access link down, in a
/// rack that also holds an unhealthy server: racks with four, three and
/// two usable servers, pinger rotations over three and over two,
/// responders picked among fewer servers, and in-rack loops that skip the
/// unusable peers.
#[test]
fn fattree_8_degraded_deployment() {
    let ft = Arc::new(Fattree::new(8).unwrap());
    let unhealthy: HashSet<NodeId> = ft
        .graph()
        .nodes()
        .iter()
        .filter(|n| !n.kind.is_switch())
        .step_by(7)
        .map(|n| n.id)
        .collect();
    let cfg = SystemConfig {
        pingers_per_tor: 3,
        ..SystemConfig::default()
    };
    let mut ctl = Controller::new(ft.clone(), cfg);
    ctl.apply_event(&TopologyEvent::LinkDown {
        link: ft.server_link(2, 0, 1),
    })
    .unwrap();
    assert_deployment(&mut ctl, &unhealthy, 81, 832, 0x39b3_0955_7e2f_e386);
}

#[test]
fn vl2_20_12_2_deployment() {
    let mut ctl = Controller::new(vl2(), SystemConfig::default());
    assert_deployment(&mut ctl, &HashSet::new(), 94, 576, 0xef6d_282c_a546_d4ae);
}

/// Server-centric: the path's first server pings, and its in-rack peers
/// hang off its level-0 switch.
#[test]
fn bcube_4_1_deployment() {
    let bc: SharedTopology = Arc::new(BCube::new(4, 1).unwrap());
    let cfg = SystemConfig::default().with_pmc(PmcConfig::new(1, 2));
    let mut ctl = Controller::new(bc, cfg);
    assert_deployment(&mut ctl, &HashSet::new(), 5, 69, 0xefc3_63ec_8322_9a37);
}
