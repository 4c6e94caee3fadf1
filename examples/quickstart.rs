//! Quickstart: build a Fattree, construct a probe matrix, fail a link,
//! probe, localize — the Fig. 1 scenario of the paper in ~40 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use std::collections::HashSet;
use std::sync::Arc;

use detector::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // An 8-ary Fattree: 80 switches, 128 servers, 256 inter-switch links.
    let ft = Arc::new(Fattree::new(8).expect("valid radix"));
    println!(
        "topology: {} — {} switches, {} servers, {} probe links",
        ft.name(),
        ft.graph().num_switches(),
        ft.graph().num_servers(),
        ft.probe_links()
    );

    // A probe matrix with 1-coverage and 1-identifiability: the plan
    // `Detector` deploys, with no link offline.
    let plan = ProbePlan::new(ft.clone(), &PmcConfig::identifiable(1), &HashSet::new());
    let matrix = plan.expect("PMC").matrix();
    println!(
        "probe matrix: {} paths selected out of {} original ECMP paths ({:.4}%)",
        matrix.num_paths(),
        ft.original_path_count(),
        100.0 * matrix.num_paths() as f64 / ft.original_path_count() as f64
    );
    println!(
        "verified: coverage >= {}, identifiability = {}",
        min_coverage(&matrix),
        max_identifiability(&matrix, 2)
    );

    // Fig. 1: fail "link AB" — an aggregation-to-core link — and find it
    // by sending probes between ToRs.
    let bad = ft.ac_link(0, 1, 0);
    let mut fabric = Fabric::new(ft.as_ref(), 42); // Background noise included.
    fabric.set_discipline_both(bad, LossDiscipline::Full);

    let mut rng = SmallRng::seed_from_u64(7);
    let mut observations = Vec::new();
    for path in &matrix.paths {
        let route = ft
            .graph()
            .route_from_nodes(path.nodes().to_vec())
            .expect("matrix paths are routable");
        let (mut sent, mut lost) = (0u64, 0u64);
        for i in 0..20u16 {
            let flow = FlowKey::udp(
                route.nodes[0].0,
                route.nodes.last().unwrap().0,
                33_000 + i,
                53_533,
            );
            sent += 1;
            if !fabric.round_trip(&route, flow, &mut rng).success {
                lost += 1;
            }
        }
        observations.push(PathObservation::new(path.id, sent, lost));
    }

    // 20 probes per path with no loss-confirmation re-probes: treat a
    // single lost packet as background noise (the runtime's pinger does
    // this with confirmation probes instead, §3.1).
    let pll: Box<dyn Localizer> = Box::new(PllLocalizer::new(PllConfig {
        min_loss_count: 2,
        ..PllConfig::default()
    }));
    let diagnosis = pll.localize(&matrix, &observations);
    println!("\ndiagnosis:");
    for s in &diagnosis.suspects {
        println!(
            "  link {} — estimated loss rate {:.2}, hit ratio {:.2}, explained {} paths",
            s.link, s.estimated_loss_rate, s.hit_ratio, s.explained_paths
        );
    }
    assert_eq!(diagnosis.suspect_links(), vec![bad]);
    println!("\ninjected failure {bad} correctly localized ✔");
}
