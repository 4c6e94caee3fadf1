//! Cross-crate integration tests: the full controller → pinger →
//! diagnoser pipeline against the simulated fabric.

use std::collections::HashSet;
use std::sync::Arc;

use detector::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn full_pipeline_is_deterministic() {
    let ft = Fattree::new(4).unwrap();
    let run_once = || {
        let mut run = Detector::new(Arc::new(ft.clone()), SystemConfig::default()).unwrap();
        let mut fabric = Fabric::new(&ft, 5);
        fabric.set_discipline_both(
            ft.ac_link(0, 0, 0),
            LossDiscipline::RandomPartial { rate: 0.2 },
        );
        let mut rng = SmallRng::seed_from_u64(99);
        let mut out = Vec::new();
        for _ in 0..3 {
            let w = run.step(&fabric, &mut rng);
            out.push((w.probes_sent, w.diagnosis.suspect_links()));
        }
        out
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn every_loss_type_is_localized_by_the_runtime() {
    let ft = Fattree::new(4).unwrap();
    let cases: Vec<(&str, LossDiscipline)> = vec![
        ("full", LossDiscipline::Full),
        (
            "blackhole",
            LossDiscipline::DeterministicPartial {
                fraction: 0.4,
                salt: 5,
            },
        ),
        ("random", LossDiscipline::RandomPartial { rate: 0.3 }),
    ];
    for (i, (name, disc)) in cases.into_iter().enumerate() {
        let mut run = Detector::new(Arc::new(ft.clone()), SystemConfig::default()).unwrap();
        let bad = ft.ea_link(1, 1, 0);
        let mut fabric = Fabric::new(&ft, 40 + i as u64);
        fabric.set_discipline_both(bad, disc);
        let mut rng = SmallRng::seed_from_u64(7 + i as u64);
        let w = run.step(&fabric, &mut rng);
        assert!(
            w.diagnosis.suspect_links().contains(&bad),
            "{name}: suspects {:?}",
            w.diagnosis.suspect_links()
        );
    }
}

#[test]
fn one_directional_failure_is_still_caught() {
    // §4.1: the response probes the reverse direction, so a failure in
    // either direction of a link must surface.
    let ft = Fattree::new(4).unwrap();
    let mut run = Detector::new(Arc::new(ft.clone()), SystemConfig::default()).unwrap();
    let bad = ft.ac_link(2, 0, 1);
    let mut fabric = Fabric::quiet(&ft);
    fabric.set_discipline(bad, detector::simnet::LinkDir::BtoA, LossDiscipline::Full);
    let mut rng = SmallRng::seed_from_u64(3);
    let w = run.step(&fabric, &mut rng);
    assert!(w.diagnosis.suspect_links().contains(&bad));
}

#[test]
fn healthy_network_with_noise_stays_quiet() {
    let ft = Fattree::new(4).unwrap();
    let mut run = Detector::new(Arc::new(ft.clone()), SystemConfig::default()).unwrap();
    let fabric = Fabric::new(&ft, 11); // Noise only.
    let mut rng = SmallRng::seed_from_u64(13);
    let mut alarms = 0;
    for _ in 0..5 {
        let w = run.step(&fabric, &mut rng);
        alarms += w.diagnosis.suspects.len();
    }
    assert_eq!(alarms, 0, "background noise must not raise alarms");
}

#[test]
fn vl2_and_bcube_pipelines_work_end_to_end() {
    let vl2 = Vl2::new(4, 4, 2).unwrap();
    let mut run = Detector::new(Arc::new(vl2.clone()), SystemConfig::default()).unwrap();
    let bad = LinkId(2); // A ToR-agg link.
    let mut fabric = Fabric::quiet(&vl2);
    fabric.set_discipline_both(bad, LossDiscipline::Full);
    let mut rng = SmallRng::seed_from_u64(17);
    let w = run.step(&fabric, &mut rng);
    assert!(
        w.diagnosis.suspect_links().contains(&bad),
        "vl2 suspects: {:?}",
        w.diagnosis.suspect_links()
    );

    let bc = BCube::new(3, 1).unwrap();
    let mut run = Detector::new(Arc::new(bc.clone()), SystemConfig::default()).unwrap();
    let bad = LinkId(4);
    let mut fabric = Fabric::quiet(&bc);
    fabric.set_discipline_both(bad, LossDiscipline::Full);
    let w = run.step(&fabric, &mut rng);
    assert!(
        w.diagnosis.suspect_links().contains(&bad),
        "bcube suspects: {:?}",
        w.diagnosis.suspect_links()
    );
}

#[test]
fn detection_beats_baselines_on_transient_failures() {
    // The coupling argument (§2): deTector localizes from the window that
    // detected the loss; a baseline's post-alarm round finds a healed
    // fabric.
    let ft = Fattree::new(4).unwrap();
    let mut run = Detector::new(Arc::new(ft.clone()), SystemConfig::default()).unwrap();
    let bad = ft.ea_link(3, 0, 1);
    let mut fabric = Fabric::quiet(&ft);
    fabric.set_discipline_both(bad, LossDiscipline::Full);
    let mut rng = SmallRng::seed_from_u64(23);

    // deTector: detected and localized within the failure's lifetime.
    let w = run.step(&fabric, &mut rng);
    assert!(w.diagnosis.suspect_links().contains(&bad));

    // Baseline: detects suspect pairs, but the failure clears before the
    // localization round.
    let bcfg = BaselineConfig::default();
    let pm = BaselineSystem::pingmesh(&ft, bcfg);
    let det = pm.detect_window(&fabric, 8000, &mut rng);
    assert!(!det.suspects.is_empty(), "pingmesh must detect the loss");
    fabric.clear_failures(); // Transient failure heals.
    let diag = netbouncer_localize(&ft, &fabric, &det.suspects, &bcfg, u64::MAX, &mut rng);
    assert!(
        !diag.links.contains(&bad),
        "the post-alarm sweep cannot see a healed failure"
    );
}

/// The symmetric plan (`ProbePlan` at materialization limit 0, the
/// paper's symmetry-reduced construction of §4.3) certifies what the
/// independent verifier finds, on every topology family: one row per
/// (topology, α, β), with whether the targets are attainable there.
#[test]
fn probe_matrix_quality_matches_construction_claims() {
    let fattree = |k| Arc::new(Fattree::new(k).unwrap()) as SharedTopology;
    let rows: Vec<(SharedTopology, (u32, u32), bool)> = vec![
        (fattree(4), (2, 1), true),
        (fattree(6), (2, 1), true),
        (fattree(8), (2, 1), true),
        (fattree(6), (1, 1), true),
        (fattree(4), (3, 0), true),
        (fattree(8), (1, 1), true),
        (Arc::new(Vl2::new(4, 4, 2).unwrap()), (1, 1), true),
        // n = 3 is the smallest identifiable BCube: with n = 2 every
        // switch has exactly two links and every path through it uses
        // both, so their routing-matrix columns are identical.
        (Arc::new(BCube::new(3, 1).unwrap()), (1, 1), true),
        (Arc::new(BCube::new(2, 1).unwrap()), (1, 1), false),
    ];
    for (topo, (alpha, beta), attainable) in rows {
        let name = format!("{} ({alpha},{beta})", topo.name());
        let cfg = PmcConfig::new(alpha, beta);
        let plan = ProbePlan::with_exhaustive_limit(topo.clone(), &cfg, &HashSet::new(), 0);
        let m = plan.unwrap().matrix();
        assert_eq!(
            m.achieved.targets_met, attainable,
            "{name}: {:?}",
            m.achieved
        );
        if attainable {
            assert!(m.uncoverable.is_empty(), "{name}");
            assert!(min_coverage(&m) >= alpha, "{name}");
            assert_eq!(max_identifiability(&m, beta), beta, "{name}");
        } else {
            // Exhaustive candidates agree that the targets are out of
            // reach: the shortfall is the topology's, not the symmetry's.
            let exhaustive = construct(topo.probe_links(), topo.enumerate_candidates(), &cfg);
            let exhaustive = exhaustive.unwrap();
            assert!(!exhaustive.achieved.targets_met, "{name}");
            assert_eq!(max_identifiability(&exhaustive, beta), 0, "{name}");
        }
        // Past toy sizes, selected paths are under a tenth of the
        // original ECMP set.
        let original = topo.original_path_count();
        assert!(
            original < 1000 || (m.num_paths() as u128) * 10 < original,
            "{name}"
        );
        // All paths are valid routes of the topology.
        for p in &m.paths {
            topo.graph()
                .route_from_nodes(p.nodes().to_vec())
                .expect("matrix path must be routable");
        }
    }
}

#[test]
fn suspect_loss_types_are_classified() {
    use detector::core::pll::LossType;

    let ft = Fattree::new(4).unwrap();
    let bad = ft.ea_link(1, 1, 0);
    let cases: Vec<(LossDiscipline, LossType)> = vec![
        (LossDiscipline::Full, LossType::Full),
        (
            LossDiscipline::DeterministicPartial {
                fraction: 0.5,
                salt: 77,
            },
            LossType::DeterministicPartial,
        ),
        (
            LossDiscipline::RandomPartial { rate: 0.3 },
            LossType::RandomPartial,
        ),
    ];
    for (i, (disc, want)) in cases.into_iter().enumerate() {
        let mut run = Detector::new(Arc::new(ft.clone()), SystemConfig::default()).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        fabric.set_discipline_both(bad, disc);
        let mut rng = SmallRng::seed_from_u64(60 + i as u64);
        let w = run.step(&fabric, &mut rng);
        assert!(w.diagnosis.suspect_links().contains(&bad));
        let c = run
            .classify_suspect(w.window, bad)
            .expect("classification evidence must exist");
        assert_eq!(c.loss_type, want, "case {i}: {c:?}");
    }
}
