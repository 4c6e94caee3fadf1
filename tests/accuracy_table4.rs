//! The Table 4 accuracy floor of the PLL greedy on noiseless failure
//! episodes.
//!
//! The PLL greedy ranks candidate links by explained losses with the hit
//! ratio as an eligibility filter (§5.3). This sweep runs it over
//! noiseless Fattree and VL2 failure episodes at Table 4's probe budget
//! (30 probes per path), prints the table, and asserts the accuracy
//! floor so the configuration can never silently regress.
//!
//! The sweep honours `DETECTOR_BENCH_SCALE`: the default `quick` runs
//! Fattree(8) + VL2(8,6); `paper` runs the paper's Table 4 sizes —
//! Fattree(18) and VL2(20,12).
//!
//! The sweep is `#[ignore]`d (minutes of episodes); the CI smoke job
//! runs it in release mode next to the scheduler soak, at both scales:
//!
//! ```text
//! cargo test --release --test accuracy_table4 -- --ignored
//! DETECTOR_BENCH_SCALE=paper cargo test --release --test accuracy_table4 -- --ignored
//! ```

use detector::prelude::*;
use detector_bench::{bench_pll, episode_metrics, pct, Scale, Table};

/// Micro-averaged noiseless campaign: `episodes` random scenarios with
/// `n_failures` simultaneous link failures each, probed on a quiet
/// fabric (no background loss).
fn noiseless_campaign(
    topo: &(dyn DcnTopology + Sync),
    matrix: &ProbeMatrix,
    gen: &FailureGenerator,
    n_failures: usize,
    episodes: usize,
    localizer: &dyn Localizer,
    seed: u64,
) -> LocalizationMetrics {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut acc = LocalizationMetrics::zero();
    for _ in 0..episodes {
        let scenario = gen.sample(topo, n_failures, &mut rng);
        let m = episode_metrics(topo, matrix, &scenario, 30, localizer, None, &mut rng);
        acc.accumulate(&m);
    }
    acc
}

#[test]
#[ignore = "accuracy sweep (minutes); run by the CI smoke job in release mode"]
fn table4_noiseless_accuracy_floors() {
    let pll = PllLocalizer::new(bench_pll());
    let gen = FailureGenerator::links_only().with_min_rate(0.1);
    // Accuracy floors per simultaneous-failure count: a (1, 1) matrix
    // certifies single-failure identification (Table 4's (1,1) row is
    // > 90 %); beyond β the guarantee degrades gracefully, so the floor
    // steps down the way the paper's multi-failure columns do.
    let failures: [(usize, f64); 3] = [(1, 0.95), (3, 0.85), (5, 0.75)];
    // Paper scale runs Table 4's sizes with fewer episodes per cell —
    // the per-episode probe volume is ~20× quick's.
    let scale = Scale::from_env();
    let (ft_radix, vl_params, episodes) = match scale {
        Scale::Quick => (8u32, (8u32, 6u32, 2u32), 12usize),
        Scale::Paper => (18, (20, 12, 2), 6),
    };

    let topos: Vec<(String, Box<dyn DcnTopology + Sync>, ProbeMatrix)> = {
        let ft = Fattree::new(ft_radix).unwrap();
        let ft_matrix = construct_symmetric(&ft, &PmcConfig::identifiable(1)).unwrap();
        let (da, di, srv) = vl_params;
        let vl = Vl2::new(da, di, srv).unwrap();
        let vl_matrix = construct(
            vl.probe_links(),
            vl.enumerate_candidates(),
            &PmcConfig::identifiable(1),
        )
        .unwrap();
        vec![
            (format!("Fattree({ft_radix})"), Box::new(ft), ft_matrix),
            (format!("VL2({da},{di})"), Box::new(vl), vl_matrix),
        ]
    };

    let mut table = Table::new(vec!["topology", "fails", "accuracy", "FP"]);
    for (name, topo, matrix) in &topos {
        for (fi, &(n, floor)) in failures.iter().enumerate() {
            let seed = 0x7AB4 + fi as u64;
            let m = noiseless_campaign(topo.as_ref(), matrix, &gen, n, episodes, &pll, seed);
            table.row(vec![
                name.clone(),
                n.to_string(),
                pct(m.accuracy),
                m.false_positives.to_string(),
            ]);
            assert!(
                m.accuracy >= floor,
                "{name} @ {n} failures: paper-faithful accuracy {} below floor {floor}",
                m.accuracy
            );
        }
    }
    println!(
        "\nTable 4 sweep ({scale:?} scale, noiseless, 30 probes/path, \
         {episodes} episodes/cell):"
    );
    table.print();
}
