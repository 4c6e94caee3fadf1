//! Fig. 6 — accuracy and false positives with *multiple* simultaneous
//! failures at a fixed probe budget (5850 probes/minute in the paper's
//! testbed experiment).
//!
//! deTector keeps its accuracy as failures multiply because the probe
//! matrix localizes any ≤β failures from the same observation window; the
//! baselines degrade — their suspect-pair sweeps overlap and the fixed
//! budget is split across more localization work.

use detector_baselines::{BaselineConfig, BaselineSystem};
use detector_bench::{pct, BaselineEpisodes, Episodes, Scale, Table};
use detector_core::pmc::PmcConfig;
use detector_simnet::FailureGenerator;
use detector_system::SystemConfig;
use detector_topology::Fattree;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

const BUDGET_PER_MIN: u64 = 5850;

fn main() {
    let scale = Scale::from_env();
    let minutes = match scale {
        Scale::Quick => 40usize,
        Scale::Paper => 200,
    };
    let failures = [1usize, 2, 3, 4, 5];
    let ft = Fattree::new(4).unwrap();
    let gen = FailureGenerator {
        switch_fraction: 0.1,
        ..FailureGenerator::default()
    }
    .with_min_rate(0.05);
    let bcfg = BaselineConfig {
        // The budget must also pay for localization: shorter sweeps.
        sweep_probes_per_path: 10,
        trace_probes_per_hop: 5,
        ..BaselineConfig::default()
    };

    // deTector rate chosen so that probes/min ≈ the fixed budget:
    // 16 pingers × rate × 60 s × 2 (ping+reply) ≈ 5850 → rate ≈ 3.
    let det_cfg = SystemConfig::default()
        .with_rate(3.0)
        .with_pmc(PmcConfig::new(3, 1));

    println!(
        "Fig. 6: accuracy & false positives with multiple failures at ~{} probes/min\n",
        BUDGET_PER_MIN
    );
    let mut table = Table::new(vec![
        "# failures",
        "deTector acc %",
        "deTector FP %",
        "Pingmesh acc %",
        "Pingmesh FP %",
        "NetNORAD acc %",
        "NetNORAD FP %",
    ]);

    for &n in &failures {
        let mut det = Episodes::boot(Arc::new(ft.clone()), det_cfg.clone());
        let mut rng = SmallRng::seed_from_u64(0x000F_1660 + n as u64);
        for minute in 0..minutes {
            let scenario = gen.sample(&ft, n, &mut rng);
            det.episode(&scenario, Some(1300 + minute as u64), 2, &mut rng);
        }

        // Baselines at the same budget: half detects, the localization
        // round gets the rest in round trips.
        let mut pm = BaselineEpisodes::new(&ft, BaselineSystem::pingmesh(&ft, bcfg));
        let mut nn = BaselineEpisodes::new(&ft, BaselineSystem::netnorad(&ft, bcfg, 4));
        for minute in 0..minutes {
            let scenario = gen.sample(&ft, n, &mut rng);
            let noise = 1700 + minute as u64;
            pm.episode(&scenario, noise, 1, BUDGET_PER_MIN / 2, &mut rng);
            nn.episode(&scenario, noise, 1, BUDGET_PER_MIN / 2, &mut rng);
        }

        let (det, pm, nn) = (det.tally.metrics, pm.tally.metrics, nn.tally.metrics);
        table.row(vec![
            n.to_string(),
            pct(det.accuracy),
            pct(det.false_positive_ratio),
            pct(pm.accuracy),
            pct(pm.false_positive_ratio),
            pct(nn.accuracy),
            pct(nn.false_positive_ratio),
        ]);
    }
    table.print();
    println!();
    println!("Shape check (paper Fig. 6): deTector dominates both baselines at every");
    println!("failure count under the same probe budget, and needs no second probing");
    println!("round (30 s faster localization).");
}
