//! PLL vs the localization baselines (§5.3 / technical report): given the
//! *same* probe matrix and observations — the window a deployed detector
//! just probed — compare accuracy, false positives and runtime of PLL,
//! Tomo, SCORE and OMP.
//!
//! The paper reports PLL ~2 % more accurate, ~2 % fewer false positives,
//! and an order of magnitude faster than the alternatives at DCN scale;
//! the gap comes from partial-loss handling (hit-ratio filtering).

use std::sync::Arc;
use std::time::Instant;

use detector_bench::{pct, Episodes, Scale, Table};
use detector_core::pll::{
    evaluate_diagnosis, LocalizationMetrics, Localizer, OmpConfig, OmpLocalizer, PllLocalizer,
    ScoreLocalizer, TomoLocalizer,
};
use detector_core::pmc::PmcConfig;
use detector_simnet::FailureGenerator;
use detector_system::SystemConfig;
use detector_topology::Fattree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let (radix, episodes) = match scale {
        Scale::Quick => (18u32, 10usize),
        Scale::Paper => (32, 20),
    };
    let n_failures = 10usize;

    let ft = Arc::new(Fattree::new(radix).unwrap());
    let cfg = SystemConfig::default().with_pmc(PmcConfig::new(1, 2));
    let pll_cfg = cfg.pll;
    let mut ep = Episodes::per_path(ft.clone(), cfg, 30);
    let gen = FailureGenerator::links_only().with_min_rate(0.05);
    let omp_cfg = OmpConfig::default();
    // Every algorithm behind the same polymorphic interface.
    let localizers: Vec<Box<dyn Localizer>> = vec![
        Box::new(PllLocalizer::new(pll_cfg)),
        Box::new(TomoLocalizer { cfg: pll_cfg }),
        Box::new(ScoreLocalizer { cfg: pll_cfg }),
        Box::new(OmpLocalizer {
            pll: pll_cfg,
            omp: omp_cfg,
        }),
    ];

    println!(
        "PLL vs baselines: Fattree({radix}), (1,2) matrix with {} paths, {} failures, {} episodes\n",
        ep.run.matrix().num_paths(),
        n_failures,
        episodes
    );

    let mut rng = SmallRng::seed_from_u64(0x9115);
    let mut acc = [LocalizationMetrics::zero(); 4];
    let mut time_us = [0u128; 4];

    for e in 0..episodes {
        let scenario = gen.sample(ft.as_ref(), n_failures, &mut rng);
        let window = ep
            .episode(&scenario, Some(4000 + e as u64), 1, &mut rng)
            .window;
        // Every algorithm reads the window the detector just diagnosed.
        let obs = ep.run.observations(window);
        let truth = scenario.ground_truth(ft.as_ref());

        for (i, l) in localizers.iter().enumerate() {
            let t = Instant::now();
            let d = l.localize(ep.run.matrix(), &obs);
            time_us[i] += t.elapsed().as_micros();
            acc[i].accumulate(&evaluate_diagnosis(&d.suspect_links(), &truth));
        }
    }

    let names: Vec<&str> = localizers.iter().map(|l| l.name()).collect();
    let mut table = Table::new(vec![
        "algorithm",
        "accuracy %",
        "false pos %",
        "false neg %",
        "mean time (ms)",
    ]);
    for i in 0..4 {
        table.row(vec![
            names[i].to_string(),
            pct(acc[i].accuracy),
            pct(acc[i].false_positive_ratio),
            pct(acc[i].false_negative_ratio),
            format!("{:.2}", time_us[i] as f64 / episodes as f64 / 1000.0),
        ]);
    }
    table.print();
    println!();
    println!("Shape check (paper/TR): PLL leads on accuracy and false positives");
    println!("(hit-ratio filtering handles partial losses) and runs fastest.");
}
