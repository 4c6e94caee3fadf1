//! Ablation: PLL's hit-ratio threshold τ (§5.3).
//!
//! The paper sets τ = 0.6 "by experience and, if possible, by learning
//! from real loss data" and defers the analysis to its technical report.
//! This sweep regenerates that analysis: low τ behaves like Tomo (no
//! exoneration → false positives under partial loss), high τ rejects
//! genuinely faulty links whose paths are not all lossy (false
//! negatives); the sweet spot sits in the 0.4–0.7 plateau containing the
//! paper's default.

use detector_bench::{pct, Episodes, Scale, Table};
use detector_core::pmc::PmcConfig;
use detector_simnet::FailureGenerator;
use detector_system::SystemConfig;
use detector_topology::Fattree;
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let (radix, episodes) = match scale {
        Scale::Quick => (18u32, 10usize),
        Scale::Paper => (18, 40),
    };
    let taus = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let n_failures = 10usize;

    let ft = Arc::new(Fattree::new(radix).unwrap());
    // Plenty of partial losses: that is where the threshold matters.
    let gen = FailureGenerator {
        full_fraction: 0.1,
        ..FailureGenerator::links_only()
    }
    .with_min_rate(0.05);

    println!(
        "Ablation: hit-ratio threshold, Fattree({radix}) (1,1) matrix, {n_failures} failures, {episodes} episodes\n"
    );
    let mut table = Table::new(vec!["tau", "accuracy %", "false pos %", "false neg %"]);
    for &tau in &taus {
        let mut cfg = SystemConfig::default().with_pmc(PmcConfig::identifiable(1));
        cfg.pll = cfg.pll.with_hit_ratio(tau);
        let mut ep = Episodes::per_path(ft.clone(), cfg, 30);
        let seed = 0xAB1A + (tau * 10.0) as u64;
        let m = ep.campaign(&gen, n_failures, episodes, seed, true);
        table.row(vec![
            format!("{tau:.1}"),
            pct(m.accuracy),
            pct(m.false_positive_ratio),
            pct(m.false_negative_ratio),
        ]);
    }
    table.print();
    println!();
    println!("Shape check (paper TR): false positives fall as tau rises; false");
    println!("negatives rise past the plateau; the paper's tau = 0.6 sits inside it.");
}
