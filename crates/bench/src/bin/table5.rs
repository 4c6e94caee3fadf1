//! Table 5 — fault localization with a 2-identifiable probe matrix in a
//! 48-ary Fattree: accuracy, false positive and false negative ratios
//! under 1–50 simultaneous link failures.
//!
//! The paper reports ≈99 % accuracy with false positives ≤ 0.02 % —
//! false negatives are dominated by failures whose loss rate is too low
//! to manifest within one 30-second window.

use detector_bench::{pct, Episodes, Scale, Table};
use detector_core::pmc::PmcConfig;
use detector_simnet::FailureGenerator;
use detector_system::SystemConfig;
use detector_topology::{DcnTopology, Fattree};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let (radix, episodes) = match scale {
        Scale::Quick => (24u32, 5usize),
        Scale::Paper => (48, 10),
    };
    let failures = [1usize, 5, 10, 20, 50];

    let ft = Arc::new(Fattree::new(radix).unwrap());
    let t0 = std::time::Instant::now();
    let cfg = SystemConfig::default().with_pmc(PmcConfig::new(1, 2));
    let mut ep = Episodes::per_path(ft.clone(), cfg, 30);
    println!(
        "Table 5: Fattree({radix}) with a (1,2) probe matrix ({} paths over {} links, booted in {:.1}s)",
        ep.run.matrix().num_paths(),
        ft.probe_links(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "{} episodes per cell, 30 probes per path per window\n",
        episodes
    );

    let gen = FailureGenerator::links_only().with_min_rate(0.05);
    let mut table = Table::new(vec![
        "# failed links",
        "accuracy %",
        "false positive %",
        "false negative %",
    ]);
    for (fi, &n) in failures.iter().enumerate() {
        let m = ep.campaign(&gen, n, episodes, 0x7AB5 + fi as u64, true);
        table.row(vec![
            n.to_string(),
            pct(m.accuracy),
            pct(m.false_positive_ratio),
            pct(m.false_negative_ratio),
        ]);
    }
    table.print();
    println!();
    println!("Shape check (paper Table 5): accuracy ≈99%, FP << 1%, FN ≈ 1% and");
    println!("growing slightly with the number of concurrent failures.");
}
