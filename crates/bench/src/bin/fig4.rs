//! Fig. 4 — sensitivity to probe sending frequency on the 4-ary Fattree
//! testbed: (a) PLL accuracy / false positives, (b) pinger CPU / memory /
//! bandwidth overhead, (c) workload RTT, (d) workload jitter.
//!
//! Each experiment minute injects one failure drawn from the three types
//! of §6.2 (full, deterministic partial, random partial) at a random
//! location; the deTector runtime probes at the given frequency and the
//! diagnosis of the minute's last window is scored. The paper's finding:
//! 10–15 probes/s already gives ≥95 % accuracy and <3 % false positives
//! at ~100 Kbps, 0.4 % CPU and 13 MB per pinger, with no visible impact
//! on workload RTT/jitter.

use detector_bench::{pct, Episodes, Scale, Table};
use detector_core::pmc::PmcConfig;
use detector_simnet::{measure_workload_rtt, Fabric, FailureGenerator, WorkloadGenerator};
use detector_system::{PingerCostModel, SystemConfig};
use detector_topology::{DcnTopology, Fattree};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let minutes = match scale {
        Scale::Quick => 12usize,
        Scale::Paper => 200,
    };
    let freqs = [1.0f64, 2.0, 5.0, 10.0, 15.0, 20.0, 50.0];

    let ft = Arc::new(Fattree::new(4).unwrap());
    let gen = FailureGenerator {
        switch_fraction: 0.1,
        ..FailureGenerator::default()
    }
    .with_min_rate(0.05);
    let cost = PingerCostModel::default();

    // Workload for (c)/(d): fixed offered load; probe traffic adds its
    // (tiny) share of utilization per frequency.
    let wl = WorkloadGenerator {
        load: 0.2,
        ..Default::default()
    };
    let mut wl_rng = SmallRng::seed_from_u64(0xF164);
    let flows = wl.generate(ft.as_ref(), 1.0, 1e9, &mut wl_rng);
    let base_util = WorkloadGenerator::utilization(ft.as_ref(), &flows, 1.0, 1e9);

    println!("Fig. 4: probe-frequency sensitivity, 4-ary Fattree, {minutes} minutes per point\n");
    let mut table = Table::new(vec![
        "freq (pps)",
        "accuracy %",
        "false pos %",
        "CPU %",
        "mem (MB)",
        "BW (Kbps)",
        "RTT mean (us)",
        "RTT p99 (us)",
        "jitter (us)",
    ]);

    for &freq in &freqs {
        let cfg = SystemConfig::default()
            .with_rate(freq)
            .with_pmc(PmcConfig::new(3, 1));
        let mut ep = Episodes::boot(ft.clone(), cfg);
        let mut rng = SmallRng::seed_from_u64(0x000F_1640 + freq as u64);
        for minute in 0..minutes {
            let scenario = gen.sample(ft.as_ref(), 1, &mut rng);
            // Two 30-second windows per minute; score the last diagnosis.
            ep.episode(&scenario, Some(100 + minute as u64), 2, &mut rng);
        }
        let metrics = ep.tally.metrics;

        // Workload RTT/jitter with probe traffic folded into utilization:
        // #pingers × freq × 850 B spread over the fabric.
        let mut fabric = Fabric::new(ft.as_ref(), 7);
        let mut util = base_util.clone();
        let probe_bps = ep.run.pinglists().len() as f64 * freq * 850.0 * 8.0;
        let per_link = probe_bps / ft.graph().num_links() as f64 / 1e9;
        for u in &mut util {
            *u = (*u + per_link).min(1.0);
        }
        fabric.set_utilization(util);
        let sample: Vec<_> = flows.iter().take(60).copied().collect();
        let stats = measure_workload_rtt(&fabric, &sample, 5, &mut wl_rng);

        table.row(vec![
            format!("{freq}"),
            pct(metrics.accuracy),
            pct(metrics.false_positive_ratio),
            format!("{:.2}", cost.cpu_percent(freq)),
            format!("{:.1}", cost.memory_mb(freq)),
            format!("{:.1}", cost.bandwidth_kbps(freq)),
            format!("{:.0}", stats.mean_rtt_us),
            format!("{:.0}", stats.p99_rtt_us),
            format!("{:.1}", stats.jitter_us),
        ]);
    }
    table.print();
    println!();
    println!("Shape check (paper Fig. 4): accuracy rises and FP falls with frequency,");
    println!("flattening by 10-15 pps; overhead grows linearly (0.4% CPU / 13 MB /");
    println!("~100 Kbps at 10-15 pps); workload RTT and jitter stay essentially flat.");
}
