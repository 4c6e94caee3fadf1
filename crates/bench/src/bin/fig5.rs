//! Fig. 5 — accuracy and false positives of deTector, Pingmesh and
//! NetNORAD as a function of probes per minute, with one failure injected
//! per experiment minute (4-ary Fattree testbed).
//!
//! Probe counts include ping and reply, and — for the baselines — the
//! *extra localization round* (Netbouncer for Pingmesh, fbtracert for
//! NetNORAD) that deTector does not need. A fifth of the injected
//! failures are *transient* (§2, Table 1): they clear after the detection
//! window, so the baselines' post-alarm round probes a healed fabric —
//! deTector localizes from the same observations that detected the loss
//! and is unaffected. The paper's headline: for 98 % accuracy deTector needs
//! ~3.9× fewer probes than Pingmesh and ~1.9× fewer than NetNORAD, and
//! localizes ~30 s earlier.

use detector_baselines::{BaselineConfig, BaselineSystem};
use detector_bench::{pct, BaselineEpisodes, Episodes, Scale, Table, Tally};
use detector_core::pll::LocalizationMetrics;
use detector_core::pmc::PmcConfig;
use detector_simnet::FailureGenerator;
use detector_system::SystemConfig;
use detector_topology::Fattree;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

struct Point {
    probes_per_min: f64,
    metrics: LocalizationMetrics,
    latency_s: f64,
}

fn detector_points(
    ft: &Fattree,
    gen: &FailureGenerator,
    rates: &[f64],
    minutes: usize,
) -> Vec<Point> {
    let mut out = Vec::new();
    for &rate in rates {
        let cfg = SystemConfig::default()
            .with_rate(rate)
            .with_pmc(PmcConfig::new(3, 1));
        let mut ep = Episodes::boot(Arc::new(ft.clone()), cfg);
        let mut rng = SmallRng::seed_from_u64(0x000F_1500 + (rate * 10.0) as u64);
        for minute in 0..minutes {
            let scenario = gen.sample(ft, 1, &mut rng);
            ep.episode(&scenario, Some(500 + minute as u64), 2, &mut rng);
        }
        out.push(Point {
            // Ping and reply.
            probes_per_min: (ep.tally.probes_sent * 2) as f64 / minutes as f64,
            metrics: ep.tally.metrics,
            // Failures are diagnosed at the end of the 30 s window in
            // which they occur: no extra localization round.
            latency_s: 30.0,
        });
    }
    out
}

fn baseline_points(
    ft: &Fattree,
    gen: &FailureGenerator,
    system: BaselineSystem<'_>,
    budgets: &[u64],
    minutes: usize,
) -> Vec<Point> {
    let mut ep = BaselineEpisodes::new(ft, system);
    let mut out = Vec::new();
    for &budget in budgets {
        ep.tally = Tally::default();
        let mut rng = SmallRng::seed_from_u64(0x000F_1510 + budget);
        for minute in 0..minutes {
            let scenario = gen.sample(ft, 1, &mut rng);
            // Two detection windows per minute, then the localization
            // round: another window of wall-clock time (the 30 s penalty
            // the paper measures).
            ep.episode(&scenario, 900 + minute as u64, 2, budget / 2, &mut rng);
        }
        out.push(Point {
            probes_per_min: ep.tally.probes_sent as f64 / minutes as f64,
            metrics: ep.tally.metrics,
            latency_s: 60.0,
        });
    }
    out
}

fn print_points(name: &str, points: &[Point]) {
    println!("{name}:");
    let mut table = Table::new(vec![
        "probes/min",
        "accuracy %",
        "false pos %",
        "localization latency (s)",
    ]);
    for p in points {
        table.row(vec![
            format!("{:.0}", p.probes_per_min),
            pct(p.metrics.accuracy),
            pct(p.metrics.false_positive_ratio),
            format!("{:.0}", p.latency_s),
        ]);
    }
    table.print();
    println!();
}

fn main() {
    let scale = Scale::from_env();
    let minutes = match scale {
        Scale::Quick => 40usize,
        Scale::Paper => 200,
    };
    let ft = Fattree::new(4).unwrap();
    let gen = FailureGenerator {
        switch_fraction: 0.1,
        ..FailureGenerator::default()
    }
    .with_min_rate(0.05);

    println!("Fig. 5: accuracy & false positives vs probes/minute, one failure per minute\n");
    let det = detector_points(&ft, &gen, &[0.5, 1.0, 2.0, 4.0, 8.0], minutes);
    print_points("deTector (3-coverage, 1-identifiability)", &det);
    let budgets = [2000, 5000, 12000, 30000];
    let bcfg = BaselineConfig::default();
    let pm = BaselineSystem::pingmesh(&ft, bcfg);
    let pm = baseline_points(&ft, &gen, pm, &budgets, minutes);
    print_points("Pingmesh (+ Netbouncer localization)", &pm);
    let nn = BaselineSystem::netnorad(&ft, bcfg, 4);
    let nn = baseline_points(&ft, &gen, nn, &budgets, minutes);
    print_points("NetNORAD (+ fbtracert localization)", &nn);

    // Headline factor: probes needed for >= 95% accuracy.
    let need = |pts: &[Point]| -> Option<f64> {
        pts.iter()
            .filter(|p| p.metrics.accuracy >= 0.95)
            .map(|p| p.probes_per_min)
            .fold(None, |a: Option<f64>, b| Some(a.map_or(b, |x| x.min(b))))
    };
    if let (Some(d), Some(p), Some(n)) = (need(&det), need(&pm), need(&nn)) {
        println!(
            "Probes/min for >=95% accuracy: deTector {:.0}, Pingmesh {:.0} ({:.1}x), NetNORAD {:.0} ({:.1}x)",
            d, p, p / d, n, n / d
        );
    } else {
        println!("(some systems did not reach 95% accuracy in this sweep)");
    }
    println!("\nShape check (paper Fig. 5): deTector reaches high accuracy with several");
    println!("times fewer probes; baselines need an extra localization round (+30 s).");
}
