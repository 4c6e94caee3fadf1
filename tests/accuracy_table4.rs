//! The Table 4 accuracy floor of the PLL greedy on noiseless failure
//! episodes.
//!
//! The PLL greedy ranks candidate links by explained losses with the hit
//! ratio as an eligibility filter (§5.3). This sweep steps a deployed
//! detector — controller, pingers, diagnoser — over noiseless Fattree and
//! VL2 failure episodes at Table 4's probe budget (30 probes per path),
//! prints the table, and asserts the accuracy floor so the pipeline can
//! never silently regress.
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
use detector_bench::{pct, Episodes, Scale, Table};
use std::sync::Arc;

#[test]
#[ignore = "accuracy sweep (minutes); run by the CI smoke job in release mode"]
fn table4_noiseless_accuracy_floors() {
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
    let (da, di, srv) = vl_params;
    let topos: [(String, SharedTopology); 2] = [
        (
            format!("Fattree({ft_radix})"),
            Arc::new(Fattree::new(ft_radix).unwrap()),
        ),
        (
            format!("VL2({da},{di})"),
            Arc::new(Vl2::new(da, di, srv).unwrap()),
        ),
    ];
    let cfg = SystemConfig::default().with_pmc(PmcConfig::identifiable(1));

    let mut table = Table::new(vec!["topology", "fails", "accuracy", "FP"]);
    for (name, topo) in topos {
        let mut ep = Episodes::per_path(topo, cfg.clone(), 30);
        for (fi, &(n, floor)) in failures.iter().enumerate() {
            let m = ep.campaign(&gen, n, episodes, 0x7AB4 + fi as u64, false);
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
