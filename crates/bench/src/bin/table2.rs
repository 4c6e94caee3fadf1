//! Table 2 — PMC algorithm running time (seconds) with α=2, β=1, per
//! optimization stage: strawman, +decomposition, +lazy update, +symmetry
//! reduction.
//!
//! The paper runs Fattree(12/24/72), VL2(20,12,20 / 40,24,40 /
//! 140,120,100) and BCube(4,2 / 8,2 / 8,4) on a 10-core server with a
//! 24-hour cutoff. The default `quick` scale uses smaller instances and a
//! 30-second cutoff so the whole table regenerates in about a minute; set
//! `DETECTOR_BENCH_SCALE=paper` for the paper's feasible sizes (the
//! symmetric column handles all of them; the enumeration-based columns
//! time out exactly where the paper reports > 24 h).

use std::time::{Duration, Instant};

use detector_bench::{secs, Scale, Table};
use detector_core::pmc::{construct, PmcConfig, PmcError, Strategy};
use detector_topology::{construct_symmetric, BCube, DcnTopology, Fattree, Vl2};

fn variant_cfg(strategy: Strategy, decompose: bool, timeout: Duration) -> PmcConfig {
    let mut cfg = PmcConfig::new(2, 1);
    cfg.strategy = strategy;
    cfg.decompose = decompose;
    cfg.timeout = Some(timeout);
    cfg
}

fn run_enumerated(
    topo: &dyn DcnTopology,
    cfg: &PmcConfig,
    max_paths: u128,
) -> Result<String, String> {
    if topo.original_path_count() > max_paths {
        return Err("skip".into());
    }
    let t0 = Instant::now();
    let candidates = topo.enumerate_candidates();
    let res = construct(topo.probe_links(), candidates, cfg);
    match res {
        Ok(m) => {
            if m.achieved.targets_met {
                Ok(secs(t0.elapsed()))
            } else {
                Ok(format!("{}*", secs(t0.elapsed())))
            }
        }
        Err(PmcError::Timeout { .. }) => Err(format!(
            ">{}",
            cfg.timeout.map(|t| t.as_secs()).unwrap_or(0)
        )),
        Err(e) => Err(format!("error: {e}")),
    }
}

fn run_symmetric(topo: &dyn DcnTopology, timeout: Duration) -> String {
    let mut cfg = PmcConfig::new(2, 1);
    cfg.timeout = Some(timeout);
    let t0 = Instant::now();
    match construct_symmetric(topo, &cfg) {
        Ok(m) => {
            if m.achieved.targets_met {
                secs(t0.elapsed())
            } else {
                format!("{}*", secs(t0.elapsed()))
            }
        }
        Err(PmcError::Timeout { .. }) => format!(">{}", timeout.as_secs()),
        Err(e) => format!("error: {e}"),
    }
}

fn main() {
    let scale = Scale::from_env();
    let (mut timeout, max_paths) = match scale {
        Scale::Quick => (Duration::from_secs(30), 1_000_000u128),
        Scale::Paper => (Duration::from_secs(600), 15_000_000u128),
    };
    // Optional override, e.g. DETECTOR_BENCH_TIMEOUT_S=120 for a faster
    // paper-scale sweep (timeouts print as ">N" either way).
    if let Ok(t) = std::env::var("DETECTOR_BENCH_TIMEOUT_S") {
        if let Ok(secs) = t.parse::<u64>() {
            timeout = Duration::from_secs(secs.max(1));
        }
    }

    let topologies: Vec<Box<dyn DcnTopology>> = match scale {
        Scale::Quick => vec![
            Box::new(Fattree::new(4).unwrap()),
            Box::new(Fattree::new(6).unwrap()),
            Box::new(Fattree::new(8).unwrap()),
            Box::new(Vl2::new(8, 6, 4).unwrap()),
            Box::new(Vl2::new(12, 8, 8).unwrap()),
            Box::new(BCube::new(4, 2).unwrap()),
        ],
        Scale::Paper => vec![
            Box::new(Fattree::new(12).unwrap()),
            Box::new(Fattree::new(24).unwrap()),
            Box::new(Fattree::new(72).unwrap()),
            Box::new(Vl2::new(20, 12, 20).unwrap()),
            Box::new(Vl2::new(40, 24, 40).unwrap()),
            Box::new(BCube::new(4, 2).unwrap()),
            Box::new(BCube::new(8, 2).unwrap()),
        ],
    };

    println!(
        "Table 2: PMC running time (s), alpha=2 beta=1, cutoff {}s",
        timeout.as_secs()
    );
    println!("(* = finished without fully meeting targets; skip = candidate set too large to materialize)\n");
    let mut table = Table::new(vec![
        "DCN",
        "nodes",
        "links",
        "orig paths",
        "strawman",
        "decomposition",
        "lazy update",
        "symmetry",
    ]);

    for topo in &topologies {
        let t = topo.as_ref();
        let strawman = run_enumerated(
            t,
            &variant_cfg(Strategy::Strawman, false, timeout),
            max_paths,
        )
        .unwrap_or_else(|e| e);
        let decomp = run_enumerated(
            t,
            &variant_cfg(Strategy::Strawman, true, timeout),
            max_paths,
        )
        .unwrap_or_else(|e| e);
        let lazy = run_enumerated(t, &variant_cfg(Strategy::Lazy, true, timeout), max_paths)
            .unwrap_or_else(|e| e);
        let symmetry = run_symmetric(t, timeout);
        table.row(vec![
            t.name(),
            t.graph().num_nodes().to_string(),
            t.graph().num_links().to_string(),
            t.original_path_count().to_string(),
            strawman,
            decomp,
            lazy,
            symmetry,
        ]);
    }
    table.print();
    println!();
    println!("Shape check (paper): each optimization gives an order-of-magnitude class");
    println!("speed-up; symmetry makes instances feasible whose candidate sets cannot");
    println!("even be enumerated (the paper's >24h entries).");
}
