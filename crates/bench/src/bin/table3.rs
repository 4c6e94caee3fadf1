//! Table 3 — number of selected probe paths for (α, β) ∈
//! {(1,0), (1,1), (3,2)} across the three DCN families.
//!
//! The headline shape: selected paths are a vanishing fraction of the
//! original ECMP path count, and scale roughly with the link count (for
//! Fattree (1,1) the paper proves a k³/5 lower bound and selects ~17 %
//! above it; our greedy lands within ~25 % of the paper's counts).

use std::collections::HashSet;
use std::sync::Arc;

use detector_bench::{Scale, Table};
use detector_core::pmc::PmcConfig;
use detector_system::ProbePlan;
use detector_topology::{BCube, Fattree, SharedTopology, Vl2};

fn main() {
    let scale = Scale::from_env();
    let topologies: Vec<SharedTopology> = match scale {
        Scale::Quick => vec![
            Arc::new(Fattree::new(16).unwrap()),
            Arc::new(Fattree::new(24).unwrap()),
            Arc::new(Vl2::new(16, 12, 8).unwrap()),
            Arc::new(Vl2::new(24, 16, 16).unwrap()),
            Arc::new(BCube::new(4, 2).unwrap()),
        ],
        Scale::Paper => vec![
            Arc::new(Fattree::new(32).unwrap()),
            Arc::new(Fattree::new(64).unwrap()),
            Arc::new(Vl2::new(72, 48, 40).unwrap()),
            Arc::new(BCube::new(8, 2).unwrap()),
        ],
    };
    let configs = [(1u32, 0u32), (1, 1), (3, 2)];

    println!("Table 3: number of selected paths per (alpha, beta)\n");
    let mut table = Table::new(vec![
        "DCN",
        "links",
        "orig paths",
        "(1,0)",
        "(1,1)",
        "(3,2)",
        "k^3/5 bound",
    ]);
    for topo in &topologies {
        let t = topo.as_ref();
        let mut cells = vec![
            t.name(),
            t.probe_links().to_string(),
            t.original_path_count().to_string(),
        ];
        for (a, b) in configs {
            let cfg = PmcConfig::new(a, b);
            // The symmetric plan, as large topologies boot (§4.3).
            let plan = ProbePlan::with_exhaustive_limit(topo.clone(), &cfg, &HashSet::new(), 0);
            let m = plan.expect("construction must succeed").matrix();
            let mark = if m.achieved.targets_met { "" } else { "*" };
            cells.push(format!("{}{}", m.num_paths(), mark));
        }
        // The k³/5 lower bound applies to Fattree (1,1) only (§4.4).
        let bound = if t.name().starts_with("Fattree") {
            let k: u64 = t
                .name()
                .trim_start_matches("Fattree(")
                .trim_end_matches(')')
                .parse()
                .unwrap_or(0);
            format!("{}", k * k * k / 5)
        } else {
            "-".to_string()
        };
        cells.push(bound);
        table.row(cells);
    }
    table.print();
    println!("\n(* = (alpha,beta) targets not fully attainable on this instance)");
    println!("Shape check (paper): selected << original (<0.1%); Fattree (1,1) lands");
    println!("within a small factor of k^3/5; VL2 needs far fewer paths than Fattree");
    println!("and BCube at comparable scale because it has far fewer switch links.");
}
