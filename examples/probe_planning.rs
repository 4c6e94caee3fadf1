//! Probe-matrix planning across topologies: how many paths do different
//! (α, β) targets cost on Fattree, VL2 and BCube, and what do they buy?
//! A miniature of the paper's Tables 3 and 4 reasoning.
//!
//! Run with: `cargo run --release --example probe_planning`

use std::collections::HashSet;
use std::sync::Arc;

use detector::prelude::*;

fn plan(topo: SharedTopology) {
    println!(
        "{} — {} probe links, {} original ECMP paths",
        topo.name(),
        topo.probe_links(),
        topo.original_path_count()
    );
    for (a, b) in [(1u32, 0u32), (2, 0), (1, 1), (1, 2)] {
        // The plan `Detector` deploys, with no link offline.
        match ProbePlan::new(topo.clone(), &PmcConfig::new(a, b), &HashSet::new()) {
            Ok(plan) => {
                let m = plan.matrix();
                let ident = max_identifiability(&m, 2);
                println!(
                    "  ({a},{b}): {:>6} paths | verified coverage {} identifiability {}{}",
                    m.num_paths(),
                    min_coverage(&m),
                    ident,
                    if m.achieved.targets_met {
                        ""
                    } else {
                        "  (targets not attainable)"
                    },
                );
            }
            Err(e) => println!("  ({a},{b}): failed: {e}"),
        }
    }
    println!();
}

fn main() {
    println!("probe planning: selected paths per (alpha, beta) target\n");
    plan(Arc::new(Fattree::new(8).expect("fattree")));
    plan(Arc::new(Vl2::new(8, 6, 4).expect("vl2")));
    plan(Arc::new(BCube::new(4, 2).expect("bcube")));
    println!("takeaway (paper §6.4): identifiability is a much better investment");
    println!("than coverage — a (1,1) matrix localizes failures a (3,0) matrix");
    println!("cannot, with fewer paths.");
}
