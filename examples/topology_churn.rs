//! Topology churn drill: a mid-run link drain and recovery on Fattree(8),
//! driven through the live-topology API.
//!
//! A [`ChurnSchedule`] scripts the scenario; per window its due events
//! are mirrored onto the simulated fabric (packets start dropping) and
//! onto the running [`Detector`] via `apply` (the probe plan is patched
//! incrementally — only the PMC subproblem containing the drained link is
//! re-solved, and the recovery restores the cached pristine solution
//! without solving anything). The drill asserts the whole story:
//!
//! 1. before the drain, the fabric is clean and diagnoses are clean;
//! 2. the window where the link dies *without* a re-plan would blame it —
//!    here the re-plan lands first, so probes route around the drain and
//!    diagnoses stay clean while the link is down;
//! 3. after recovery the plan, the probe paths and the diagnoses are
//!    back to the pristine state.
//!
//! Run with: `cargo run --release --example topology_churn`

use std::sync::Arc;

use detector::prelude::*;
use detector::simnet::ChurnSchedule;
use detector::system::TopologyEvent;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let ft = Arc::new(Fattree::new(8).expect("valid radix"));
    let victim = ft.ea_link(2, 1, 0);
    let down_window = 2;
    let up_window = 5;
    let windows = 7;

    let churn = ChurnSchedule::drain_recover(victim, down_window, up_window);

    let collector = CollectingSink::new();
    let mut run = Detector::builder(ft.clone() as SharedTopology)
        .config(SystemConfig::default())
        .sink(Box::new(collector.clone()))
        .build()
        .expect("boot");
    let mut fabric = Fabric::quiet(ft.as_ref());
    let mut rng = SmallRng::seed_from_u64(0xC5A0);

    let pristine_paths = run.matrix().num_paths();
    println!(
        "Fattree(8): {} probe paths over {} links; draining link {victim} before window {down_window}, repairing before window {up_window}",
        pristine_paths,
        ft.probe_links(),
    );

    for w in 0..windows {
        for event in churn.due(w) {
            // Mirror the change onto the fabric (drop behaviour) and the
            // detector (incremental re-plan) in lockstep.
            ChurnSchedule::apply_to_fabric(&mut fabric, event);
            let update = run.apply(event).expect("re-plan");
            println!(
                "  event {:>9} → epoch {} | {} link(s) changed | probes Δ {:+} | re-planned in {} µs ({} cell re-solved, {} restored)",
                match event {
                    TopologyEvent::LinkDown { .. } => "link-down",
                    TopologyEvent::LinkUp { .. } => "link-up",
                    _ => "other",
                },
                update.epoch,
                update.links_changed,
                update.probes_delta,
                update.replan_micros,
                update.stats.cells_resolved,
                update.stats.cells_restored,
            );
        }

        let link_is_down = (down_window..up_window).contains(&w);
        let covered = run
            .matrix()
            .paths
            .iter()
            .filter(|p| p.covers(victim))
            .count();
        let result = run.step(&fabric, &mut rng);
        println!(
            "window {w}: probes {:>6} | paths over drained link {:>2} | suspects {:?}",
            result.probes_sent,
            covered,
            result.diagnosis.suspect_links(),
        );

        // The re-plan must keep probes off the drained link (so the
        // drain raises no false alarm) and keep the rest monitored.
        if link_is_down {
            assert_eq!(covered, 0, "probe path crosses the drained link");
            assert!(run.matrix().uncoverable.contains(&victim));
        } else {
            assert!(covered > 0, "repaired link must be probed again");
        }
        assert!(
            result.diagnosis.suspects.is_empty(),
            "drained/recovered fabric must stay clean, got {:?}",
            result.diagnosis.suspect_links()
        );
        assert!(result.probes_sent > 0);
    }

    // Recovery restored the pristine plan exactly.
    assert_eq!(run.matrix().num_paths(), pristine_paths);
    assert_eq!(run.epoch(), 2);

    let plan_updates: Vec<_> = collector
        .events()
        .into_iter()
        .filter(|e| matches!(e, RuntimeEvent::PlanUpdated(_)))
        .collect();
    assert_eq!(plan_updates.len(), 2);
    println!("\nPlanUpdated records (JSON-lines):");
    for e in &plan_updates {
        println!("  {}", e.to_json());
    }
    println!("\nOK: drain and recovery re-planned incrementally; no false alarms.");
}
