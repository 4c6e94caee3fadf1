//! Distributed control-plane drill: a churny monitoring campaign on
//! Fattree(8) run through the wire-protocol agent tier — a controller
//! and four `PingerAgent`s talking length-prefixed frames over loopback
//! transports — asserting the distributed run is *identical* to the
//! single-process `run_scripted` oracle, and reporting the wire-byte
//! accounting the per-entry diff protocol is built to minimize.
//!
//! The scenario packs everything the agent tier must get right at once:
//! a real partial failure to localize, a link drain + repair shipping
//! per-entry pinglist diffs mid-run, one agent crashing and
//! reconnecting (its racks degrade to `PingerUnhealthy` and recover), a
//! single pinger marked sick and healed, and controller cycle refreshes
//! landing inside the run.
//!
//! Run with: `cargo run --release --example distributed_run`

use std::sync::Arc;

use detector::prelude::*;

use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let ft = Arc::new(Fattree::new(8).expect("valid radix"));
    let faulty = ft.ac_link(5, 1, 2);
    let drained = ft.ea_link(2, 1, 0);
    let sick_pinger = ft.server(0, 0, 0);
    let agents = 4;
    let windows = 12;

    // Refreshes at windows 4 and 8 (cycle_s = 120 at 30 s windows). The
    // planner repairs the cell a link goes down in — surviving paths keep
    // their ids — so the delta ships per-entry diffs instead of
    // reshuffled whole lists.
    let cfg = SystemConfig {
        cycle_s: 120,
        ..SystemConfig::default()
    };

    let script = DistScript::new()
        .at(
            2,
            DistAction::Topology(TopologyEvent::LinkDown { link: drained }),
        )
        .at(3, DistAction::AgentDown(1))
        .at(5, DistAction::AgentUp(1))
        .at(
            6,
            DistAction::Topology(TopologyEvent::LinkUp { link: drained }),
        )
        .at(8, DistAction::MarkUnhealthy(sick_pinger))
        .at(9, DistAction::MarkHealthy(sick_pinger));

    // One real partial failure to localize. The drained link stays
    // physically healthy (an administrative maintenance drain): the
    // re-plan keeps probes off it while it is drained, and it must never
    // be blamed at any point of the run.
    let mut fabric = Fabric::new(ft.as_ref(), 0xF00D);
    fabric.set_discipline_both(faulty, LossDiscipline::RandomPartial { rate: 0.4 });

    // Distributed run: controller + agent fleet over loopback frames.
    let dist_sink = CollectingSink::new();
    let mut dist = DistributedDetector::new(ft.clone() as SharedTopology, cfg.clone(), agents)
        .expect("boot distributed");
    dist.add_sink(Box::new(dist_sink.clone()));
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let outcome = dist
        .run_distributed(&fabric, windows, &script, &mut rng)
        .expect("distributed run");

    println!(
        "Fattree(8), {agents} agents, {windows} windows, {} probe paths; \
         faulty link {faulty}, drained link {drained}, sick pinger {sick_pinger}",
        dist.matrix().num_paths(),
    );

    // Sequential oracle: the same campaign with the agent crash expanded
    // to per-rack health marks by `DistScript::oracle`.
    let seq_sink = CollectingSink::new();
    let mut seq = Detector::builder(ft.clone() as SharedTopology)
        .config(cfg)
        .sink(Box::new(seq_sink.clone()))
        .build()
        .expect("boot oracle");
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let oracle = script.oracle(dist.groups());
    let seq_results = seq
        .run_scripted(&fabric, windows, &oracle, &mut rng)
        .expect("sequential oracle");

    // The distributed run is bit-equivalent to the oracle.
    assert_eq!(seq_results, outcome.results, "window results diverged");
    let normalize = |events: Vec<RuntimeEvent>| -> Vec<RuntimeEvent> {
        events.iter().map(RuntimeEvent::normalized).collect()
    };
    assert_eq!(
        normalize(seq_sink.events()),
        normalize(dist_sink.events()),
        "event streams diverged"
    );
    assert_eq!(seq.matrix().paths, dist.matrix().paths);

    // And the campaign itself behaved: the real failure is localized
    // every window, the drained link is never blamed.
    for w in &outcome.results {
        let suspects = w.diagnosis.suspect_links();
        assert!(
            suspects.contains(&faulty),
            "window {}: faulty link missed, suspects {suspects:?}",
            w.window
        );
        assert!(
            !suspects.contains(&drained),
            "window {}: drained link blamed, suspects {suspects:?}",
            w.window
        );
        println!(
            "window {:>2}: probes {:>6} | observations {:>4} | suspects {:?}",
            w.window, w.probes_sent, w.num_observations, suspects
        );
    }

    // Wire accounting. Dispatch bytes (pinglist material) are the
    // quantity the per-entry diff protocol minimizes: after the initial
    // sync they grow with the *delta*, not the fleet.
    assert!(outcome.dispatch_bytes > 0, "no pinglists ever shipped");
    assert!(
        outcome.control_bytes >= outcome.dispatch_bytes,
        "dispatch is part of the control stream"
    );
    println!(
        "\nwire bytes: dispatch {:>8} (pinglist sync + per-entry diffs)",
        outcome.dispatch_bytes
    );
    println!(
        "            control  {:>8} (dispatch + windows + heartbeats)",
        outcome.control_bytes
    );
    println!(
        "            reports  {:>8} (hellos + observations + acks)",
        outcome.report_bytes
    );
    println!("\nOK: distributed run identical to the sequential oracle.");
}
