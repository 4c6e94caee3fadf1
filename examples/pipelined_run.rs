//! Pipelined scheduler drill: the same churny monitoring campaign run
//! twice on Fattree(8) — once through sequential `step()`, once through
//! `run_pipelined` — asserting the two produce *identical* per-window
//! diagnoses and event streams, and reporting the wall-clock
//! windows-per-second of each.
//!
//! The scenario packs everything the scheduler must get right at once:
//! a real partial failure to localize, a link drain + repair re-planning
//! mid-run, a pinger dying and recovering, and controller cycle
//! refreshes landing inside the run.
//!
//! It also counts the windows the pipelined run held open at once
//! (opened and not yet closed, read off the data plane's window hooks)
//! and asserts the peak never exceeds the configured depth.
//!
//! Run with: `cargo run --release --example pipelined_run`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use detector::prelude::*;
use detector::system::{PipelineConfig, Script};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The fabric, plus a count of the windows opened and not yet closed
/// and the most of them seen at an open.
struct InFlight<'a> {
    fabric: &'a Fabric<'a>,
    open: AtomicU64,
    peak: AtomicU64,
}

impl DataPlane for InFlight<'_> {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        self.fabric.probe(route, flow, rng)
    }

    fn window_started(&self, _window: u64, _start_s: u64) {
        let open = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(open, Ordering::SeqCst);
    }

    fn window_finished(&self, _window: u64, _end_s: u64) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

fn main() {
    let ft = Arc::new(Fattree::new(8).expect("valid radix"));
    let faulty = ft.ac_link(5, 1, 2);
    let drained = ft.ea_link(2, 1, 0);
    let sick_pinger = ft.server(0, 0, 0);
    let windows = 12;

    // Refreshes at windows 4 and 8 (cycle_s = 120 at 30 s windows).
    let cfg = SystemConfig {
        cycle_s: 120,
        ..SystemConfig::default()
    };
    let script = Script::new()
        .topology(2, TopologyEvent::LinkDown { link: drained })
        .mark_unhealthy(3, sick_pinger)
        .topology(6, TopologyEvent::LinkUp { link: drained })
        .mark_healthy(7, sick_pinger);

    // One real partial failure to localize. The drained link stays
    // physically healthy (an administrative maintenance drain): the
    // re-plan keeps probes off it while it is drained, and it must never
    // be blamed at any point of the run.
    let mut fabric = Fabric::new(ft.as_ref(), 0xF00D);
    fabric.set_discipline_both(faulty, LossDiscipline::RandomPartial { rate: 0.4 });

    println!(
        "Fattree(8), {windows} windows, {} probe paths; faulty link {faulty}, drained link {drained}, sick pinger {sick_pinger}",
        Detector::new(ft.clone() as SharedTopology, cfg.clone())
            .expect("boot")
            .matrix()
            .num_paths(),
    );

    // Sequential oracle.
    let seq_sink = CollectingSink::new();
    let mut seq = Detector::builder(ft.clone() as SharedTopology)
        .config(cfg.clone())
        .sink(Box::new(seq_sink.clone()))
        .build()
        .expect("boot sequential");
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let t0 = Instant::now();
    let seq_results = seq
        .run_scripted(&fabric, windows, &script, &mut rng)
        .expect("sequential run");
    let seq_elapsed = t0.elapsed();

    // Pipelined runtime.
    let pipeline = PipelineConfig::default();
    let pipe_sink = CollectingSink::new();
    let mut pipe = Detector::builder(ft.clone() as SharedTopology)
        .config(cfg)
        .sink(Box::new(pipe_sink.clone()))
        .build()
        .expect("boot pipelined");
    let plane = InFlight {
        fabric: &fabric,
        open: AtomicU64::new(0),
        peak: AtomicU64::new(0),
    };
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let t0 = Instant::now();
    let pipe_results = pipe
        .run_pipelined(&plane, windows, &script, &pipeline, &mut rng)
        .expect("pipelined run");
    let pipe_elapsed = t0.elapsed();
    let peak = plane.peak.load(Ordering::SeqCst);
    assert!(
        peak <= pipeline.depth as u64,
        "{peak} windows in flight at depth {}",
        pipeline.depth
    );

    // The pipelined run is bit-equivalent to the oracle.
    assert_eq!(seq_results, pipe_results, "window results diverged");
    let normalize = |events: Vec<RuntimeEvent>| -> Vec<RuntimeEvent> {
        events.iter().map(RuntimeEvent::normalized).collect()
    };
    assert_eq!(
        normalize(seq_sink.events()),
        normalize(pipe_sink.events()),
        "event streams diverged"
    );

    // And the campaign itself behaved: the real failure is localized
    // every window, the drained link is never blamed.
    for w in &pipe_results {
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

    let wps = |elapsed: std::time::Duration| windows as f64 / elapsed.as_secs_f64();
    println!(
        "\nsequential: {:>8.2?} total, {:>6.1} windows/s",
        seq_elapsed,
        wps(seq_elapsed)
    );
    println!(
        "pipelined:  {:>8.2?} total, {:>6.1} windows/s ({} probe workers, depth {}, {:.2}x)",
        pipe_elapsed,
        wps(pipe_elapsed),
        pipeline.probe_workers,
        pipeline.depth,
        seq_elapsed.as_secs_f64() / pipe_elapsed.as_secs_f64(),
    );
    println!("peak windows in flight: {peak} (depth {})", pipeline.depth);
    println!("\nOK: pipelined run identical to the sequential oracle.");
}
