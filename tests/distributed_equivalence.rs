//! The scenario harness proving the distributed control plane
//! equivalent to the single-process `run_scripted` oracle.
//!
//! `DistributedDetector::run_distributed` drives a fleet of
//! `PingerAgent`s over loopback transports: pinglists travel as
//! per-entry wire diffs, reports stream back as frames, and dead agents
//! degrade to `PingerUnhealthy` racks. This harness asserts that under
//! arbitrary combinations of
//!
//! * **loss** — random per-link disciplines on the fabric,
//! * **churn** — scripted `TopologyEvent`s re-planning mid-run,
//! * **agent failure** — scripted `AgentDown`/`AgentUp` (whole host
//!   groups) and server-granular health marks,
//! * **cycle-boundary refreshes** — a short controller cycle,
//!
//! the distributed run produces exactly the per-window results and the
//! same totally ordered `RuntimeEvent` stream as the sequential oracle
//! driven by `DistScript::oracle`'s expansion of the same script — the
//! only tolerated difference being the wall-clock `replan_micros` field
//! of `PlanUpdated`.
//!
//! The crash-point sweep additionally kills one agent's transport after
//! an arbitrary number of sends — so the crash lands at every point of
//! the wire protocol: before `Hello`, at a heartbeat ack, mid-report
//! stream, between windows — and asserts the degraded run equals the
//! oracle that marked the victim's racks unhealthy at the window where
//! the crash surfaced.

use std::sync::Arc;

use detector::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A short cycle (two 30-second windows) so refreshes fire mid-run.
fn config() -> SystemConfig {
    SystemConfig {
        cycle_s: 60,
        ..SystemConfig::default()
    }
}

fn sample_server(ft: &Fattree, target: u16) -> NodeId {
    let t = u32::from(target);
    let k = ft.k();
    let half = ft.half();
    ft.server(t % k, (t / k) % half, (t / (k * half)) % half)
}

/// Decodes one raw `(kind, target)` pair into a distributed action.
/// Small target ranges make down/up and unhealthy/healthy collisions
/// likely.
fn decode_action(ft: &Fattree, agents: usize, kind: u8, target: u16) -> DistAction {
    let probe_links = ft.probe_links() as u32;
    let switches = ft.graph().num_switches() as u32;
    match kind % 8 {
        0 => DistAction::Topology(TopologyEvent::LinkDown {
            link: LinkId(u32::from(target) % probe_links),
        }),
        1 => DistAction::Topology(TopologyEvent::LinkUp {
            link: LinkId(u32::from(target) % probe_links),
        }),
        2 => DistAction::Topology(TopologyEvent::SwitchDrain {
            switch: NodeId(u32::from(target) % switches),
        }),
        3 => DistAction::Topology(TopologyEvent::SwitchUndrain {
            switch: NodeId(u32::from(target) % switches),
        }),
        4 => DistAction::MarkUnhealthy(sample_server(ft, target)),
        5 => DistAction::MarkHealthy(sample_server(ft, target)),
        6 => DistAction::AgentDown(usize::from(target) % agents),
        _ => DistAction::AgentUp(usize::from(target) % agents),
    }
}

/// Decodes a raw failure triple into a fabric loss discipline.
fn decode_failure(ft: &Fattree, link: u16, kind: u8, level: u8) -> (LinkId, LossDiscipline) {
    let l = LinkId(u32::from(link) % ft.probe_links() as u32);
    let disc = match kind % 3 {
        0 => LossDiscipline::Full,
        1 => LossDiscipline::RandomPartial {
            rate: 0.1 + f64::from(level % 8) / 10.0,
        },
        _ => LossDiscipline::DeterministicPartial {
            fraction: 0.2 + f64::from(level % 6) / 10.0,
            salt: u64::from(level),
        },
    };
    (l, disc)
}

/// Zeroes the wall-clock fields (`RuntimeEvent::normalized`) so streams
/// from different executions compare equal.
fn normalize(events: Vec<RuntimeEvent>) -> Vec<RuntimeEvent> {
    events.iter().map(RuntimeEvent::normalized).collect()
}

/// Runs the same scenario distributed and sequentially (over the
/// oracle expansion), asserting equal window results, equal
/// (normalized) event streams, and equal final state.
fn check_equivalence(
    ft: Arc<Fattree>,
    failures: &[(u16, u8, u8)],
    raw_script: &[(u8, u8, u16)],
    agents: usize,
    windows: u64,
    seed: u64,
) -> DistOutcome {
    let mut fabric = Fabric::new(ft.as_ref(), seed ^ 0xFAB);
    for &(link, kind, level) in failures {
        let (l, d) = decode_failure(&ft, link, kind, level);
        fabric.set_discipline_both(l, d);
    }
    let script = raw_script
        .iter()
        .fold(DistScript::new(), |s, &(window, kind, target)| {
            s.at(
                u64::from(window) % windows,
                decode_action(&ft, agents, kind, target),
            )
        });

    let dist_sink = CollectingSink::new();
    let mut dist = DistributedDetector::new(ft.clone() as SharedTopology, config(), agents)
        .expect("boot distributed");
    dist.add_sink(Box::new(dist_sink.clone()));
    let mut rng = SmallRng::seed_from_u64(seed);
    let outcome = dist
        .run_distributed(&fabric, windows, &script, &mut rng)
        .expect("distributed run");

    let seq_sink = CollectingSink::new();
    let mut seq = Detector::builder(ft.clone() as SharedTopology)
        .config(config())
        .sink(Box::new(seq_sink.clone()))
        .build()
        .expect("boot oracle");
    let mut rng = SmallRng::seed_from_u64(seed);
    let oracle = script.oracle(dist.groups());
    let seq_results = seq
        .run_scripted(&fabric, windows, &oracle, &mut rng)
        .expect("sequential oracle");

    assert_eq!(
        seq_results, outcome.results,
        "window results diverge (script {raw_script:?}, failures {failures:?})"
    );
    assert_eq!(
        normalize(seq_sink.events()),
        normalize(dist_sink.events()),
        "event streams diverge (script {raw_script:?}, failures {failures:?})"
    );
    assert_eq!(seq.now_s(), dist.now_s());
    assert_eq!(seq.epoch(), dist.epoch());
    assert_eq!(seq.matrix().paths, dist.matrix().paths);
    assert_eq!(seq.matrix().uncoverable, dist.matrix().uncoverable);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The core property: any loss pattern + churn/health/agent-failure
    /// script + cycle refreshes ⇒ distributed ≡ sequential, events and
    /// results, with ≥4 agents. Plan-epoch changes and refreshes land
    /// mid-run (cycle_s = 60 over 5 windows), exercising the localizer's
    /// rebuild-after-invalidate path; the quiet stretches exercise its
    /// skeleton and verdict reuse.
    #[test]
    fn distributed_equals_sequential(
        failures in proptest::collection::vec((0u16..64, 0u8..3, 0u8..8), 0..3),
        raw_script in proptest::collection::vec((0u8..6, 0u8..8, 0u16..64), 0..6),
        seed in 0u64..1_000,
        agents in 4usize..7,
    ) {
        let ft = Arc::new(Fattree::new(4).unwrap());
        // 5 windows at cycle_s = 60 ⇒ refreshes inside the run at
        // windows 2 and 4.
        check_equivalence(ft, &failures, &raw_script, agents, 5, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Crash-point sweep: one agent's transport dies after `budget`
    /// sends — landing the crash at every point of the protocol
    /// (`Hello`, heartbeat acks, mid-report stream, between windows).
    /// Wherever it lands, the run degrades to exactly the oracle that
    /// marked the victim's racks unhealthy at the window where the
    /// crash surfaced, and never stalls. (Default 600 s cycle: no
    /// refresh coincides with the crash, per the documented caveat.)
    #[test]
    fn a_crash_at_any_protocol_point_degrades_to_the_oracle(
        budget in 0usize..16,
        victim in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let fabric = Fabric::new(ft.as_ref(), seed ^ 0xFAB);
        let windows = 3u64;

        let dist_sink = CollectingSink::new();
        let mut dist = DistributedDetector::new(
            ft.clone() as SharedTopology,
            SystemConfig::default(),
            4,
        )
        .expect("boot distributed");
        dist.add_sink(Box::new(dist_sink.clone()));
        let mut rng = SmallRng::seed_from_u64(seed);
        let outcome = dist
            .run_distributed_with_faults(
                &fabric,
                windows,
                &DistScript::new(),
                &[(victim, budget)],
                &mut rng,
            )
            .expect("distributed run survives the crash");
        prop_assert_eq!(outcome.results.len(), windows as usize);

        // The crash surfaces as the victim group's first PingerUnhealthy
        // window (if the budget outlasted the run, there is none).
        let group = dist.groups().group(victim).to_vec();
        let crash_window = dist_sink.events().iter().find_map(|e| match e {
            RuntimeEvent::PingerUnhealthy { window, pinger } if group.contains(pinger) => {
                Some(*window)
            }
            _ => None,
        });
        let oracle = match crash_window {
            Some(w) => group
                .iter()
                .fold(Script::new(), |s, &srv| s.mark_unhealthy(w, srv)),
            None => Script::new(),
        };

        let seq_sink = CollectingSink::new();
        let mut seq = Detector::builder(ft.clone() as SharedTopology)
            .sink(Box::new(seq_sink.clone()))
            .build()
            .expect("boot oracle");
        let mut rng = SmallRng::seed_from_u64(seed);
        let seq_results = seq
            .run_scripted(&fabric, windows, &oracle, &mut rng)
            .expect("sequential oracle");
        prop_assert_eq!(&seq_results, &outcome.results);
        prop_assert_eq!(normalize(seq_sink.events()), normalize(dist_sink.events()));
    }
}

/// The distributed copy of the component merge/split regression: the
/// drain removes one island's bridge from the plan mid-epoch (2 → 1
/// components) and the undrain's LinkUps split it back (1 → 2), each on
/// a plan-epoch change that must rebuild the cached skeleton. The fleet
/// must match the sequential oracle event for event.
#[test]
fn component_merge_and_split_stays_equivalent_distributed() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let mut fabric = Fabric::new(ft.as_ref(), 0xFAB);
    for l in [ft.ea_link(0, 0, 0), ft.ea_link(0, 1, 1)] {
        fabric.set_discipline_both(l, LossDiscipline::Full);
    }
    let script = DistScript::new()
        .topology(
            1,
            TopologyEvent::SwitchDrain {
                switch: ft.agg(0, 0),
            },
        )
        .topology(
            3,
            TopologyEvent::SwitchUndrain {
                switch: ft.agg(0, 0),
            },
        );

    let dist_sink = CollectingSink::new();
    let mut dist = DistributedDetector::new(ft.clone() as SharedTopology, config(), 4)
        .expect("boot distributed");
    dist.add_sink(Box::new(dist_sink.clone()));
    let mut rng = SmallRng::seed_from_u64(7);
    let outcome = dist
        .run_distributed(&fabric, 5, &script, &mut rng)
        .expect("distributed run");

    let seq_sink = CollectingSink::new();
    let mut seq = Detector::builder(ft.clone() as SharedTopology)
        .config(config())
        .sink(Box::new(seq_sink.clone()))
        .build()
        .expect("boot oracle");
    let mut rng = SmallRng::seed_from_u64(7);
    let oracle = script.oracle(dist.groups());
    let seq_results = seq.run_scripted(&fabric, 5, &oracle, &mut rng).unwrap();

    assert_eq!(seq_results, outcome.results);
    assert_eq!(normalize(seq_sink.events()), normalize(dist_sink.events()));
    let components: Vec<u64> = dist_sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            RuntimeEvent::WindowCounters { components, .. } => Some(components),
            _ => None,
        })
        .collect();
    assert_eq!(
        components,
        vec![2, 1, 1, 2, 2],
        "the drain/undrain must merge then split the lossy components"
    );
}

/// A deterministic mid-window crash regression pinning the forfeit
/// semantics: the victim dies after its hello, its window-0 heartbeat
/// ack and exactly one report — partial output must be discarded as a
/// unit, never half-ingested.
#[test]
fn a_mid_report_crash_forfeits_the_whole_window() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let fabric = Fabric::quiet(ft.as_ref());
    let mut dist =
        DistributedDetector::new(ft.clone() as SharedTopology, SystemConfig::default(), 4)
            .expect("boot");
    let sink = CollectingSink::new();
    dist.add_sink(Box::new(sink.clone()));
    let group = dist.groups().group(1).to_vec();
    let mut rng = SmallRng::seed_from_u64(42);
    let outcome = dist
        .run_distributed_with_faults(&fabric, 2, &DistScript::new(), &[(1, 3)], &mut rng)
        .expect("run survives");
    assert_eq!(outcome.results.len(), 2);
    for &s in &group {
        assert!(!dist.watchdog.is_healthy(s), "whole group degrades");
    }
    // No ReportIngested from the victim group in either window.
    for e in sink.events() {
        if let RuntimeEvent::ReportIngested { pinger, .. } = e {
            assert!(
                !group.contains(&pinger),
                "forfeited reports must not be ingested"
            );
        }
    }
}

/// Distributed mode at the paper's testbed scale and beyond: a
/// Fattree(32) fleet (8192 servers, 8 agents) runs three windows end to
/// end over loopback transports, with one scripted link failure whose
/// re-dispatch travels as per-entry diffs — bytes proportional to the
/// delta, not the fleet.
///
/// `#[ignore]`d like the other large-scale suites; the CI smoke job
/// runs it in release (`cargo test --release --test
/// distributed_equivalence -- --ignored`).
#[test]
#[ignore = "Fattree(32) scale; run with --ignored (CI distributed smoke job, release mode)"]
fn fattree32_end_to_end_with_delta_proportional_dispatch() {
    let ft = Arc::new(Fattree::new(32).unwrap());
    let fabric = Fabric::quiet(ft.as_ref());

    // The controller repairs a cell a link went down in: surviving paths
    // keep their ids, so only the paths the delta actually broke travel.
    let cfg = config();

    let mut base = DistributedDetector::new(ft.clone() as SharedTopology, cfg.clone(), 8)
        .expect("boot baseline");
    let mut rng = SmallRng::seed_from_u64(7);
    let baseline = base
        .run_distributed(&fabric, 3, &DistScript::new(), &mut rng)
        .expect("baseline run");
    assert_eq!(baseline.results.len(), 3);
    assert!(baseline.results.iter().all(|r| r.probes_sent > 0));

    let mut churn =
        DistributedDetector::new(ft.clone() as SharedTopology, cfg, 8).expect("boot churn");
    let script = DistScript::new().topology(
        1,
        TopologyEvent::LinkDown {
            link: ft.ea_link(0, 0, 0),
        },
    );
    let mut rng = SmallRng::seed_from_u64(7);
    let churned = churn
        .run_distributed(&fabric, 3, &script, &mut rng)
        .expect("churn run");

    // The single-link delta must be a sliver of the initial full sync…
    let full_sync = baseline.dispatch_bytes;
    let delta = churned.dispatch_bytes - full_sync;
    assert!(delta > 0, "the re-plan must ship something");
    assert!(
        delta * 4 <= full_sync,
        "dispatch bytes must be proportional to the delta, not the fleet: \
         delta {delta}, full sync {full_sync}"
    );

    // …and ≥10× below what the pre-diff protocol would ship: the same
    // changed lists, redispatched whole.
    let (diff_bytes, whole_bytes) = single_link_diff_vs_whole(&ft);
    assert!(
        diff_bytes * 10 <= whole_bytes,
        "per-entry diffs must be ≥10× below whole-list redispatch: \
         diff {diff_bytes}, whole {whole_bytes}"
    );
}

/// Wire bytes of one `ea_link(0,0,0)` failure's dispatch vs
/// redispatching every changed list whole (the pre-diff protocol), both
/// as `detector_system::wire` encodes them.
fn single_link_diff_vs_whole(ft: &Arc<Fattree>) -> (u64, u64) {
    use detector_system::dispatch::{rebase_and_diff, rebase_pairs, ListUpdate};
    use detector_system::wire::encode_update;
    use detector_system::Controller;

    let mut ctl = Controller::new(ft.clone() as SharedTopology, config());
    let healthy = std::collections::HashSet::new();
    let dep0 = ctl.build_deployment(&healthy).expect("initial deployment");
    let ranges_before = ctl.probe_plan().map(|p| p.cell_ranges());
    ctl.apply_event(&TopologyEvent::LinkDown {
        link: ft.ea_link(0, 0, 0),
    })
    .expect("re-plan");
    let mut dep1 = ctl.build_deployment(&healthy).expect("patched deployment");
    let ranges_after = ctl.probe_plan().map(|p| p.cell_ranges());
    let rebases = rebase_pairs(ranges_before.as_deref(), ranges_after.as_deref());
    let (updates, stats) = rebase_and_diff(&dep0, &mut dep1, &rebases);

    let whole: usize = (updates.iter())
        .map(|u| match u {
            ListUpdate::Diff { pinger, .. } => dep1
                .pinglists
                .iter()
                .find(|l| l.pinger == *pinger)
                .map(|l| ListUpdate::Replace(l.clone()))
                .expect("diffed list exists in the new deployment"),
            other => other.clone(),
        })
        .map(|u| encode_update(&u).len())
        .sum();
    (stats.bytes_dispatched, whole as u64)
}
