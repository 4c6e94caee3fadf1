//! The scenario harness proving the pipelined scheduler equivalent to
//! the sequential `step()` oracle.
//!
//! `Detector::run_pipelined` overlaps probe dispatch, report collection
//! and diagnosis across windows on worker threads; this harness asserts
//! that under arbitrary combinations of
//!
//! * **loss** — random per-link disciplines on the fabric,
//! * **churn** — scripted `TopologyEvent`s re-planning mid-run,
//! * **pinger failure** — scripted watchdog health marks,
//! * **cycle-boundary refreshes** — a short controller cycle so matrix
//!   refreshes land inside the run,
//!
//! the pipelined run produces exactly the per-window `DiagnosisReady`
//! results and the same totally ordered `RuntimeEvent` stream as driving
//! `step()` sequentially over the same script — the only tolerated
//! difference being the wall-clock `replan_micros` field of
//! `PlanUpdated`.

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

fn detector_with(ft: &Arc<Fattree>, sink: CollectingSink, cfg: SystemConfig) -> Detector {
    Detector::builder(ft.clone() as SharedTopology)
        .config(cfg)
        .sink(Box::new(sink))
        .build()
        .expect("boot")
}

fn detector(ft: &Arc<Fattree>, sink: CollectingSink) -> Detector {
    detector_with(ft, sink, config())
}

/// Decodes one raw `(kind, target)` pair into a scripted action. Small
/// target ranges make down/up and unhealthy/healthy collisions likely.
fn decode_action(ft: &Fattree, kind: u8, target: u16) -> ScriptAction {
    let probe_links = ft.probe_links() as u32;
    let switches = ft.graph().num_switches() as u32;
    match kind % 6 {
        0 => ScriptAction::Topology(TopologyEvent::LinkDown {
            link: LinkId(u32::from(target) % probe_links),
        }),
        1 => ScriptAction::Topology(TopologyEvent::LinkUp {
            link: LinkId(u32::from(target) % probe_links),
        }),
        2 => ScriptAction::Topology(TopologyEvent::SwitchDrain {
            switch: NodeId(u32::from(target) % switches),
        }),
        3 => ScriptAction::Topology(TopologyEvent::SwitchUndrain {
            switch: NodeId(u32::from(target) % switches),
        }),
        4 => ScriptAction::MarkUnhealthy(sample_server(ft, target)),
        _ => ScriptAction::MarkHealthy(sample_server(ft, target)),
    }
}

fn sample_server(ft: &Fattree, target: u16) -> NodeId {
    let t = u32::from(target);
    let k = ft.k();
    let half = ft.half();
    ft.server(t % k, (t / k) % half, (t / (k * half)) % half)
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

/// Runs the same scenario sequentially and pipelined, asserting equal
/// window results, equal (normalized) event streams, and equal final
/// detector state.
fn check_equivalence(
    ft: Arc<Fattree>,
    failures: &[(u16, u8, u8)],
    raw_script: &[(u8, u8, u16)],
    windows: u64,
    seed: u64,
    pipeline: &PipelineConfig,
) {
    let mut fabric = Fabric::new(ft.as_ref(), seed ^ 0xFAB);
    for &(link, kind, level) in failures {
        let (l, d) = decode_failure(&ft, link, kind, level);
        fabric.set_discipline_both(l, d);
    }
    let script = raw_script
        .iter()
        .fold(Script::new(), |s, &(window, kind, target)| {
            s.at(
                u64::from(window) % windows,
                decode_action(&ft, kind, target),
            )
        });

    let seq_sink = CollectingSink::new();
    let mut seq = detector(&ft, seq_sink.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let seq_results = seq
        .run_scripted(&fabric, windows, &script, &mut rng)
        .expect("sequential oracle");

    let pipe_sink = CollectingSink::new();
    let mut pipe = detector(&ft, pipe_sink.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let pipe_results = pipe
        .run_pipelined(&fabric, windows, &script, pipeline, &mut rng)
        .expect("pipelined run");

    assert_eq!(
        seq_results, pipe_results,
        "window results diverge (script {raw_script:?}, failures {failures:?})"
    );
    assert_eq!(
        normalize(seq_sink.events()),
        normalize(pipe_sink.events()),
        "event streams diverge (script {raw_script:?}, failures {failures:?})"
    );
    assert_eq!(seq.now_s(), pipe.now_s());
    assert_eq!(seq.epoch(), pipe.epoch());
    assert_eq!(seq.matrix().paths, pipe.matrix().paths);
    assert_eq!(seq.matrix().uncoverable, pipe.matrix().uncoverable);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The core property: any loss pattern + churn/health script +
    /// cycle refreshes ⇒ pipelined ≡ sequential, events and results.
    /// Churn and the short cycle exercise the localizer's
    /// rebuild-after-invalidate path, stable stretches its skeleton and
    /// verdict reuse (`tests/diagnoser_oracle.rs` holds the diagnoser
    /// itself against plain `localize`).
    #[test]
    fn pipelined_equals_sequential(
        failures in proptest::collection::vec((0u16..64, 0u8..3, 0u8..8), 0..3),
        raw_script in proptest::collection::vec((0u8..6, 0u8..6, 0u16..64), 0..6),
        seed in 0u64..1_000,
        workers in 1usize..5,
        depth in 1usize..4,
    ) {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let pipeline = PipelineConfig { probe_workers: workers, depth };
        // 5 windows at cycle_s = 60 ⇒ refreshes inside the run at
        // windows 2 and 4.
        check_equivalence(ft, &failures, &raw_script, 5, seed, &pipeline);
    }
}

#[test]
fn cell_overflow_rebase_redispatches_only_the_touched_cell() {
    // The re-base regression: a detector born with a link offline under
    // a zero-headroom id policy must re-base the touched cell when the
    // link comes back (the pristine solution outgrows the restricted
    // range). Only that cell's pinglists re-dispatch, its ids stay dense
    // within the fresh range, and every other cell is bit-identical.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let dead = ft.ac_link(0, 0, 0);
    let cfg = SystemConfig {
        id_headroom: IdHeadroom::NONE,
        ..SystemConfig::default()
    };
    let mut run = Detector::builder(ft.clone() as SharedTopology)
        .config(cfg)
        .offline_links([dead])
        .build()
        .expect("degraded boot");

    let (ranges, touched) = {
        let plan = run.probe_plan().expect("plan built at boot");
        (plan.cell_ranges(), plan.cells_touching(&[dead]))
    };
    assert_eq!(touched.len(), 1, "an ac link lives in exactly one cell");
    let before_paths = run.matrix().paths.clone();
    let before_lists: Vec<Pinglist> = run.pinglists().to_vec();
    let id_ceiling = ranges.iter().map(|r| r.end()).max().unwrap();

    let update = run.apply(&TopologyEvent::LinkUp { link: dead }).unwrap();
    assert_eq!(
        update.stats.cells_rebased, 1,
        "restore must overflow the zero-headroom range: {update:?}"
    );

    let after_ranges = run.probe_plan().unwrap().cell_ranges();
    let fresh = after_ranges[touched[0]];
    assert!(
        fresh.base >= id_ceiling,
        "fresh range must sit past every retired id"
    );
    // Untouched cells: ranges and paths bit-identical.
    let after = run.matrix().clone();
    for (i, r) in ranges.iter().enumerate() {
        if i == touched[0] {
            continue;
        }
        assert_eq!(after_ranges[i], *r, "untouched cell {i} range moved");
        for p in before_paths.iter().filter(|p| r.contains(p.id)) {
            assert_eq!(after.path(p.id), Some(p), "untouched path {} changed", p.id);
        }
    }
    // Re-based cell: ids dense within the fresh range, retired ids dead.
    let rebased: Vec<_> = after
        .paths
        .iter()
        .filter(|p| fresh.contains(p.id))
        .collect();
    assert!(!rebased.is_empty());
    for (i, p) in rebased.iter().enumerate() {
        assert_eq!(p.id, fresh.id(i), "re-based ids must be dense in range");
    }
    for p in before_paths
        .iter()
        .filter(|p| ranges[touched[0]].contains(p.id))
    {
        assert!(
            after.path(p.id).is_none(),
            "retired id {} still resolves",
            p.id
        );
    }
    // Only the touched cell's pinglists re-dispatched.
    let mut redispatched = 0usize;
    for list in run.pinglists() {
        match before_lists.iter().find(|l| l.pinger == list.pinger) {
            Some(old) if old.same_assignment(list) => {
                assert_eq!(old.version, list.version);
            }
            other => {
                redispatched += 1;
                let touched_ref = other
                    .iter()
                    .flat_map(|l| &l.entries)
                    .chain(&list.entries)
                    .filter_map(|e| e.path)
                    .any(|pid| ranges[touched[0]].contains(pid) || fresh.contains(pid));
                assert!(
                    touched_ref,
                    "list of {} re-dispatched without touched-cell paths",
                    list.pinger
                );
            }
        }
    }
    assert_eq!(update.lists_redispatched, redispatched);
    assert!(redispatched > 0, "a re-base must re-dispatch the moved ids");
    // (At k = 4 both cells' paths blanket every pinger, so a strict
    // subset is impossible here; `fattree16_single_cell_delta_...` in
    // tests/live_topology.rs asserts untouched lists survive at scale.)

    // And run_pipelined ≡ run_scripted still holds across the re-base:
    // same degraded boot, the LinkUp scripted mid-run, loss on the wire.
    let script = Script::new()
        .topology(1, TopologyEvent::LinkUp { link: dead })
        .topology(3, TopologyEvent::LinkDown { link: dead });
    let mut fabric = Fabric::new(ft.as_ref(), 0xCE11);
    fabric.set_discipline_both(
        ft.ea_link(2, 1, 0),
        LossDiscipline::RandomPartial { rate: 0.4 },
    );
    let boot = |sink: CollectingSink| {
        Detector::builder(ft.clone() as SharedTopology)
            .config(SystemConfig {
                id_headroom: IdHeadroom::NONE,
                cycle_s: 60,
                ..SystemConfig::default()
            })
            .offline_links([dead])
            .sink(Box::new(sink))
            .build()
            .expect("degraded boot")
    };

    let seq_sink = CollectingSink::new();
    let mut seq = boot(seq_sink.clone());
    let mut rng = SmallRng::seed_from_u64(0xAB);
    let a = seq.run_scripted(&fabric, 5, &script, &mut rng).unwrap();

    let pipe_sink = CollectingSink::new();
    let mut pipe = boot(pipe_sink.clone());
    let mut rng = SmallRng::seed_from_u64(0xAB);
    let b = pipe
        .run_pipelined(&fabric, 5, &script, &PipelineConfig::default(), &mut rng)
        .unwrap();

    assert_eq!(a, b, "window results diverge across the re-base");
    assert_eq!(normalize(seq_sink.events()), normalize(pipe_sink.events()));
    assert_eq!(seq.matrix().paths, pipe.matrix().paths);
    // The re-base really happened inside the runs: the scripted LinkUp's
    // PlanUpdated re-dispatched a strict, non-zero subset of the lists.
    let redispatch_counts: Vec<usize> = seq_sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            RuntimeEvent::PlanUpdated {
                lists_redispatched, ..
            } => Some(lists_redispatched),
            _ => None,
        })
        .collect();
    assert_eq!(redispatch_counts.len(), 2);
    assert!(redispatch_counts[0] > 0);
}

#[test]
fn cycle_boundary_refreshes_survive_the_pipeline() {
    // A targeted regression for the refresh path: no churn, no loss —
    // just the controller cycle. Both runs must emit identical
    // CycleRefreshed events (same windows, same versions).
    let ft = Arc::new(Fattree::new(4).unwrap());
    let fabric = Fabric::quiet(ft.as_ref());

    let seq_sink = CollectingSink::new();
    let mut seq = detector(&ft, seq_sink.clone());
    let mut rng = SmallRng::seed_from_u64(7);
    seq.run_scripted(&fabric, 6, &Script::new(), &mut rng)
        .unwrap();

    let pipe_sink = CollectingSink::new();
    let mut pipe = detector(&ft, pipe_sink.clone());
    let mut rng = SmallRng::seed_from_u64(7);
    pipe.run_pipelined(
        &fabric,
        6,
        &Script::new(),
        &PipelineConfig::default(),
        &mut rng,
    )
    .unwrap();

    let refreshes = |events: Vec<RuntimeEvent>| -> Vec<(u64, u64)> {
        events
            .into_iter()
            .filter_map(|e| match e {
                RuntimeEvent::CycleRefreshed {
                    window, version, ..
                } => Some((window, version)),
                _ => None,
            })
            .collect()
    };
    let seq_refreshes = refreshes(seq_sink.events());
    assert_eq!(
        seq_refreshes.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
        vec![2, 4],
        "cycle_s = 60 must refresh exactly at windows 2 and 4"
    );
    assert_eq!(seq_refreshes, refreshes(pipe_sink.events()));
}

#[test]
fn unhealthy_pinger_is_skipped_identically() {
    // Kill one pinger mid-run and revive it: both runtimes must emit the
    // same PingerUnhealthy events and exclude the same reports.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let fabric = Fabric::new(ft.as_ref(), 21);
    let victim = ft.server(0, 0, 0);
    let script = Script::new()
        .mark_unhealthy(1, victim)
        .mark_healthy(3, victim);

    let seq_sink = CollectingSink::new();
    let mut seq = detector(&ft, seq_sink.clone());
    let mut rng = SmallRng::seed_from_u64(13);
    let a = seq.run_scripted(&fabric, 4, &script, &mut rng).unwrap();

    let pipe_sink = CollectingSink::new();
    let mut pipe = detector(&ft, pipe_sink.clone());
    let mut rng = SmallRng::seed_from_u64(13);
    let b = pipe
        .run_pipelined(&fabric, 4, &script, &PipelineConfig::default(), &mut rng)
        .unwrap();

    assert_eq!(a, b);
    let unhealthy = |events: Vec<RuntimeEvent>| -> Vec<(u64, NodeId)> {
        events
            .into_iter()
            .filter_map(|e| match e {
                RuntimeEvent::PingerUnhealthy { window, pinger } => Some((window, pinger)),
                _ => None,
            })
            .collect()
    };
    let seq_unhealthy = unhealthy(seq_sink.events());
    assert_eq!(seq_unhealthy, unhealthy(pipe_sink.events()));
    // Window 1: the victim is still on the roster and is skipped with an
    // event. Window 2 sits on a cycle boundary (cycle_s = 60), so the
    // refreshed deployment drops the unhealthy server from pinger duty
    // entirely — no event, it simply is not dispatched.
    assert_eq!(seq_unhealthy, vec![(1, victim)]);
}

/// Extracts each window's `DiagStats` as `(window, lossy_paths,
/// components, suspects)`.
fn diag_stats(events: Vec<RuntimeEvent>) -> Vec<(u64, u64, u64, u64)> {
    events
        .into_iter()
        .filter_map(|e| match e {
            RuntimeEvent::DiagStats {
                window,
                lossy_paths,
                components,
                suspects,
            } => Some((window, lossy_paths, components, suspects)),
            _ => None,
        })
        .collect()
}

#[test]
fn component_merge_and_split_stays_equivalent() {
    // Two same-pod edge–agg failures sit in disjoint lossy components
    // (no observed path crosses both). Draining agg(0,0) at window 1
    // removes ea(0,0,0) from the plan — its island vanishes and the
    // window collapses to one component — and the undrain at window 3
    // brings the bridge links back up, splitting the structure into two
    // components again. Both transitions land mid-run on plan-epoch
    // changes, so the cached per-component skeleton must rebuild (a
    // stale partition would solve the wrong islands and diverge from
    // the oracle).
    let ft = Arc::new(Fattree::new(4).unwrap());
    let failures: Vec<LinkId> = vec![ft.ea_link(0, 0, 0), ft.ea_link(0, 1, 1)];
    let script = Script::new()
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
    let mut fabric = Fabric::new(ft.as_ref(), 0xFAB);
    for l in &failures {
        fabric.set_discipline_both(*l, LossDiscipline::Full);
    }

    let seq_sink = CollectingSink::new();
    let mut seq = detector(&ft, seq_sink.clone());
    let mut rng = SmallRng::seed_from_u64(7);
    let seq_results = seq.run_scripted(&fabric, 5, &script, &mut rng).unwrap();
    // The component structure really merged and split mid-run.
    assert_eq!(
        diag_stats(seq_sink.events())
            .iter()
            .map(|&(_, _, c, _)| c)
            .collect::<Vec<_>>(),
        vec![2, 1, 1, 2, 2],
        "the drain/undrain must merge then split the lossy components"
    );

    // And the pipelined driver diagnoses the same windows across the
    // same transitions.
    let pipe_sink = CollectingSink::new();
    let mut pipe = detector(&ft, pipe_sink.clone());
    let mut rng = SmallRng::seed_from_u64(7);
    let pipe_results = pipe
        .run_pipelined(&fabric, 5, &script, &PipelineConfig::default(), &mut rng)
        .unwrap();
    assert_eq!(seq_results, pipe_results);
    assert_eq!(normalize(seq_sink.events()), normalize(pipe_sink.events()));
}

#[test]
fn udp_pipelined_equals_sequential() {
    // The equivalence invariant survives real sockets: the same scenario
    // driven over the UDP loopback data plane — actual datagrams, real
    // responder threads, kernel timestamps — produces identical window
    // results and event streams sequentially and pipelined. This works
    // because the only nondeterminism a real wire adds is RTT variance
    // (invisible to results/events) and genuine loss (suppressed by the
    // retry schedule); the injected-loss shim is a pure function of
    // (seed, window, path_id), so both drivers drop exactly the same
    // probes.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let cfg = SystemConfig {
        cycle_s: 60,
        probe_rate_pps: 0.2, // 6 probes per pinger-window keeps CI fast.
        ..SystemConfig::default()
    };
    let clock = Arc::new(HostClock::new());
    let harness = UdpHarness::spawn(4, cfg.dport, clock).expect("harness");
    let plane = harness
        .dataplane(&UdpConfig::default(), Some(LossShim::new(0xD07, 150)))
        .expect("udp plane");
    let script = Script::new()
        .topology(1, TopologyEvent::LinkDown { link: LinkId(3) })
        .topology(3, TopologyEvent::LinkUp { link: LinkId(3) });

    let seq_sink = CollectingSink::new();
    let mut seq = detector_with(&ft, seq_sink.clone(), cfg.clone());
    let mut rng = SmallRng::seed_from_u64(0x11D);
    let a = seq.run_scripted(&plane, 5, &script, &mut rng).unwrap();

    let pipe_sink = CollectingSink::new();
    let mut pipe = detector_with(&ft, pipe_sink.clone(), cfg);
    let mut rng = SmallRng::seed_from_u64(0x11D);
    let b = pipe
        .run_pipelined(
            &plane,
            5,
            &script,
            &PipelineConfig {
                probe_workers: 4,
                depth: 3,
            },
            &mut rng,
        )
        .unwrap();

    assert_eq!(a, b, "UDP window results diverge between drivers");
    assert_eq!(
        normalize(seq_sink.events()),
        normalize(pipe_sink.events()),
        "UDP event streams diverge between drivers"
    );
    assert_eq!(seq.now_s(), pipe.now_s());
    assert_eq!(seq.matrix().paths, pipe.matrix().paths);

    // The run really exercised the wire and the shim.
    let stats = plane.stats();
    assert!(stats.delivered > 0, "no probe crossed the loopback");
    assert!(stats.shim_dropped > 0, "the loss shim never fired");
    assert!(
        stats.kernel_stamped + stats.mono_stamped == stats.delivered,
        "every delivery must be stamped exactly once"
    );
    assert!(harness.stats().echoed > 0);
}

#[test]
fn all_healthy_windows_short_circuit_identically() {
    // Zero lossy paths: every window of a quiet fabric must
    // short-circuit to an empty component set — DiagStats reports zero
    // components — while still emitting DiagnosisReady with empty
    // suspects in the exact oracle position.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let fabric = Fabric::quiet(ft.as_ref());

    let seq_sink = CollectingSink::new();
    let mut seq = detector(&ft, seq_sink.clone());
    let mut rng = SmallRng::seed_from_u64(3);
    let seq_results = seq
        .run_scripted(&fabric, 4, &Script::new(), &mut rng)
        .unwrap();

    let pipe_sink = CollectingSink::new();
    let mut pipe = detector(&ft, pipe_sink.clone());
    let mut rng = SmallRng::seed_from_u64(3);
    let pipe_results = pipe
        .run_pipelined(
            &fabric,
            4,
            &Script::new(),
            &PipelineConfig::default(),
            &mut rng,
        )
        .unwrap();
    assert_eq!(seq_results, pipe_results);
    assert_eq!(normalize(seq_sink.events()), normalize(pipe_sink.events()));
    assert_eq!(
        diag_stats(pipe_sink.events()),
        vec![(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)],
        "all-healthy windows must report zero lossy paths and components"
    );
    // Each window still reaches an (empty) diagnosis, directly
    // after its stats events.
    let events = pipe_sink.events();
    for w in 0..4u64 {
        let stats_at = events
            .iter()
            .position(|e| matches!(e, RuntimeEvent::DiagStats { window, .. } if *window == w))
            .expect("DiagStats present");
        match events.get(stats_at + 1) {
            Some(RuntimeEvent::DiagnosisReady(res)) => {
                assert_eq!(res.window, w);
                assert!(res.diagnosis.is_clean(), "quiet window must diagnose clean");
            }
            other => panic!("DiagStats must immediately precede DiagnosisReady, got {other:?}"),
        }
    }
}
