//! Integration tests for the live-topology API: epoch by epoch under
//! arbitrary event sequences, the incrementally repaired plan achieves
//! what a from-scratch plan over the same offline set achieves and is
//! that plan, row for row, whenever nothing is offline; pinger re-binding
//! sanity (`lost <= sent`), the `Detector::apply` end-to-end path, and
//! `PlanUpdated` JSON round-trips.

use std::collections::HashSet;
use std::sync::Arc;

use detector::prelude::*;
use detector::simnet::ChurnSchedule;
use detector::system::{Controller, Pinger, TopologyEvent};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Row-for-row content equality (ids aside) — what a patched plan owes a
/// from-scratch one whenever no link is offline.
fn assert_matrices_equal(a: &ProbeMatrix, b: &ProbeMatrix, ctx: &str) {
    assert_eq!(a.num_links, b.num_links, "{ctx}: universe size");
    assert_eq!(a.achieved, b.achieved, "{ctx}: achieved targets");
    assert_eq!(a.uncoverable, b.uncoverable, "{ctx}: uncoverable links");
    assert_eq!(a.paths.len(), b.paths.len(), "{ctx}: path count");
    for (i, (pa, pb)) in a.paths.iter().zip(&b.paths).enumerate() {
        assert_eq!(pa.links(), pb.links(), "{ctx}: path {i} links");
        assert_eq!(pa.nodes(), pb.nodes(), "{ctx}: path {i} nodes");
    }
}

/// `matrix` over the online links only, renumbered densely, so
/// `pmc::verify` judges what the plan can still monitor instead of
/// reporting 0 for every plan with an offline (uncoverable) link.
fn online_submatrix(matrix: &ProbeMatrix, offline: &HashSet<LinkId>) -> ProbeMatrix {
    let mut dense = vec![u32::MAX; matrix.num_links];
    let mut online = 0u32;
    for (l, slot) in dense.iter_mut().enumerate() {
        if !offline.contains(&LinkId(l as u32)) {
            *slot = online;
            online += 1;
        }
    }
    let paths = matrix
        .paths
        .iter()
        .map(|p| {
            let links = p.links().iter().map(|l| LinkId(dense[l.index()])).collect();
            ProbePath::from_links(0, links)
        })
        .collect();
    ProbeMatrix::from_paths(online as usize, paths)
}

/// What a repaired plan guarantees against a from-scratch plan over the
/// same offline set. It is not the same rows — the repair keeps the paths
/// that survived, so the plan depends on the order links failed in — but
/// it achieves the same: the same certified targets (coverage compared up
/// to α: what either plan covers beyond it is incidental), the same
/// uncoverable links, the same independently verified coverage and
/// identifiability over the online links, and no probe on an offline link.
/// With nothing offline it *is* the from-scratch plan, row for row.
fn assert_patched_matches_scratch(
    patched: &ProbeMatrix,
    scratch: &ProbeMatrix,
    offline: &HashSet<LinkId>,
    pmc: &PmcConfig,
    ctx: &str,
) {
    if offline.is_empty() {
        return assert_matrices_equal(patched, scratch, ctx);
    }
    assert_eq!(patched.num_links, scratch.num_links, "{ctx}: universe size");
    let certified = |m: &ProbeMatrix| {
        let a = m.achieved;
        (a.targets_met, a.identifiability, a.coverage.min(pmc.alpha))
    };
    assert_eq!(certified(patched), certified(scratch), "{ctx}: achieved");
    assert_eq!(
        patched.uncoverable, scratch.uncoverable,
        "{ctx}: uncoverable"
    );
    let verified = |m: &ProbeMatrix| {
        let v = verify(&online_submatrix(m, offline), pmc.beta);
        (v.coverage.min(pmc.alpha), v.identifiability)
    };
    assert_eq!(verified(patched), verified(scratch), "{ctx}: verified");
    for l in offline {
        assert!(
            !patched.paths.iter().any(|p| p.covers(*l)),
            "{ctx}: offline link {l} still probed"
        );
    }
}

/// Decodes a raw `(kind, target)` pair into an event against `ft`.
/// Small target ranges make up/down collisions (and thus restores) likely.
fn decode_event(ft: &Fattree, kind: u8, target: u16) -> TopologyEvent {
    let probe_links = ft.probe_links() as u32;
    let switches = ft.graph().num_switches() as u32;
    let pods = ft.k();
    match kind % 6 {
        0 => TopologyEvent::LinkDown {
            link: LinkId(target as u32 % probe_links),
        },
        1 => TopologyEvent::LinkUp {
            link: LinkId(target as u32 % probe_links),
        },
        2 => TopologyEvent::SwitchDrain {
            switch: NodeId(target as u32 % switches),
        },
        3 => TopologyEvent::SwitchUndrain {
            switch: NodeId(target as u32 % switches),
        },
        4 => TopologyEvent::PodDrained {
            pod: target as u32 % pods,
        },
        _ => TopologyEvent::PodAdded {
            pod: target as u32 % pods,
        },
    }
}

/// Localizes a synthetic noiseless window over `matrix`: every path
/// crossing a link of `bad` loses everything, every other path is
/// clean. Run against the incremental and the from-scratch matrix, the
/// suspect sets must agree — ids differ between the two, so this drives
/// the id-index layer end to end.
fn synthetic_suspects(matrix: &ProbeMatrix, bad: &[LinkId]) -> Vec<LinkId> {
    let obs: Vec<PathObservation> = matrix
        .paths
        .iter()
        .map(|p| {
            let lossy = bad.iter().any(|&l| p.covers(l));
            PathObservation::new(p.id, 100, if lossy { 100 } else { 0 })
        })
        .collect();
    localize(matrix, &obs, &PllConfig::default()).suspect_links()
}

/// Applies `raw` events one by one, asserting after every epoch that the
/// incrementally patched matrix matches a from-scratch recompute on the
/// mutated topology ([`assert_patched_matches_scratch`]) and gives the
/// same diagnosis over a synthetic failure episode (incremental ==
/// from-scratch *diagnosis*, though the two matrices' rows and segmented
/// ids differ).
fn check_equivalence(ft: Arc<Fattree>, raw: &[(u8, u16)], exhaustive_limit: u128) {
    let cfg = SystemConfig::default();
    let mut ctl = Controller::new(ft.clone() as SharedTopology, cfg.clone())
        .with_exhaustive_limit(exhaustive_limit);
    ctl.build_deployment(&HashSet::new()).unwrap();
    for (i, &(kind, target)) in raw.iter().enumerate() {
        let ev = decode_event(&ft, kind, target);
        let update = ctl.apply_event(&ev).unwrap();
        assert_eq!(update.epoch, (i + 1) as u64, "epoch must track events");
        let patched = ctl.compute_matrix().unwrap();
        let scratch = ctl.compute_matrix_from_scratch().unwrap();
        assert_patched_matches_scratch(
            &patched,
            &scratch,
            ctl.view().offline_links(),
            &cfg.pmc,
            &format!("epoch {} ({ev:?})", update.epoch),
        );
        // Epoch-by-epoch diagnosis equivalence: fail the two smallest
        // still-online links and diagnose both matrices.
        let bad: Vec<LinkId> = (0..ft.probe_links() as u32)
            .map(LinkId)
            .filter(|l| !ctl.view().offline_links().contains(l))
            .take(2)
            .collect();
        assert_eq!(
            synthetic_suspects(&patched, &bad),
            synthetic_suspects(&scratch, &bad),
            "epoch {}: incremental and from-scratch diagnosis diverge",
            update.epoch
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Materialized planner (Fattree(4)): any event sequence keeps the
    /// incremental plan a match for a from-scratch recompute, epoch by
    /// epoch.
    #[test]
    fn incremental_equals_scratch_materialized(
        raw in proptest::collection::vec((0u8..6, 0u16..64), 1..7)
    ) {
        let ft = Arc::new(Fattree::new(4).unwrap());
        check_equivalence(ft, &raw, 300_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Symmetric planner (Fattree(6), materialization forced off): the
    /// per-replica repair achieves what from-scratch planning does.
    #[test]
    fn incremental_equals_scratch_symmetric(
        raw in proptest::collection::vec((0u8..6, 0u16..64), 1..5)
    ) {
        let ft = Arc::new(Fattree::new(6).unwrap());
        check_equivalence(ft, &raw, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dispatch stability: for every single-link `TopologyEvent` delta,
    /// the pinglist versions and `PathId`s of untouched cells are
    /// bit-identical before and after `Detector::apply`, every
    /// re-dispatched list actually carries a touched cell's paths, and
    /// `PlanUpdate::lists_redispatched` accounts for exactly the lists
    /// that re-dispatched.
    #[test]
    fn single_cell_deltas_leave_untouched_cells_bit_identical(
        raw in proptest::collection::vec((0u8..2, 0u16..64), 1..6)
    ) {
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut run =
            Detector::new(ft.clone() as SharedTopology, SystemConfig::default()).unwrap();
        for &(kind, target) in &raw {
            let link = LinkId(u32::from(target) % ft.probe_links() as u32);
            let ev = if kind == 0 {
                TopologyEvent::LinkDown { link }
            } else {
                TopologyEvent::LinkUp { link }
            };

            let (ranges, touched) = {
                let plan = run.probe_plan().expect("plan built at boot");
                (plan.cell_ranges(), plan.cells_touching(&[link]))
            };
            let untouched: Vec<PathIdRange> = ranges
                .iter()
                .enumerate()
                .filter(|(i, _)| !touched.contains(i))
                .map(|(_, r)| *r)
                .collect();
            let before_paths: Vec<ProbePath> = run.matrix().paths.clone();
            let before_lists: Vec<Pinglist> = run.pinglists().to_vec();

            let update = run.apply(&ev).unwrap();

            // Untouched cells keep their exact id ranges…
            let after_ranges = run.probe_plan().unwrap().cell_ranges();
            for (i, r) in ranges.iter().enumerate() {
                if !touched.contains(&i) {
                    assert_eq!(after_ranges[i], *r, "untouched cell {i} range moved");
                }
            }
            // …and their paths, bit for bit (same id, links and nodes).
            let after = run.matrix().clone();
            for p in before_paths
                .iter()
                .filter(|p| untouched.iter().any(|r| r.contains(p.id)))
            {
                assert_eq!(
                    after.path(p.id),
                    Some(p),
                    "untouched path {} changed across {ev:?}",
                    p.id
                );
            }

            // Version stability + re-dispatch accounting: a list keeps
            // its version iff its assignment is unchanged, and the
            // PlanUpdate counts exactly the fresh versions.
            let mut redispatched = 0usize;
            for list in run.pinglists() {
                match before_lists.iter().find(|l| l.pinger == list.pinger) {
                    Some(old) if old.same_assignment(list) => {
                        assert_eq!(
                            old.version, list.version,
                            "unchanged list of {} re-versioned",
                            list.pinger
                        );
                    }
                    _ => redispatched += 1,
                }
            }
            assert_eq!(
                update.lists_redispatched, redispatched,
                "lists_redispatched miscounts ({ev:?})"
            );

            // Minimal re-dispatch: every re-dispatched list carries at
            // least one touched-cell path (before or after) — lists made
            // purely of untouched-cell paths and in-rack probes never
            // re-dispatch. Touched ranges include the post-apply ones so
            // the check stays sound across a re-base.
            let in_touched = |pid: PathId| {
                touched
                    .iter()
                    .any(|&i| ranges[i].contains(pid) || after_ranges[i].contains(pid))
            };
            for list in run.pinglists() {
                let old = before_lists.iter().find(|l| l.pinger == list.pinger);
                if let Some(old) = old {
                    if old.same_assignment(list) {
                        continue;
                    }
                    let references_touched = old
                        .entries
                        .iter()
                        .chain(&list.entries)
                        .filter_map(|e| e.path)
                        .any(in_touched);
                    assert!(
                        references_touched,
                        "list of {} re-dispatched without touching cell(s) {touched:?} ({ev:?})",
                        list.pinger
                    );
                }
            }
        }
    }
}

#[test]
fn fattree16_single_cell_delta_redispatches_only_the_touched_cell() {
    // The acceptance drill: on Fattree(16) (symmetric planner, 8 group
    // cells) a single-link delta re-solves exactly one cell and
    // re-dispatches exactly the pinglists carrying that cell's paths —
    // every list without them keeps its version, entries and `PathId`s
    // bit-for-bit. (1, 1) keeps the matrix lean enough that such lists
    // exist; the `replan_latency` bench reports the same counter.
    let ft = Arc::new(Fattree::new(16).unwrap());
    let dead = ft.ea_link(3, 2, 1);
    let cfg = SystemConfig::default().with_pmc(PmcConfig::identifiable(1));
    let mut run = Detector::new(ft.clone() as SharedTopology, cfg).unwrap();

    let (ranges, touched) = {
        let plan = run.probe_plan().expect("plan built at boot");
        (plan.cell_ranges(), plan.cells_touching(&[dead]))
    };
    assert_eq!(ranges.len(), 8, "k=16 symmetric plan has h = 8 cells");
    assert_eq!(touched.len(), 1, "an ea link lives in exactly one cell");
    let before_lists: Vec<Pinglist> = run.pinglists().to_vec();
    let before_paths: Vec<ProbePath> = run.matrix().paths.clone();

    let update = run.apply(&TopologyEvent::LinkDown { link: dead }).unwrap();
    assert_eq!(update.stats.cells_resolved, 1);
    assert_eq!(update.stats.cells_rebased, 0, "headroom absorbs the delta");

    // Untouched cells' paths are bit-identical.
    let after = run.matrix().clone();
    for (i, r) in ranges.iter().enumerate() {
        if i == touched[0] {
            continue;
        }
        for p in before_paths.iter().filter(|p| r.contains(p.id)) {
            assert_eq!(after.path(p.id), Some(p), "untouched path {} changed", p.id);
        }
    }

    // Exactly the touched cell's pinglists re-dispatch.
    let touched_range = ranges[touched[0]];
    let mut redispatched = 0usize;
    let mut stable = 0usize;
    for list in run.pinglists() {
        match before_lists.iter().find(|l| l.pinger == list.pinger) {
            Some(old) if old.same_assignment(list) => {
                assert_eq!(old.version, list.version);
                stable += 1;
            }
            other => {
                redispatched += 1;
                let references_touched = other
                    .iter()
                    .flat_map(|l| &l.entries)
                    .chain(&list.entries)
                    .filter_map(|e| e.path)
                    .any(|pid| touched_range.contains(pid));
                assert!(
                    references_touched,
                    "list of {} re-dispatched without touched-cell paths",
                    list.pinger
                );
            }
        }
    }
    assert_eq!(update.lists_redispatched, redispatched);
    assert!(
        stable > 0,
        "some pinglists must survive a single-cell delta untouched"
    );
}

#[test]
fn equivalence_holds_for_vl2_and_bcube_sequences() {
    // The non-decomposing families ride the same delta path: one cell,
    // repaired when touched, restored when the exclusions empty out.
    let seq = [
        TopologyEvent::LinkDown { link: LinkId(0) },
        TopologyEvent::LinkDown { link: LinkId(5) },
        TopologyEvent::LinkUp { link: LinkId(0) },
        TopologyEvent::LinkUp { link: LinkId(5) },
    ];
    let topos: Vec<SharedTopology> = vec![
        Arc::new(Vl2::new(4, 4, 2).unwrap()),
        Arc::new(BCube::new(3, 1).unwrap()),
    ];
    for topo in topos {
        let name = topo.name();
        let cfg = SystemConfig::default();
        let mut ctl = Controller::new(topo, cfg.clone());
        ctl.build_deployment(&HashSet::new()).unwrap();
        let pristine = ctl.compute_matrix().unwrap();
        for ev in &seq {
            ctl.apply_event(ev).unwrap();
            let patched = ctl.compute_matrix().unwrap();
            let scratch = ctl.compute_matrix_from_scratch().unwrap();
            assert_patched_matches_scratch(
                &patched,
                &scratch,
                ctl.view().offline_links(),
                &cfg.pmc,
                &format!("{name} after {ev:?}"),
            );
        }
        // The full up/down cycle lands back on the pristine plan.
        assert_matrices_equal(
            &ctl.compute_matrix().unwrap(),
            &pristine,
            &format!("{name} round trip"),
        );
    }
}

#[test]
fn rebound_pingers_never_report_lost_above_sent() {
    // Run a full churn cycle at the controller level: after every event
    // the fresh deployment's pinglists are re-bound and driven for a
    // window against a fabric mirroring the same failures (plus one
    // partial-loss link for actual losses); every counter must satisfy
    // lost <= sent.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let mut ctl = Controller::new(ft.clone() as SharedTopology, SystemConfig::default());
    let cfg = SystemConfig::default();
    let mut rng = SmallRng::seed_from_u64(0xBEEF);

    let events = [
        TopologyEvent::LinkDown {
            link: ft.ea_link(0, 0, 0),
        },
        TopologyEvent::SwitchDrain {
            switch: ft.agg(1, 1),
        },
        TopologyEvent::LinkUp {
            link: ft.ea_link(0, 0, 0),
        },
        TopologyEvent::SwitchUndrain {
            switch: ft.agg(1, 1),
        },
    ];
    let mut fabric = Fabric::quiet(ft.as_ref());
    fabric.set_discipline_both(
        ft.ac_link(2, 0, 1),
        LossDiscipline::RandomPartial { rate: 0.3 },
    );

    for (w, ev) in events.iter().enumerate() {
        ChurnSchedule::apply_to_fabric(&mut fabric, ev);
        ctl.apply_event(ev).unwrap();
        let dep = ctl.build_deployment(&HashSet::new()).unwrap();
        assert!(!dep.pinglists.is_empty());
        for list in &dep.pinglists {
            let pinger = Pinger::bind(list.clone(), ft.graph());
            let report = pinger.run_window(&fabric, &cfg, w as u64, &mut rng);
            for (pid, c) in &report.paths {
                assert!(
                    c.lost <= c.sent,
                    "path {pid}: lost {} > sent {}",
                    c.lost,
                    c.sent
                );
            }
            let c = report.in_rack;
            assert!(
                c.lost <= c.sent,
                "in-rack: lost {} > sent {}",
                c.lost,
                c.sent
            );
            for f in &report.flows {
                assert!(f.lost <= f.sent, "{f:?}: lost > sent");
            }
        }
    }
}

#[test]
fn detector_apply_replans_and_emits_plan_updated() {
    let ft = Arc::new(Fattree::new(4).unwrap());
    let victim = ft.ea_link(1, 0, 1);
    let collector = CollectingSink::new();
    let mut run = Detector::builder(ft.clone() as SharedTopology)
        .sink(Box::new(collector.clone()))
        .build()
        .unwrap();
    let mut fabric = Fabric::quiet(ft.as_ref());
    let mut rng = SmallRng::seed_from_u64(0xABCD);
    let pristine_paths = run.matrix().num_paths();

    // Window 0: clean.
    assert!(run.step(&fabric, &mut rng).diagnosis.is_clean());

    // Drain: fabric drops, detector re-plans. No probe crosses the dead
    // link, so the drain raises no alarm.
    let down = TopologyEvent::LinkDown { link: victim };
    ChurnSchedule::apply_to_fabric(&mut fabric, &down);
    let update = run.apply(&down).unwrap();
    assert_eq!(update.epoch, 1);
    assert_eq!(update.links_changed, 1);
    assert_eq!(update.stats.cells_resolved, 1);
    assert!(run.matrix().uncoverable.contains(&victim));
    let w = run.step(&fabric, &mut rng);
    assert!(w.diagnosis.is_clean(), "{:?}", w.diagnosis.suspect_links());

    // Recover: pristine plan restored without solving.
    let up = TopologyEvent::LinkUp { link: victim };
    ChurnSchedule::apply_to_fabric(&mut fabric, &up);
    let update = run.apply(&up).unwrap();
    assert_eq!(update.epoch, 2);
    assert_eq!(update.stats.cells_restored, 1);
    assert_eq!(update.stats.cells_resolved, 0);
    assert_eq!(run.matrix().num_paths(), pristine_paths);
    assert!(run.step(&fabric, &mut rng).diagnosis.is_clean());

    // The stream carries both PlanUpdated records, with consistent
    // payloads and JSON round-trips.
    let plan_events: Vec<RuntimeEvent> = collector
        .events()
        .into_iter()
        .filter(|e| matches!(e, RuntimeEvent::PlanUpdated { .. }))
        .collect();
    assert_eq!(plan_events.len(), 2);
    let mut deltas = Vec::new();
    for (i, e) in plan_events.iter().enumerate() {
        let RuntimeEvent::PlanUpdated {
            epoch,
            links_changed,
            probes_delta,
            ..
        } = e
        else {
            unreachable!()
        };
        assert_eq!(*epoch, (i + 1) as u64);
        assert_eq!(*links_changed, 1);
        deltas.push(*probes_delta);
        let text = e.to_json().to_string();
        assert_eq!(Json::parse(&text), Ok(e.to_json()));
    }
    // The drain removed some paths; the recovery added them back.
    assert!(deltas[0] <= 0);
    assert_eq!(deltas[0] + deltas[1], 0);
}

#[test]
fn accuracy_during_a_drain_window() {
    // The ROADMAP churn-accuracy scenario: while a drained link is down,
    // (a) the drain itself must never be blamed (no false positive on a
    // link nothing probes), and (b) a *real* failure elsewhere must
    // still be localized mid-drain — the re-planned matrix keeps the
    // rest of the fabric β-identifiable.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let drained = ft.ea_link(0, 0, 0);
    let faulty = ft.ac_link(2, 1, 0);
    let mut run = Detector::new(ft.clone() as SharedTopology, SystemConfig::default()).unwrap();
    let mut fabric = Fabric::quiet(ft.as_ref());
    let mut rng = SmallRng::seed_from_u64(0xD12A);

    // Window 0: clean baseline.
    assert!(run.step(&fabric, &mut rng).diagnosis.is_clean());

    // Drain one link (fabric + plan in lockstep), then break another
    // for real. The drain window must localize the real failure only.
    let down = TopologyEvent::LinkDown { link: drained };
    ChurnSchedule::apply_to_fabric(&mut fabric, &down);
    run.apply(&down).unwrap();
    fabric.set_discipline_both(faulty, LossDiscipline::RandomPartial { rate: 0.5 });

    for w in 1..=3 {
        let result = run.step(&fabric, &mut rng);
        let suspects = result.diagnosis.suspect_links();
        assert!(
            suspects.contains(&faulty),
            "window {w}: real failure missed mid-drain, suspects {suspects:?}"
        );
        assert!(
            !suspects.contains(&drained),
            "window {w}: drained link blamed, suspects {suspects:?}"
        );
    }

    // Recovery: the repaired link is probed again and stays clean; the
    // real failure is still on the books.
    let up = TopologyEvent::LinkUp { link: drained };
    ChurnSchedule::apply_to_fabric(&mut fabric, &up);
    run.apply(&up).unwrap();
    let result = run.step(&fabric, &mut rng);
    let suspects = result.diagnosis.suspect_links();
    assert!(suspects.contains(&faulty), "suspects {suspects:?}");
    assert!(!suspects.contains(&drained), "suspects {suspects:?}");
}

#[test]
fn drain_window_accuracy_survives_the_pipeline() {
    // The same mid-drain accuracy contract through run_pipelined: churn
    // scripted into the run, a real partial failure on the fabric.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let drained = ft.ea_link(0, 0, 0);
    let faulty = ft.ac_link(2, 1, 0);
    let mut fabric = Fabric::quiet(ft.as_ref());
    // The drained link drops traffic for the whole run (as a drained
    // cable would); the plan routes around it from window 1 on.
    fabric.set_discipline_both(drained, LossDiscipline::Full);
    fabric.set_discipline_both(faulty, LossDiscipline::RandomPartial { rate: 0.5 });

    let script = Script::new().topology(1, TopologyEvent::LinkDown { link: drained });
    let mut run = Detector::new(ft.clone() as SharedTopology, SystemConfig::default()).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xD12B);
    let results = run
        .run_pipelined(
            &fabric,
            4,
            &script,
            &detector::system::PipelineConfig::default(),
            &mut rng,
        )
        .unwrap();

    // Windows 1.. run with the drain in force: the real failure
    // surfaces, the drained link never does.
    for w in &results[1..] {
        let suspects = w.diagnosis.suspect_links();
        assert!(
            suspects.contains(&faulty),
            "window {}: real failure missed mid-drain, suspects {suspects:?}",
            w.window
        );
        assert!(
            !suspects.contains(&drained),
            "window {}: drained link blamed, suspects {suspects:?}",
            w.window
        );
    }
}

#[test]
fn redundant_events_keep_pinglist_versions_stable() {
    // A delta that changes nothing must not re-dispatch pinglists — the
    // re-binding seam: versions stay, cached pinger bindings stay valid.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let victim = ft.ea_link(0, 1, 1);
    let mut run = Detector::new(ft.clone() as SharedTopology, SystemConfig::default()).unwrap();
    run.apply(&TopologyEvent::LinkDown { link: victim })
        .unwrap();
    let versions: Vec<u64> = run.pinglists().iter().map(|l| l.version).collect();

    // Downing the same link again: epoch bumps, nothing changes.
    let update = run
        .apply(&TopologyEvent::LinkDown { link: victim })
        .unwrap();
    assert_eq!(update.epoch, 2);
    assert_eq!(update.links_changed, 0);
    assert_eq!(update.probes_delta, 0);
    let after: Vec<u64> = run.pinglists().iter().map(|l| l.version).collect();
    assert_eq!(versions, after);
}

#[test]
fn pod_drain_and_expansion_reroute_the_plan() {
    // Drain a whole pod (maintenance / not-yet-installed expansion pod),
    // then add it: the plan must drop every path touching the pod and
    // rebuild to exactly the pristine matrix on expansion.
    let ft = Arc::new(Fattree::new(4).unwrap());
    let mut run = Detector::new(ft.clone() as SharedTopology, SystemConfig::default()).unwrap();
    let pristine_paths = run.matrix().num_paths();
    let pod_tors: Vec<NodeId> = (0..ft.half()).map(|e| ft.edge(3, e)).collect();

    let update = run.apply(&TopologyEvent::PodDrained { pod: 3 }).unwrap();
    assert!(update.links_changed > 0);
    for p in &run.matrix().paths {
        for tor in &pod_tors {
            assert!(!p.nodes().contains(tor), "path visits drained pod");
        }
    }
    assert!(run.matrix().num_paths() < pristine_paths);

    let update = run.apply(&TopologyEvent::PodAdded { pod: 3 }).unwrap();
    assert!(update.probes_delta > 0);
    assert_eq!(run.matrix().num_paths(), pristine_paths);
}
