//! A storm onset re-solves only the components it changed: a Fattree(8)
//! loses one uplink of every edge switch, then each variant moves one of
//! those uplinks. Every window runs `PingerBatch::run_window` → the
//! `Diagnoser`, and its verdict is held to the `localize` oracle's. Each
//! window's `components_solved` is held to a count this test makes
//! itself: the components of the window's lossy paths, partitioned by
//! breadth-first search, that are not — ids and counters alike — a
//! component of the window before.

use std::collections::HashSet;
use std::sync::Arc;

use detector::core::pll::preprocess;
use detector::prelude::*;
use detector::system::{Controller, Diagnoser, PingerBatch, Watchdog};

/// Storm variants after the first, each moving one uplink.
const VARIANTS: u32 = 7;

/// The dead links of `variant`: uplink `(pod + edge) % half` of every
/// edge switch, except that variant `v > 0` moves edge switch `v - 1`'s
/// to the next aggregation switch.
fn storm(ft: &Fattree, variant: u32) -> Vec<LinkId> {
    let half = ft.half();
    let mut dead = Vec::new();
    for pod in 0..ft.k() {
        for edge in 0..half {
            let moved = u32::from(pod * half + edge + 1 == variant);
            dead.push(ft.ea_link(pod, edge, (pod + edge + moved) % half));
        }
    }
    dead
}

/// The lossy observations of `obs` that name a link of `matrix`, after
/// the noise filter, grouped into the components their shared links
/// induce.
fn partition(
    matrix: &ProbeMatrix,
    obs: &[PathObservation],
    cfg: &PllConfig,
) -> Vec<Vec<PathObservation>> {
    let links = |o: &PathObservation| matrix.path(o.path).map_or(&[][..], |p| p.links());
    let lossy: Vec<PathObservation> = (preprocess(obs, cfg, &HashSet::new()).into_iter())
        .filter(|o| o.is_lossy() && !links(o).is_empty())
        .collect();
    let mut seen = vec![false; lossy.len()];
    let mut comps = Vec::new();
    for start in 0..lossy.len() {
        if std::mem::replace(&mut seen[start], true) {
            continue;
        }
        let (mut members, mut frontier) = (vec![start], vec![start]);
        while let Some(i) = frontier.pop() {
            for k in 0..lossy.len() {
                if !seen[k]
                    && links(&lossy[k])
                        .iter()
                        .any(|l| links(&lossy[i]).contains(l))
                {
                    seen[k] = true;
                    members.push(k);
                    frontier.push(k);
                }
            }
        }
        members.sort_unstable();
        comps.push(members.iter().map(|&i| lossy[i]).collect());
    }
    comps
}

#[test]
fn a_storm_onset_re_solves_only_the_components_it_changed() {
    let ft = Arc::new(Fattree::new(8).unwrap());
    let cfg = SystemConfig::default();
    let dep = Controller::new(ft.clone(), cfg.clone())
        .build_deployment(&HashSet::new())
        .expect("deployment builds");
    let batches: Vec<PingerBatch> = (dep.pinglists.iter())
        .map(|l| PingerBatch::bind(l.clone(), ft.graph()))
        .collect();
    let matrix = dep.matrix.clone();
    let mut diagnoser = Diagnoser::new(dep.matrix, cfg.pll);
    let watchdog = Watchdog::new();

    let (mut before, mut window) = (Vec::new(), 0);
    let (mut solved, mut components) = (Vec::new(), Vec::new());
    for variant in 0..=VARIANTS {
        let mut fabric = Fabric::quiet(ft.as_ref());
        for link in storm(&ft, variant) {
            fabric.set_discipline_both(link, LossDiscipline::Full);
        }
        // The onset, then the same failures a second window.
        for _ in 0..2 {
            for b in &batches {
                diagnoser.ingest(b.run_window(&fabric, &cfg, window, 7 + u64::from(variant)));
            }
            let event = diagnoser.diagnose(window, &watchdog);
            let obs = diagnoser.observations(window, &watchdog);
            assert_eq!(
                event.diagnosis,
                localize(&matrix, &obs, &cfg.pll),
                "window {window}"
            );
            let now = partition(&matrix, &obs, &cfg.pll);
            let changed = now.iter().filter(|c| !before.contains(*c)).count() as u64;
            assert_eq!(event.components_solved, changed, "window {window}");
            assert_eq!(event.components, now.len() as u64, "window {window}");
            solved.push(event.components_solved);
            components.push(event.components);
            before = now;
            window += 1;
        }
    }
    // The first window partitions all 12 components (the dead uplinks of
    // a pod share paths, so they fuse); each later onset re-solves the 1
    // to 5 that moving a link touched, of about a dozen, and each repeat
    // none.
    assert_eq!(solved, [12, 0, 1, 0, 3, 0, 3, 0, 4, 0, 5, 0, 4, 0, 3, 0]);
    assert_eq!(
        components,
        [12, 12, 11, 11, 12, 12, 12, 12, 12, 12, 12, 12, 13, 13, 12, 12]
    );
}
