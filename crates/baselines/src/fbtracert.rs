//! fbtracert-style localization (§6.3): TTL-limited probes along every
//! ECMP path of a suspect pair; the hop where losses begin is blamed.
//!
//! Split along the unified [`Localizer`] interface like Netbouncer:
//! [`fbtracert_sweep`] probes each route prefix by prefix (TTL 1, 2, …)
//! and records one observation per prefix, stopping a trace early once
//! the loss jump already implicates a hop (exactly the probe budget the
//! monolithic implementation used). [`FbtracertLocalizer`] replays the
//! hop-blame walk over the recorded prefix chains — a pure function of
//! (matrix, observations), so comparison harnesses can drive it through
//! the same trait object as PLL, Tomo or Netbouncer.

use std::borrow::Cow;
use std::collections::HashMap;

use detector_core::pll::{Diagnosis, Localizer, SuspectLink};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, NodeId, PathObservation, PathRef, ProbePath};
use detector_simnet::{Fabric, FlowKey};
use detector_topology::{DcnTopology, Route};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{BaselineConfig, ProbeBudget, SweepResult};
use crate::netbouncer::BaselineDiagnosis;

/// fbtracert's inference stage: blame, per recorded trace, the first
/// link whose prefix loss ratio jumps past the threshold.
///
/// Expects a *prefix-chain* matrix as produced by [`fbtracert_sweep`]:
/// consecutive paths that extend one another by one link form a trace.
/// (Running it over an arbitrary matrix — e.g. deTector's probe matrix —
/// degenerates to treating every path as a one-hop trace, which is
/// exactly the information an fbtracert deployment would have there:
/// none.)
#[derive(Clone, Copy, Debug)]
pub struct FbtracertLocalizer {
    /// Blame-threshold settings.
    pub cfg: BaselineConfig,
    /// Only links below this index are blamed (the probe-link universe;
    /// server access links are checked by in-rack probing in all
    /// systems). `usize::MAX` disables the filter.
    pub probe_links: usize,
}

impl Default for FbtracertLocalizer {
    fn default() -> Self {
        Self {
            cfg: BaselineConfig::default(),
            probe_links: usize::MAX,
        }
    }
}

impl FbtracertLocalizer {
    /// A localizer restricted to the probe-link universe of `topo`.
    pub fn for_topology(topo: &dyn DcnTopology, cfg: BaselineConfig) -> Self {
        Self {
            cfg,
            probe_links: topo.probe_links(),
        }
    }
}

/// True when `next` extends `prev` by exactly one hop (same trace).
///
/// Judged on the node sequence: a path's link set is normalized (sorted,
/// de-duplicated) but its nodes stay in hop order.
fn extends(next: PathRef<'_>, prev: PathRef<'_>) -> bool {
    let (n, p) = (next.nodes(), prev.nodes());
    n.len() == p.len() + 1 && n[..p.len()] == *p
}

/// The link `next` covers that `prev` does not: the newly traversed hop.
fn new_link(next: PathRef<'_>, prev: Option<PathRef<'_>>) -> Option<LinkId> {
    next.links()
        .iter()
        .copied()
        .find(|&l| !prev.is_some_and(|p| p.covers(l)))
}

impl Localizer for FbtracertLocalizer {
    fn name(&self) -> &str {
        "fbtracert"
    }

    fn localize(&self, matrix: &ProbeMatrix, observations: &[PathObservation]) -> Diagnosis {
        let obs_by_path: HashMap<_, _> = observations.iter().map(|o| (o.path, o)).collect();
        // votes, loss-jump sum and explained losses per blamed link.
        let mut votes: HashMap<LinkId, (u32, f64, u64)> = HashMap::new();
        let mut unexplained = Vec::new();
        let mut traces = 0u32;

        let paths = &matrix.paths;
        let mut i = 0;
        while i < paths.len() {
            // One trace: a maximal run of consecutive prefix paths.
            let start = i;
            i += 1;
            while i < paths.len() && extends(paths.get(i), paths.get(i - 1)) {
                i += 1;
            }
            let chain: Vec<PathRef<'_>> = (start..i).map(|k| paths.get(k)).collect();
            traces += 1;

            let mut prev_loss = 0.0f64;
            let mut blamed = false;
            for (ci, &p) in chain.iter().enumerate() {
                let Some(o) = obs_by_path.get(&p.id) else {
                    continue;
                };
                if o.sent == 0 {
                    continue;
                }
                // Same denominator as the sweep's stop rule (and the
                // original monolithic walk): a budget-truncated hop with
                // a tiny sample must not look lossier than the full
                // per-hop quota would have shown it.
                let denom = o.sent.max(self.cfg.trace_probes_per_hop as u64);
                let loss = o.lost as f64 / denom as f64;
                // Loss appears at this hop but not before: blame the
                // hop's link (the one this prefix adds over the previous
                // one).
                if loss - prev_loss >= self.cfg.hop_blame_threshold {
                    let prev = ci.checked_sub(1).map(|i| chain[i]);
                    if let Some(link) = new_link(p, prev) {
                        let e = votes.entry(link).or_insert((0, 0.0, 0));
                        e.0 += 1;
                        e.1 += loss - prev_loss;
                        e.2 += o.lost;
                    }
                    blamed = true;
                    break;
                }
                prev_loss = prev_loss.max(loss);
            }
            if !blamed {
                if let Some(last) = chain.last() {
                    if obs_by_path
                        .get(&last.id)
                        .is_some_and(|o| o.lost > 0 && o.sent > 0)
                    {
                        unexplained.push(last.id);
                    }
                }
            }
        }

        // A link is blamed when a meaningful share of traces implicate it.
        let min_votes = 1u32.max((traces as f64 * 0.05) as u32);
        let mut suspects: Vec<SuspectLink> = votes
            .into_iter()
            .filter(|&(l, (v, _, _))| v >= min_votes && l.index() < self.probe_links)
            .map(|(link, (v, jump_sum, losses))| SuspectLink {
                link,
                estimated_loss_rate: jump_sum / v as f64,
                hit_ratio: v as f64 / traces.max(1) as f64,
                explained_paths: v,
                explained_losses: losses,
            })
            .collect();
        suspects.sort_unstable_by_key(|s| s.link);
        Diagnosis {
            suspects,
            unexplained_paths: unexplained,
        }
    }
}

/// Traces every ECMP path of every suspect pair hop by hop: TTL-limited
/// probes per prefix, with a TTL-expired reply returning over the
/// reversed prefix (like real traceroute responses). A trace stops
/// extending once the loss jump already implicates a hop, so the probe
/// budget matches the monolithic walk.
pub fn fbtracert_sweep(
    topo: &dyn DcnTopology,
    fabric: &Fabric<'_>,
    suspects: &[(NodeId, NodeId)],
    cfg: &BaselineConfig,
    budget_round_trips: u64,
    rng: &mut SmallRng,
) -> SweepResult {
    let mut budget = ProbeBudget::default();
    let mut paths: Vec<ProbePath> = Vec::new();
    let mut observations: Vec<PathObservation> = Vec::new();

    'pairs: for &(src, dst) in suspects {
        for route in topo.all_ecmp_routes(src, dst) {
            if budget.round_trips >= budget_round_trips {
                break 'pairs;
            }
            let mut prev_loss = 0.0f64;
            for h in 1..=route.links.len() {
                let prefix = Route {
                    nodes: Cow::Borrowed(&route.nodes[..=h]),
                    links: Cow::Borrowed(&route.links[..h]),
                };
                let mut sent = 0u64;
                let mut lost = 0u64;
                for p in 0..cfg.trace_probes_per_hop {
                    if budget.round_trips >= budget_round_trips {
                        break;
                    }
                    let sport = 40_000u16
                        .wrapping_add(p as u16)
                        .wrapping_add(rng.gen_range(0..8));
                    let flow = FlowKey::udp(src.0, dst.0, sport, 33434);
                    let rt = fabric.round_trip(&prefix, flow, rng);
                    budget.round_trips += 1;
                    sent += 1;
                    if !rt.success {
                        lost += 1;
                    }
                }
                if sent == 0 {
                    // Budget exhausted mid-trace: nothing more to learn.
                    break;
                }
                let id = paths.len() as u32;
                paths.push(ProbePath::from_route(
                    id,
                    prefix.nodes.to_vec(),
                    prefix.links.to_vec(),
                ));
                observations.push(PathObservation::new(
                    detector_core::types::PathId(id),
                    sent,
                    lost,
                ));
                // The blame walk stops at the first implicating jump; so
                // does the sweep (same per-hop denominator as the
                // original monolithic implementation).
                let loss = lost as f64 / cfg.trace_probes_per_hop.max(1) as f64;
                if loss - prev_loss >= cfg.hop_blame_threshold {
                    break;
                }
                prev_loss = prev_loss.max(loss);
            }
        }
    }

    SweepResult {
        matrix: ProbeMatrix::from_paths(topo.graph().num_links(), paths),
        observations,
        probes_used: budget.probes(),
    }
}

/// Traces every ECMP path of every suspect pair and blames the first
/// link whose prefix loss ratio jumps past the threshold: the composed
/// two-round NetNORAD localization pipeline.
pub fn fbtracert_localize(
    topo: &dyn DcnTopology,
    fabric: &Fabric<'_>,
    suspects: &[(NodeId, NodeId)],
    cfg: &BaselineConfig,
    budget_round_trips: u64,
    rng: &mut SmallRng,
) -> BaselineDiagnosis {
    let sweep = fbtracert_sweep(topo, fabric, suspects, cfg, budget_round_trips, rng);
    let localizer = FbtracertLocalizer::for_topology(topo, *cfg);
    let diagnosis = localizer.localize(&sweep.matrix, &sweep.observations);
    BaselineDiagnosis {
        links: diagnosis.suspect_links(),
        probes_used: sweep.probes_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_simnet::LossDiscipline;
    use detector_topology::Fattree;
    use rand::SeedableRng;

    #[test]
    fn trace_blames_the_failing_hop() {
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ac_link(0, 0, 0);
        fabric.set_discipline_both(bad, LossDiscipline::Full);
        let mut rng = SmallRng::seed_from_u64(1);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(1, 0, 0))];
        let d = fbtracert_localize(
            &ft,
            &fabric,
            &suspects,
            &BaselineConfig::default(),
            u64::MAX,
            &mut rng,
        );
        assert!(d.links.contains(&bad), "blamed: {:?}", d.links);
    }

    #[test]
    fn clean_paths_blame_nothing() {
        let ft = Fattree::new(4).unwrap();
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(2);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(1, 0, 0))];
        let d = fbtracert_localize(
            &ft,
            &fabric,
            &suspects,
            &BaselineConfig::default(),
            u64::MAX,
            &mut rng,
        );
        assert!(d.links.is_empty());
        assert!(d.probes_used > 0);
    }

    #[test]
    fn random_partial_loss_is_traceable_at_high_rate() {
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ea_link(1, 0, 0);
        fabric.set_discipline_both(bad, LossDiscipline::RandomPartial { rate: 0.6 });
        let mut rng = SmallRng::seed_from_u64(3);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(1, 0, 0))];
        let d = fbtracert_localize(
            &ft,
            &fabric,
            &suspects,
            &BaselineConfig::default(),
            u64::MAX,
            &mut rng,
        );
        assert!(d.links.contains(&bad), "blamed: {:?}", d.links);
    }

    #[test]
    fn budget_is_respected() {
        let ft = Fattree::new(4).unwrap();
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(4);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(1, 0, 0))];
        let d = fbtracert_localize(
            &ft,
            &fabric,
            &suspects,
            &BaselineConfig::default(),
            7,
            &mut rng,
        );
        assert!(d.probes_used <= 14);
    }

    #[test]
    fn sweep_records_prefix_chains() {
        let ft = Fattree::new(4).unwrap();
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(5);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(1, 0, 0))];
        let sweep = fbtracert_sweep(
            &ft,
            &fabric,
            &suspects,
            &BaselineConfig::default(),
            u64::MAX,
            &mut rng,
        );
        assert!(!sweep.matrix.paths.is_empty());
        // Consecutive prefixes extend each other or start a new trace at
        // a single hop.
        let paths: Vec<_> = sweep.matrix.paths.iter().collect();
        for w in paths.windows(2) {
            assert!(
                extends(w[1], w[0]) || w[1].nodes().len() == 2,
                "paths must form prefix chains"
            );
        }
        // One observation per recorded prefix.
        assert_eq!(sweep.matrix.num_paths(), sweep.observations.len());
    }

    #[test]
    fn budget_truncated_hop_is_not_blamed_from_a_tiny_sample() {
        // A hop whose probe loop was cut short by the budget (sent <
        // trace_probes_per_hop) must be judged against the full per-hop
        // quota — the denominator the sweep's stop rule and the original
        // monolithic walk both use — not against its tiny sample.
        use detector_core::types::{NodeId, PathId};
        let cfg = BaselineConfig::default(); // per-hop 10, threshold 0.2.
        let paths = vec![
            ProbePath::from_route(0, vec![NodeId(0), NodeId(1)], vec![LinkId(0)]),
            ProbePath::from_route(
                1,
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![LinkId(0), LinkId(1)],
            ),
        ];
        let matrix = ProbeMatrix::from_paths(4, paths);
        let observations = vec![
            PathObservation::new(PathId(0), 10, 0),
            // Truncated: 1 background loss out of 2 probes — 0.5 of the
            // sample but only 0.1 of the per-hop quota.
            PathObservation::new(PathId(1), 2, 1),
        ];
        let localizer = FbtracertLocalizer {
            cfg,
            probe_links: usize::MAX,
        };
        let d = localizer.localize(&matrix, &observations);
        assert!(
            d.suspect_links().is_empty(),
            "tiny truncated sample must not implicate a hop, got {:?}",
            d.suspect_links()
        );
    }

    #[test]
    fn trait_object_dispatch_matches_composed_call() {
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ac_link(0, 0, 0);
        fabric.set_discipline_both(bad, LossDiscipline::Full);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(1, 0, 0))];
        let cfg = BaselineConfig::default();

        let mut rng = SmallRng::seed_from_u64(6);
        let sweep = fbtracert_sweep(&ft, &fabric, &suspects, &cfg, u64::MAX, &mut rng);
        let localizer: Box<dyn Localizer> = Box::new(FbtracertLocalizer::for_topology(&ft, cfg));
        let via_trait = localizer.localize(&sweep.matrix, &sweep.observations);

        let mut rng = SmallRng::seed_from_u64(6);
        let composed = fbtracert_localize(&ft, &fabric, &suspects, &cfg, u64::MAX, &mut rng);
        assert_eq!(via_trait.suspect_links(), composed.links);
        assert!(composed.links.contains(&bad));
    }
}
