//! Netbouncer-style localization (§6.3): after Pingmesh raises a suspect
//! server pair, sweep *all* parallel paths between the pair with
//! source-routed probes and infer per-link health from the per-path
//! results. Netbouncer's real inference estimates per-link success
//! probabilities from lossy *and* clean paths, so the inference stage —
//! [`NetbouncerLocalizer`] — runs the hit-ratio localizer over the sweep
//! observations (plain set-cover tomography cannot exonerate links that
//! clean paths passed through and mis-localizes single-pair sweeps).
//!
//! The two stages are split along the unified [`Localizer`] interface:
//! [`netbouncer_sweep`] gathers a [`SweepResult`] (probing, budgeted),
//! [`NetbouncerLocalizer::localize`] turns it into a [`Diagnosis`]
//! (inference, pure). [`netbouncer_localize`] composes both.

use detector_core::pll::{localize, Diagnosis, Localizer, PllConfig};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, NodeId, PathObservation, ProbePath};
use detector_simnet::{Fabric, FlowKey};
use detector_topology::DcnTopology;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::common::{BaselineConfig, ProbeBudget, SweepResult};

/// Result of a localization round.
#[derive(Clone, Debug, Default)]
pub struct BaselineDiagnosis {
    /// Blamed links.
    pub links: Vec<LinkId>,
    /// Probes consumed (ping + reply).
    pub probes_used: u64,
}

/// Netbouncer's inference stage: per-link health from a path sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetbouncerLocalizer {
    /// Settings of the underlying hit-ratio localizer.
    pub cfg: PllConfig,
}

impl Localizer for NetbouncerLocalizer {
    fn name(&self) -> &str {
        "Netbouncer"
    }

    fn localize(&self, matrix: &ProbeMatrix, observations: &[PathObservation]) -> Diagnosis {
        localize(matrix, observations, &self.cfg)
    }
}

/// Sweeps every ECMP path of every suspect pair, gathering one
/// observation per parallel path until the round-trip budget runs out.
pub fn netbouncer_sweep(
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
                // Fixed-budget deployments stop sweeping here; the
                // remaining pairs go unlocalized this round.
                break 'pairs;
            }
            let id = paths.len() as u32;
            // Restrict the tomography universe to probe links: server
            // access links are checked by in-rack probing in all systems.
            let probe_links: Vec<LinkId> = route
                .links
                .iter()
                .copied()
                .filter(|l| l.index() < topo.probe_links())
                .collect();
            let path = ProbePath::from_route(id, route.nodes.to_vec(), probe_links);
            let mut sent = 0u64;
            let mut lost = 0u64;
            for p in 0..cfg.sweep_probes_per_path {
                if budget.round_trips >= budget_round_trips {
                    break;
                }
                let sport = 33_000u16
                    .wrapping_add(p as u16)
                    .wrapping_add(rng.gen_range(0..8));
                let flow = FlowKey::udp(src.0, dst.0, sport, 53533);
                let rt = fabric.round_trip(&route, flow, rng);
                budget.round_trips += 1;
                sent += 1;
                if !rt.success {
                    lost += 1;
                }
            }
            observations.push(PathObservation::new(path.id, sent, lost));
            paths.push(path);
        }
    }

    SweepResult {
        matrix: ProbeMatrix::from_paths(topo.probe_links(), paths),
        observations,
        probes_used: budget.probes(),
    }
}

/// Sweeps the suspects and localizes over the gathered observations (see
/// module docs for the inference choice): the composed two-round
/// Netbouncer pipeline.
pub fn netbouncer_localize(
    topo: &dyn DcnTopology,
    fabric: &Fabric<'_>,
    suspects: &[(NodeId, NodeId)],
    cfg: &BaselineConfig,
    budget_round_trips: u64,
    rng: &mut SmallRng,
) -> BaselineDiagnosis {
    let sweep = netbouncer_sweep(topo, fabric, suspects, cfg, budget_round_trips, rng);
    if sweep.matrix.num_paths() == 0 {
        return BaselineDiagnosis {
            links: Vec::new(),
            probes_used: sweep.probes_used,
        };
    }
    let localizer = NetbouncerLocalizer::default();
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
    fn sweep_localizes_full_loss() {
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ac_link(0, 0, 0);
        fabric.set_discipline_both(bad, LossDiscipline::Full);
        let mut rng = SmallRng::seed_from_u64(1);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(1, 0, 0))];
        let d = netbouncer_localize(
            &ft,
            &fabric,
            &suspects,
            &BaselineConfig::default(),
            u64::MAX,
            &mut rng,
        );
        assert!(d.links.contains(&bad), "blamed: {:?}", d.links);
        assert!(d.probes_used > 0);
    }

    #[test]
    fn no_suspects_means_no_probes() {
        let ft = Fattree::new(4).unwrap();
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(2);
        let d = netbouncer_localize(
            &ft,
            &fabric,
            &[],
            &BaselineConfig::default(),
            u64::MAX,
            &mut rng,
        );
        assert_eq!(d.probes_used, 0);
        assert!(d.links.is_empty());
    }

    #[test]
    fn sweep_covers_all_parallel_paths() {
        let ft = Fattree::new(4).unwrap();
        let fabric = Fabric::quiet(&ft);
        let mut rng = SmallRng::seed_from_u64(3);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(2, 1, 0))];
        let d = netbouncer_localize(
            &ft,
            &fabric,
            &suspects,
            &BaselineConfig::default(),
            u64::MAX,
            &mut rng,
        );
        // 4 parallel paths × 20 probes × 2 (ping+reply).
        assert_eq!(d.probes_used, 4 * 20 * 2);

        // A tight budget is respected.
        let d = netbouncer_localize(
            &ft,
            &fabric,
            &suspects,
            &BaselineConfig::default(),
            10,
            &mut rng,
        );
        assert_eq!(d.probes_used, 10 * 2);
    }

    #[test]
    fn sweep_plus_trait_object_matches_composed_call() {
        // The unified Localizer interface must agree with the convenience
        // wrapper on identical sweep data.
        let ft = Fattree::new(4).unwrap();
        let mut fabric = Fabric::quiet(&ft);
        let bad = ft.ac_link(0, 0, 0);
        fabric.set_discipline_both(bad, LossDiscipline::Full);
        let suspects = vec![(ft.server(0, 0, 0), ft.server(1, 0, 0))];
        let cfg = BaselineConfig::default();

        let mut rng = SmallRng::seed_from_u64(7);
        let sweep = netbouncer_sweep(&ft, &fabric, &suspects, &cfg, u64::MAX, &mut rng);
        let localizer: Box<dyn Localizer> = Box::new(NetbouncerLocalizer::default());
        let via_trait = localizer.localize(&sweep.matrix, &sweep.observations);

        let mut rng = SmallRng::seed_from_u64(7);
        let composed = netbouncer_localize(&ft, &fabric, &suspects, &cfg, u64::MAX, &mut rng);
        assert_eq!(via_trait.suspect_links(), composed.links);
        assert!(via_trait.suspect_links().contains(&bad));
    }
}
