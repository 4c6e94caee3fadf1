//! The SCORE baseline (Kompella et al., NSDI'05).
//!
//! Risk-model fault localization: every link is a risk group (the set of
//! observed paths through it); the greedy repeatedly picks the group with
//! the highest *hit ratio* (failed ∩ group / group), breaking ties by how
//! many still-unexplained failed paths it covers, until every failed path
//! is covered or no group passes the confidence threshold.

use super::pll_impl::{Diagnosis, ObservedMatrix, SuspectLink};
use super::rate::estimate_rate;
use super::PllConfig;
use crate::pmc::ProbeMatrix;
use crate::types::{LinkId, PathObservation};

/// Localizes losses with the SCORE greedy (hit-ratio-first ordering).
pub fn localize_score(
    matrix: &ProbeMatrix,
    observations: &[PathObservation],
    cfg: &PllConfig,
) -> Diagnosis {
    let om = ObservedMatrix::build(matrix, observations, cfg);
    let mut unexplained: Vec<bool> = om.obs.iter().map(|o| o.is_lossy()).collect();
    let mut remaining: usize = unexplained.iter().filter(|&&b| b).count();
    let mut suspects = Vec::new();

    let hit: Vec<(LinkId, f64)> = om
        .candidate_links
        .iter()
        .map(|&l| (l, om.hit_ratio(l)))
        .collect();

    while remaining > 0 {
        let mut best: Option<(f64, usize, LinkId)> = None;
        for &(l, h) in &hit {
            if h < cfg.hit_ratio_threshold {
                continue;
            }
            let covered = om
                .link_paths
                .run(l.index())
                .iter()
                .filter(|&&oi| unexplained[oi as usize])
                .count();
            if covered == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bh, bc, bl)) => {
                    (h, covered, std::cmp::Reverse(l)) > (bh, bc, std::cmp::Reverse(bl))
                }
            };
            if better {
                best = Some((h, covered, l));
            }
        }
        let Some((h, covered, link)) = best else {
            break;
        };

        let mut samples = Vec::new();
        let mut losses = 0u64;
        for &oi in om.link_paths.run(link.index()) {
            let oi = oi as usize;
            if unexplained[oi] {
                unexplained[oi] = false;
                remaining -= 1;
                losses += om.obs[oi].lost;
                samples.push((om.obs[oi].sent, om.obs[oi].lost));
            }
        }
        suspects.push(SuspectLink {
            link,
            estimated_loss_rate: estimate_rate(&samples),
            hit_ratio: h,
            explained_paths: covered as u32,
            explained_losses: losses,
        });
    }

    let unexplained_paths = om
        .obs
        .iter()
        .enumerate()
        .filter(|(oi, _)| unexplained[*oi])
        .map(|(_, o)| o.path)
        .collect();
    Diagnosis {
        suspects,
        unexplained_paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PathId, ProbePath};

    fn matrix() -> ProbeMatrix {
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
            ProbePath::from_links(2, vec![LinkId(2)]),
            ProbePath::from_links(3, vec![LinkId(1)]),
        ];
        ProbeMatrix::from_paths(3, paths)
    }

    #[test]
    fn prefers_high_hit_ratio_over_high_coverage() {
        // Link 0 covers two lossy paths but has hit ratio 1.0; link 2 has
        // hit ratio 0.5 (p2 clean). SCORE picks link 0 and stops.
        let obs = vec![
            PathObservation::new(PathId(0), 100, 60),
            PathObservation::new(PathId(1), 100, 55),
            PathObservation::new(PathId(2), 100, 0),
            PathObservation::new(PathId(3), 100, 0),
        ];
        let d = localize_score(&matrix(), &obs, &PllConfig::default());
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
    }

    #[test]
    fn threshold_leaves_losses_unexplained() {
        let obs = vec![
            PathObservation::new(PathId(0), 100, 60),
            PathObservation::new(PathId(1), 100, 0),
            PathObservation::new(PathId(2), 100, 0),
            PathObservation::new(PathId(3), 100, 0),
        ];
        let d = localize_score(&matrix(), &obs, &PllConfig::default());
        assert!(d.suspects.is_empty());
        assert_eq!(d.unexplained_paths, vec![PathId(0)]);
    }
}
