//! The Tomo baseline (NetDiagnoser, CoNEXT'07).
//!
//! Classic binary tomography: greedily pick the link lying on the most
//! still-unexplained *failed paths* (minimum-hitting-set heuristic), with
//! no hit-ratio filtering — which is exactly what breaks down under the
//! partial-loss patterns of data centers (§5.2): a blackhole makes only a
//! subset of the paths through a link lossy, and clean paths through a
//! good link do not prevent Tomo from blaming it.

use super::pll_impl::{Diagnosis, ObservedMatrix, SuspectLink};
use super::rate::estimate_rate;
use super::PllConfig;
use crate::pmc::ProbeMatrix;
use crate::types::{LinkId, PathObservation};

/// Localizes losses with the Tomo greedy (no hit-ratio filter; path-count
/// scores).
pub fn localize_tomo(
    matrix: &ProbeMatrix,
    observations: &[PathObservation],
    cfg: &PllConfig,
) -> Diagnosis {
    let om = ObservedMatrix::build(matrix, observations, cfg);
    let mut unexplained: Vec<bool> = om.obs.iter().map(|o| o.is_lossy()).collect();
    let mut remaining: usize = unexplained.iter().filter(|&&b| b).count();
    let mut suspects = Vec::new();

    while remaining > 0 {
        let mut best: Option<(usize, LinkId)> = None;
        for &l in &om.candidate_links {
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
                Some((bc, bl)) => (covered, std::cmp::Reverse(l)) > (bc, std::cmp::Reverse(bl)),
            };
            if better {
                best = Some((covered, l));
            }
        }
        let Some((covered, link)) = best else { break };

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
            hit_ratio: om.hit_ratio(link),
            explained_paths: covered as u32,
            explained_losses: losses,
        });
    }

    Diagnosis {
        suspects,
        unexplained_paths: Vec::new(),
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
        ];
        ProbeMatrix::from_paths(3, paths)
    }

    #[test]
    fn tomo_localizes_full_loss() {
        let obs = vec![
            PathObservation::new(PathId(0), 100, 100),
            PathObservation::new(PathId(1), 100, 100),
            PathObservation::new(PathId(2), 100, 0),
        ];
        let d = localize_tomo(&matrix(), &obs, &PllConfig::default());
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
    }

    #[test]
    fn tomo_overblames_under_partial_loss() {
        // Only p0 lossy (a blackhole on link 0 that hits only p0's flows).
        // Tomo happily blames link 0 or 1 even though their hit ratios are
        // 0.5 — no filtering.
        let obs = vec![
            PathObservation::new(PathId(0), 100, 50),
            PathObservation::new(PathId(1), 100, 0),
            PathObservation::new(PathId(2), 100, 0),
        ];
        let d = localize_tomo(&matrix(), &obs, &PllConfig::default());
        assert_eq!(d.suspects.len(), 1);
    }
}
