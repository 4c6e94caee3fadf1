//! The PLL greedy (§5.3, Steps 1–5).

use std::collections::HashSet;

use super::rate::estimate_rate;
use super::{preprocess, PllConfig};
use crate::dense::Runs;
use crate::json::{Json, ToJson};
use crate::pmc::ProbeMatrix;
use crate::types::{LinkId, PathId, PathObservation};

/// A link blamed by a localization algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuspectLink {
    /// The blamed physical link.
    pub link: LinkId,
    /// Estimated loss rate on the link (MLE under the assumption that the
    /// losses of the paths this link explains happened on this link).
    pub estimated_loss_rate: f64,
    /// Hit ratio of the link at selection time: lossy observed paths
    /// through the link / all observed paths through the link.
    pub hit_ratio: f64,
    /// Number of lossy paths this link explained.
    pub explained_paths: u32,
    /// Number of lost packets this link explained.
    pub explained_losses: u64,
}

/// Result of a localization run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Diagnosis {
    /// Blamed links in selection order (first = strongest explanation).
    pub suspects: Vec<SuspectLink>,
    /// Lossy paths whose losses no suspect link explains (e.g. all their
    /// links stayed below the hit-ratio threshold).
    pub unexplained_paths: Vec<PathId>,
}

impl Diagnosis {
    /// Blamed link ids, sorted.
    pub fn suspect_links(&self) -> Vec<LinkId> {
        let mut v: Vec<LinkId> = self.suspects.iter().map(|s| s.link).collect();
        v.sort_unstable();
        v
    }

    /// True if nothing was blamed and nothing was left unexplained.
    pub fn is_clean(&self) -> bool {
        self.suspects.is_empty() && self.unexplained_paths.is_empty()
    }
}

impl ToJson for Diagnosis {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "suspects",
                Json::Array(self.suspects.iter().map(ToJson::to_json).collect()),
            ),
            (
                "unexplained_paths",
                Json::Array(
                    self.unexplained_paths
                        .iter()
                        .map(|p| Json::uint(p.0 as u64))
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for SuspectLink {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("link", Json::uint(self.link.0 as u64)),
            ("estimated_loss_rate", Json::Float(self.estimated_loss_rate)),
            ("hit_ratio", Json::Float(self.hit_ratio)),
            ("explained_paths", Json::uint(self.explained_paths as u64)),
            ("explained_losses", Json::uint(self.explained_losses)),
        ])
    }
}

/// Pre-indexed view of the observations against the probe matrix, shared
/// by PLL and the baseline localizers.
pub(super) struct ObservedMatrix {
    /// Pre-processed observations.
    pub obs: Vec<PathObservation>,
    /// For every physical link: indices into `obs` of observed paths
    /// through the link.
    pub link_paths: Runs<u32>,
    /// Links that lie on at least one lossy observed path.
    pub candidate_links: Vec<LinkId>,
}

impl ObservedMatrix {
    pub(super) fn build(
        matrix: &ProbeMatrix,
        observations: &[PathObservation],
        cfg: &PllConfig,
    ) -> Self {
        let obs = preprocess(observations, cfg, &HashSet::new());
        let link_paths = index_links(matrix, &obs);
        let lossy = |&oi: &u32| obs.get(oi as usize).is_some_and(PathObservation::is_lossy);
        let candidate_links = (link_paths.runs().enumerate())
            .filter(|(_, paths)| paths.iter().any(lossy))
            .map(|(li, _)| LinkId(li as u32))
            .collect();
        Self {
            obs,
            link_paths,
            candidate_links,
        }
    }

    /// Hit ratio of a link: lossy observed paths / all observed paths.
    pub(super) fn hit_ratio(&self, link: LinkId) -> f64 {
        let paths = self.link_paths.run(link.index());
        if paths.is_empty() {
            return 0.0;
        }
        let lossy = paths
            .iter()
            .filter(|&&oi| {
                self.obs
                    .get(oi as usize)
                    .is_some_and(PathObservation::is_lossy)
            })
            .count();
        lossy as f64 / paths.len() as f64
    }
}

/// The link → observed-paths index of one pre-processed window: for every
/// link, the indices into `obs` of the observed paths through it,
/// ascending. It spans the matrix's `num_links` or one past the largest
/// link an observed path names, whichever is larger, so a path naming a
/// link beyond the declared universe is indexed, not a panic.
pub(super) fn index_links(matrix: &ProbeMatrix, obs: &[PathObservation]) -> Runs<u32> {
    // Resolve through the matrix's id index: ids may be segmented (sparse
    // within per-cell ranges), and observations against a retired
    // pre-re-base id simply drop out here.
    let observed = || {
        (obs.iter().enumerate())
            .filter_map(|(oi, o)| Some((oi as u32, matrix.path(o.path)?.links())))
            .flat_map(|(oi, links)| links.iter().map(move |l| (l.0, oi)))
    };
    let mut index = Runs::default();
    index.refill(matrix.num_links, observed);
    index
}

#[cfg(test)]
/// The matrix row of each of `obs`' paths, or
/// [`STRAY`](super::LossyIncidence::STRAY) where the matrix cannot
/// resolve its id: what the diagnoser's walk hands
/// [`ComponentPll::diagnose`](super::ComponentPll::diagnose) with a
/// window's lossy observations.
pub(super) fn rows_of(matrix: &ProbeMatrix, obs: &[PathObservation]) -> Vec<u32> {
    let row = |o: &PathObservation| matrix.row_of(o.path).map(|row| row as u32);
    obs.iter()
        .map(|o| row(o).unwrap_or(super::LossyIncidence::STRAY))
        .collect()
}

/// Localizes packet losses with the PLL algorithm.
///
/// Observations are pre-processed first (noise filtering, §5.1); callers
/// that need watchdog-based outlier exclusion should run
/// [`preprocess`](super::preprocess) with their exclusion set beforehand.
///
/// The greedy repeatedly blames, among the links whose *hit ratio* meets
/// `cfg.hit_ratio_threshold`, the link explaining the most still-unexplained
/// lost packets, until every lossy path is explained or no candidate
/// remains (remaining paths are reported in
/// [`Diagnosis::unexplained_paths`]).
///
/// This is the plain whole-window run — the [`Localizer`](super::Localizer)
/// behind the baselines comparison and the oracle every test compares
/// [`ComponentPll`](super::ComponentPll), the diagnoser's localizer,
/// against.
pub fn localize(
    matrix: &ProbeMatrix,
    observations: &[PathObservation],
    cfg: &PllConfig,
) -> Diagnosis {
    let om = ObservedMatrix::build(matrix, observations, cfg);
    // Hit ratios are computed once: explanation does not change the
    // underlying observation data, only what remains to be explained.
    let hit: Vec<(LinkId, f64)> = om
        .candidate_links
        .iter()
        .map(|&l| (l, om.hit_ratio(l)))
        .collect();
    let everything: Vec<u32> = (0..om.obs.len() as u32).collect();
    let outcome = greedy_scoped(&om.obs, &om.link_paths, &hit, cfg, &everything);
    let unexplained_paths = (outcome.unexplained.iter())
        .filter_map(|&oi| om.obs.get(oi as usize).map(|o| o.path))
        .collect();
    Diagnosis {
        suspects: outcome.suspects,
        unexplained_paths,
    }
}

/// The output of one greedy run: the suspects in selection order plus the
/// *indices* (into `obs`) of the scope's lossy observations no suspect
/// explained, in scope order.
#[derive(Debug)]
pub(super) struct GreedyOutcome {
    pub suspects: Vec<SuspectLink>,
    pub unexplained: Vec<u32>,
}

/// The greedy cover (Steps 3–5) over a pre-indexed window, restricted to
/// a `scope` of observation indices: `obs` are the pre-processed
/// observations, `link_paths` maps every link to the indices of its
/// observations (at least the lossy ones: clean ones never score), `hit`
/// lists the candidate links with their hit ratios in ascending link
/// order. Only the scope's observations seed the unexplained set and the
/// remaining-loss budget. With every index in scope this is the classic
/// global run ([`localize`]); with one connected component's lossy
/// observations — and `hit` listing only that component's candidate
/// links — it is exactly the greedy of the subproblem the component
/// induces (see [`components`](super::components)).
pub(super) fn greedy_scoped(
    obs: &[PathObservation],
    link_paths: &Runs<u32>,
    hit: &[(LinkId, f64)],
    cfg: &PllConfig,
    scope: &[u32],
) -> GreedyOutcome {
    let mut unexplained: Vec<bool> = vec![false; obs.len()];
    let mut remaining: u64 = 0;
    for &oi in scope {
        if let (Some(o), Some(u)) = (obs.get(oi as usize), unexplained.get_mut(oi as usize)) {
            *u = o.is_lossy();
            remaining += o.lost;
        }
    }
    let is_unexplained = |u: &[bool], oi: u32| u.get(oi as usize).copied().unwrap_or(false);
    let mut suspects = Vec::new();

    while remaining > 0 {
        // Step 3: score = lost packets this link could still explain,
        // with the hit ratio as an eligibility filter and tie-breaker.
        let mut best: Option<(u64, f64, LinkId)> = None;
        for &(l, h) in hit {
            if h < cfg.hit_ratio_threshold {
                continue;
            }
            let score: u64 = (link_paths.run(l.index()).iter())
                .filter(|&&oi| is_unexplained(&unexplained, oi))
                .filter_map(|&oi| obs.get(oi as usize).map(|o| o.lost))
                .sum();
            if score == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bs, bh, bl)) => {
                    (score, h, std::cmp::Reverse(l)) > (bs, bh, std::cmp::Reverse(bl))
                }
            };
            if better {
                best = Some((score, h, l));
            }
        }
        let Some((score, h, link)) = best else {
            break;
        };

        // Step 4: blame the link and explain its lossy paths.
        let mut explained_paths = 0u32;
        let mut samples: Vec<(u64, u64)> = Vec::new();
        for &oi in link_paths.run(link.index()) {
            let (Some(u), Some(o)) = (unexplained.get_mut(oi as usize), obs.get(oi as usize))
            else {
                continue;
            };
            if *u {
                *u = false;
                explained_paths += 1;
                remaining -= o.lost;
                samples.push((o.sent, o.lost));
            }
        }
        suspects.push(SuspectLink {
            link,
            estimated_loss_rate: estimate_rate(&samples),
            hit_ratio: h,
            explained_paths,
            explained_losses: score,
        });
    }

    GreedyOutcome {
        suspects,
        unexplained: scope
            .iter()
            .copied()
            .filter(|&oi| is_unexplained(&unexplained, oi))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProbePath;

    /// A 4-link matrix: p0={0,1}, p1={0,2}, p2={2,3}, p3={3}, p4={1}.
    fn matrix() -> ProbeMatrix {
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
            ProbePath::from_links(2, vec![LinkId(2), LinkId(3)]),
            ProbePath::from_links(3, vec![LinkId(3)]),
            ProbePath::from_links(4, vec![LinkId(1)]),
        ];
        ProbeMatrix::from_paths(4, paths)
    }

    fn obs(rows: &[(u32, u64, u64)]) -> Vec<PathObservation> {
        rows.iter()
            .map(|&(p, sent, lost)| PathObservation::new(PathId(p), sent, lost))
            .collect()
    }

    #[test]
    fn single_full_loss_is_localized() {
        // Link 0 fully bad: p0 and p1 lose everything, others clean.
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 100),
                (1, 100, 100),
                (2, 100, 0),
                (3, 100, 0),
                (4, 100, 0),
            ]),
            &PllConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
        let s = &d.suspects[0];
        assert!((s.estimated_loss_rate - 1.0).abs() < 1e-9);
        assert_eq!(s.explained_paths, 2);
        assert!(d.unexplained_paths.is_empty());
    }

    #[test]
    fn hit_ratio_filters_partial_suspects() {
        // Only p0 is lossy. Links 0 and 1 both lie on it; link 0 has hit
        // ratio 1/2 (p1 clean), link 1 has 1/2 (p4 clean). With the 0.6
        // threshold nothing qualifies and the loss stays unexplained.
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 40),
                (1, 100, 0),
                (2, 100, 0),
                (3, 100, 0),
                (4, 100, 0),
            ]),
            &PllConfig::default(),
        );
        assert!(d.suspects.is_empty());
        assert_eq!(d.unexplained_paths, vec![PathId(0)]);

        // Lowering the threshold lets the greedy blame one of them.
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 40),
                (1, 100, 0),
                (2, 100, 0),
                (3, 100, 0),
                (4, 100, 0),
            ]),
            &PllConfig::default().with_hit_ratio(0.5),
        );
        assert_eq!(d.suspects.len(), 1);
    }

    #[test]
    fn two_failures_are_both_blamed() {
        // Links 1 and 3 bad (partial): p0, p4 lossy (via 1); p2, p3 lossy
        // (via 3).
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 30),
                (1, 100, 0),
                (2, 100, 35),
                (3, 100, 30),
                (4, 100, 25),
            ]),
            &PllConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(1), LinkId(3)]);
        assert!(d.unexplained_paths.is_empty());
    }

    #[test]
    fn noise_produces_clean_diagnosis() {
        let d = localize(
            &matrix(),
            &obs(&[(0, 100_000, 3), (1, 100_000, 5), (2, 100_000, 0)]),
            &PllConfig::default(),
        );
        assert!(d.is_clean());
    }

    #[test]
    fn localizes_over_segmented_path_ids() {
        // The same single-full-loss scenario, but with the matrix ids
        // living in two plan-cell ranges (0.. and 16..) with headroom
        // gaps: observations resolve through the id index.
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0)]),
            ProbePath::from_links(16, vec![LinkId(2), LinkId(3)]),
            ProbePath::from_links(17, vec![LinkId(3)]),
        ];
        let m = ProbeMatrix::from_segmented(4, paths);
        let d = localize(
            &m,
            &obs(&[(0, 100, 100), (1, 100, 100), (16, 100, 0), (17, 100, 0)]),
            &PllConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
        // A retired (unknown) id never aliases another row: its losses
        // surface as unexplained instead of blaming some other path's
        // links.
        let d = localize(
            &m,
            &obs(&[(7, 100, 100), (16, 100, 0), (17, 100, 0)]),
            &PllConfig::default(),
        );
        assert!(d.suspects.is_empty());
        assert_eq!(d.unexplained_paths, vec![PathId(7)]);
    }

    #[test]
    fn rate_estimate_reflects_partial_loss() {
        // Link 3 drops ~30%.
        let d = localize(
            &matrix(),
            &obs(&[
                (0, 100, 0),
                (1, 100, 0),
                (2, 100, 31),
                (3, 100, 29),
                (4, 100, 0),
            ]),
            &PllConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(3)]);
        let r = d.suspects[0].estimated_loss_rate;
        assert!((r - 0.30).abs() < 0.02, "estimated {r}");
    }
}
