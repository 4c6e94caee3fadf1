//! Component-decomposed PLL — the diagnoser's localizer: Observation 1 of
//! §4.3 applied to the localization stage (§5).
//!
//! The *lossy* path/link incidence of one observed window — the lossy
//! observations and the links they cross — splits into connected
//! components; losses in one component can only be explained by that
//! component's links, so the greedy cover decomposes into independent
//! per-component covers, solved one after another on the diagnosing
//! thread. Clean observations take no part in the partition — they only
//! enter through the hit-ratio denominators, which are static per
//! window — so the components are exactly the window's independent
//! localization subproblems, one greedy each.
//!
//! So the localizer reads only the lossy observations. A candidate
//! link's hit ratio is its lossy paths over its observed paths, and the
//! caller hands over that denominator rather than the clean paths behind
//! it: the diagnoser's walk has it as the plan's rows through the link
//! minus the rows the window left unobserved. What a window costs here
//! follows what was lost, not the fabric.
//!
//! [`ComponentPll`] caches the skeleton (link → lossy-paths index,
//! component partition, per-component candidate links with their hit
//! ratios) under the reuse key **(lossy path ids, candidate links'
//! denominators)**: a window with the same key as its predecessor only
//! swaps the loss counters in — and returns the cached verdict outright
//! when the lossy observations are identical too. Clean paths' counters
//! never move the verdict and are not part of the key. Any other window,
//! and the first one after [`invalidate`](ComponentPll::invalidate) (new
//! probe matrix: plan epoch change, cycle refresh), rebuilds the
//! skeleton from scratch.
//!
//! # Why the merged cover equals the global greedy
//!
//! Component subproblems are *independent*: a link's hit ratio is a
//! per-window constant (explanation never rewrites observations), a
//! link's score only ever counts lossy observations — all of which sit in
//! the link's own component — and a pick in one component cannot change
//! scores in another (they share no lossy paths). Within one component
//! the global greedy's picks form a strictly decreasing sequence of
//! selection keys `(explained_losses, hit_ratio, smaller-link-wins)` —
//! each pick only lowers the remaining candidates' scores — and the key
//! is recorded verbatim on every [`SuspectLink`]. The global greedy is
//! therefore exactly the descending merge of the per-component pick
//! sequences, and since keys are globally unique (the link id
//! participates), merging reduces to sorting the concatenated suspects by
//! key. The same holds for unexplained paths: each lossy observation
//! belongs to exactly one component (or to none, when its path id does
//! not resolve in the matrix — then nothing can ever explain it), so the
//! global unexplained list is the index-ordered union of the
//! per-component leftovers and those stray observations. The result is
//! bit-identical to [`localize`](super::localize) — property-tested in
//! this module, over the `Diagnoser` API in `tests/diagnoser_oracle.rs`,
//! and end-to-end (results + full ordered event streams) in
//! `tests/scheduler_equivalence.rs` and `tests/distributed_equivalence.rs`.

use std::collections::HashSet;

use super::pll_impl::{greedy_scoped, index_links, Diagnosis, SuspectLink};
use super::preprocess::stays_lossy;
use super::{preprocess, PllConfig};
use crate::pmc::{LinkIndex, ProbeMatrix};
use crate::types::{LinkId, PathObservation};

/// One connected component of the lossy path/link incidence.
#[derive(Debug, Default)]
struct Component {
    /// The component's candidate links with their hit ratios, ascending
    /// link order — the restriction of what `localize` computes globally.
    hit: Vec<(LinkId, f64)>,
    /// The component's lossy observation indices, ascending.
    scope: Vec<u32>,
}

/// Everything windows with the same reuse key share, built once per
/// rebuild.
#[derive(Debug)]
struct Skeleton {
    /// The `num_links` of the matrix the skeleton was built against.
    universe: usize,
    /// Link → indices into the lossy observations (the lengths are the
    /// hit-ratio numerators).
    link_paths: LinkIndex,
    /// Every candidate link with its hit-ratio denominator, ascending by
    /// link: the half of the reuse key the lossy path ids do not fix.
    denominators: Vec<(LinkId, usize)>,
    /// The partition, ascending by smallest candidate link.
    comps: Vec<Component>,
    /// Lossy observations outside every component (path id does not
    /// resolve in the matrix, or the path covers no links), ascending:
    /// unexplainable.
    stray: Vec<u32>,
}

/// Sentinel for a union-find root no component was opened for yet.
const NO_COMP: u32 = u32::MAX;

impl Skeleton {
    /// The skeleton of a window's `lossy` observations, with
    /// `observed_through(l)` observed paths through each candidate link.
    fn build(
        matrix: &ProbeMatrix,
        lossy: &[PathObservation],
        observed_through: &dyn Fn(LinkId) -> usize,
    ) -> Self {
        let link_paths = index_links(matrix, lossy);

        // A union-find over link indices in which every lossy path is one
        // clique. The smaller index becomes the root, so a component's
        // root is its smallest link (deterministic partition order,
        // matching `pmc::decompose`).
        let num_links = link_paths.num_links();
        let mut parent: Vec<u32> = (0..num_links as u32).collect();
        let mut anchored: Vec<(u32, u32)> = Vec::new();
        let mut stray: Vec<u32> = Vec::new();
        for (oi, o) in lossy.iter().enumerate() {
            let links = matrix.path(o.path).map(|p| p.links()).unwrap_or_default();
            let Some((first, rest)) = links.split_first() else {
                stray.push(oi as u32);
                continue;
            };
            anchored.push((oi as u32, first.0));
            for l in rest {
                union(&mut parent, first.0, l.0);
            }
        }

        // Candidate links in ascending order open their components in
        // ascending order of smallest link and fill each hit list sorted.
        let mut comp_of_root: Vec<u32> = vec![NO_COMP; num_links];
        let mut comps: Vec<Component> = Vec::new();
        let mut denominators: Vec<(LinkId, usize)> = Vec::new();
        for (li, paths) in link_paths.runs().enumerate() {
            if paths.is_empty() {
                continue;
            }
            let link = LinkId(li as u32);
            let observed = observed_through(link);
            denominators.push((link, observed));
            let root = find(&mut parent, li as u32);
            let Some(slot) = comp_of_root.get_mut(root as usize) else {
                continue;
            };
            if *slot == NO_COMP {
                *slot = comps.len() as u32;
                comps.push(Component::default());
            }
            if let Some(c) = comps.get_mut(*slot as usize) {
                c.hit.push((link, paths.len() as f64 / observed as f64));
            }
        }
        for (oi, first) in anchored {
            let root = find(&mut parent, first);
            let comp = comp_of_root
                .get(root as usize)
                .and_then(|&ci| comps.get_mut(ci as usize));
            if let Some(c) = comp {
                c.scope.push(oi);
            }
        }

        Self {
            universe: matrix.num_links,
            link_paths,
            denominators,
            comps,
            stray,
        }
    }
}

/// Cached cross-window component-decomposed PLL state. One instance per
/// diagnoser; feed it every window in order and
/// [`invalidate`](ComponentPll::invalidate) it on matrix changes.
#[derive(Debug)]
pub struct ComponentPll {
    cfg: PllConfig,
    /// The cached skeleton; `None` before the first window and after
    /// [`invalidate`](ComponentPll::invalidate).
    skeleton: Option<Skeleton>,
    /// The latest window's lossy observations, noise filtered.
    obs: Vec<PathObservation>,
    /// The latest window's verdict (for the unchanged-window shortcut).
    verdict: Diagnosis,
    full_rebuilds: u64,
    reused_skeletons: u64,
    reused_verdicts: u64,
}

impl ComponentPll {
    /// Fresh, empty state: the first window always rebuilds.
    pub fn new(cfg: PllConfig) -> Self {
        Self {
            cfg,
            skeleton: None,
            obs: Vec::new(),
            verdict: Diagnosis::default(),
            full_rebuilds: 0,
            reused_skeletons: 0,
            reused_verdicts: 0,
        }
    }

    /// Drops the cached skeleton. Call whenever the probe matrix changes
    /// (plan epoch change, cycle refresh, any topology-event driven
    /// re-plan): path ids may be reused with different link sets, which
    /// the reuse key alone cannot detect, and a stale partition would
    /// silently split or fuse the greedy.
    pub fn invalidate(&mut self) {
        self.skeleton = None;
    }

    /// Windows that rebuilt the skeleton and partition from scratch.
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Windows that swapped new loss counters into the cached skeleton.
    pub fn reused_skeletons(&self) -> u64 {
        self.reused_skeletons
    }

    /// Windows that returned the cached verdict unchanged.
    pub fn reused_verdicts(&self) -> u64 {
        self.reused_verdicts
    }

    /// `(lossy_paths, components)` of the latest diagnosed window:
    /// observations that stay lossy after noise filtering (those whose
    /// path id does not resolve in the matrix included), and the
    /// connected components their links induce — the number of
    /// independent localization subproblems, one greedy each.
    /// `(0, 0)` before the first window and after
    /// [`invalidate`](ComponentPll::invalidate).
    pub fn window_shape(&self) -> (u64, u64) {
        let Some(s) = &self.skeleton else {
            return (0, 0);
        };
        let lossy = s.stray.len() + s.comps.iter().map(|c| c.scope.len()).sum::<usize>();
        (lossy as u64, s.comps.len() as u64)
    }

    /// Localizes one whole window: counts each link's observed paths
    /// from `observations` themselves — what [`localize`](super::localize)
    /// indexes — then [`diagnose`](ComponentPll::diagnose)s the lossy
    /// ones. Produces exactly what `localize` would for the same inputs.
    pub fn localize(
        &mut self,
        matrix: &ProbeMatrix,
        observations: &[PathObservation],
    ) -> Diagnosis {
        let observed = preprocess(observations, &self.cfg, &HashSet::new());
        let through = index_links(matrix, &observed);
        let lossy = observed.into_iter().filter(PathObservation::is_lossy);
        self.diagnose(matrix, lossy.collect(), &|l| through.items(l).len())
    }

    /// Diagnoses one window: noise-filters its `lossy` observations in
    /// place, reuses or rebuilds the cached skeleton, runs each
    /// component's greedy in turn and merges their suspects into the
    /// global pick order — or returns the cached verdict outright when
    /// the window repeats its predecessor.
    ///
    /// `lossy` lists the window's observations with a probe lost, in the
    /// window's order (ascending path id); clean ones may be left out, and
    /// whatever the noise filter zeroes is dropped. `observed_through(l)`
    /// is the hit ratio's denominator: the window's observations with a
    /// probe sent whose path crosses link `l`, counted once per naming —
    /// clean, noisy and lossy alike.
    pub fn diagnose(
        &mut self,
        matrix: &ProbeMatrix,
        mut lossy: Vec<PathObservation>,
        observed_through: &dyn Fn(LinkId) -> usize,
    ) -> Diagnosis {
        lossy.retain(|o| stays_lossy(o, &self.cfg));
        let same_key = |s: &Skeleton| {
            s.universe == matrix.num_links
                && self.obs.len() == lossy.len()
                && self.obs.iter().zip(&lossy).all(|(p, o)| p.path == o.path)
                && (s.denominators.iter()).all(|&(l, n)| observed_through(l) == n)
        };
        let skeleton = match self.skeleton.take() {
            Some(s) if same_key(&s) => {
                if self.obs == lossy {
                    self.reused_verdicts += 1;
                    self.skeleton = Some(s);
                    return self.verdict.clone();
                }
                self.reused_skeletons += 1;
                s
            }
            _ => {
                self.full_rebuilds += 1;
                Skeleton::build(matrix, &lossy, observed_through)
            }
        };
        self.obs = lossy;
        let s = self.skeleton.insert(skeleton);

        // A window with no lossy observation that resolves to links (an
        // all-healthy one, typically) has no component: only the strays
        // are left unexplained.
        let mut suspects: Vec<SuspectLink> = Vec::new();
        let mut unexplained: Vec<u32> = s.stray.clone();
        for c in &s.comps {
            let out = greedy_scoped(&self.obs, &s.link_paths, &c.hit, &self.cfg, &c.scope);
            suspects.extend(out.suspects);
            unexplained.extend(out.unexplained);
        }
        // Merge = sort by the greedy's selection key, descending. Keys
        // strictly decrease within a component and are globally unique
        // (the link id participates), so this reproduces the exact pick
        // order of the global greedy (see the module docs).
        suspects.sort_by(|a, b| {
            b.explained_losses
                .cmp(&a.explained_losses)
                .then_with(|| b.hit_ratio.total_cmp(&a.hit_ratio))
                .then_with(|| a.link.cmp(&b.link))
        });
        unexplained.sort_unstable();
        let unexplained_paths = unexplained
            .iter()
            .filter_map(|&oi| self.obs.get(oi as usize).map(|o| o.path))
            .collect();
        self.verdict = Diagnosis {
            suspects,
            unexplained_paths,
        };
        self.verdict.clone()
    }
}

fn find(parent: &mut [u32], x: u32) -> u32 {
    let mut root = x;
    while let Some(&p) = parent.get(root as usize) {
        if p == root {
            break;
        }
        root = p;
    }
    // Path compression.
    let mut cur = x;
    while cur != root {
        let Some(slot) = parent.get_mut(cur as usize) else {
            break;
        };
        let next = *slot;
        *slot = root;
        cur = next;
    }
    root
}

fn union(parent: &mut [u32], a: u32, b: u32) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra == rb {
        return;
    }
    // Deterministic: the smaller index becomes the root.
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    if let Some(slot) = parent.get_mut(hi as usize) {
        *slot = lo;
    }
}

#[cfg(test)]
mod tests {
    use super::super::localize;
    use super::*;
    use crate::types::{PathId, ProbePath};
    use proptest::prelude::*;

    /// Two disjoint 2-link islands plus a stray single-link path:
    /// p0,p1 ∈ {0,1}; p2,p3 ∈ {2,3}; p4 = {4}.
    fn matrix() -> ProbeMatrix {
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0)]),
            ProbePath::from_links(2, vec![LinkId(2), LinkId(3)]),
            ProbePath::from_links(3, vec![LinkId(3)]),
            ProbePath::from_links(4, vec![LinkId(4)]),
        ];
        ProbeMatrix::from_paths(5, paths)
    }

    fn obs(rows: &[(u32, u64, u64)]) -> Vec<PathObservation> {
        rows.iter()
            .map(|&(p, s, l)| PathObservation::new(PathId(p), s, l))
            .collect()
    }

    fn pll() -> ComponentPll {
        ComponentPll::new(PllConfig::default())
    }

    #[test]
    fn partition_splits_disjoint_islands() {
        // Only the lossy incidence partitions: island {0,1} fails alone
        // and is the window's single component — the clean island and the
        // clean stray path induce none.
        let m = matrix();
        let mut c = pll();
        let w = obs(&[
            (0, 100, 100),
            (1, 100, 100),
            (2, 100, 0),
            (3, 100, 0),
            (4, 100, 0),
        ]);
        let d = c.localize(&m, &w);
        assert_eq!(c.window_shape(), (2, 1));
        assert_eq!(d, localize(&m, &w, &PllConfig::default()));
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
        // All three islands lossy: three components.
        let w = obs(&[(0, 100, 40), (2, 100, 40), (4, 100, 40)]);
        assert_eq!(c.localize(&m, &w), localize(&m, &w, &PllConfig::default()));
        assert_eq!(c.window_shape(), (3, 3));
    }

    #[test]
    fn multi_component_failures_merge_in_global_greedy_order() {
        // Both islands fail: island {2,3} explains more losses, so the
        // global greedy blames link 3 before link 0; concatenation by
        // component id would invert them.
        let m = matrix();
        let cfg = PllConfig::default();
        let w = obs(&[
            (0, 100, 40),
            (1, 100, 40),
            (2, 100, 90),
            (3, 100, 90),
            (4, 100, 0),
        ]);
        let seq = localize(&m, &w, &cfg);
        assert_eq!(
            seq.suspects.iter().map(|s| s.link).collect::<Vec<_>>(),
            vec![LinkId(3), LinkId(0)]
        );
        assert_eq!(pll().localize(&m, &w), seq);

        // A tie on explained losses across components falls to the hit
        // ratio before the link id: link 5 (80 lost, hit ratio 1) goes
        // ahead of link 0 (40 + 40 lost, hit ratio 2/3).
        let m = ProbeMatrix::from_paths(
            6,
            vec![
                ProbePath::from_links(0, vec![LinkId(0)]),
                ProbePath::from_links(1, vec![LinkId(0)]),
                ProbePath::from_links(2, vec![LinkId(0)]),
                ProbePath::from_links(3, vec![LinkId(5)]),
            ],
        );
        let w = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 0), (3, 100, 80)]);
        let seq = localize(&m, &w, &cfg);
        assert_eq!(
            seq.suspects.iter().map(|s| s.link).collect::<Vec<_>>(),
            vec![LinkId(5), LinkId(0)]
        );
        assert_eq!(pll().localize(&m, &w), seq);
    }

    #[test]
    fn all_healthy_window_short_circuits_without_invalidating() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut c = pll();
        let lossy = obs(&[(0, 100, 100), (1, 100, 100), (2, 100, 0)]);
        let clean = obs(&[(0, 100, 0), (1, 100, 0), (2, 100, 0)]);
        c.localize(&m, &lossy);
        // No candidate link, so no denominator is read.
        let d = c.diagnose(&m, clean.clone(), &|_| 0);
        assert!(d.is_clean());
        assert_eq!(d, localize(&m, &clean, &cfg));
        assert_eq!(c.window_shape(), (0, 0));
        // The lossy set changed, so the clean window rebuilt (to an empty
        // partition); every later clean window has the same empty lossy
        // set, whatever its clean counters, and reuses the verdict.
        assert_eq!(c.full_rebuilds(), 2);
        let clean2 = obs(&[(0, 90, 0), (1, 100, 0), (2, 100, 0)]);
        assert!(c.localize(&m, &clean2).is_clean());
        assert!(c.localize(&m, &clean2).is_clean());
        assert_eq!(
            (c.full_rebuilds(), c.reused_skeletons(), c.reused_verdicts()),
            (2, 0, 2)
        );
    }

    #[test]
    fn unresolvable_lossy_paths_stay_unexplained() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut c = pll();
        let w = obs(&[(0, 100, 100), (1, 100, 100), (99, 100, 100)]);
        let d = c.localize(&m, &w);
        assert_eq!(d, localize(&m, &w, &cfg));
        assert_eq!(d.unexplained_paths, vec![PathId(99)]);
        // Lossy, but outside every component.
        assert_eq!(c.window_shape(), (3, 1));
        let stray = obs(&[(99, 100, 40)]);
        assert_eq!(c.localize(&m, &stray), localize(&m, &stray, &cfg));
        assert_eq!(c.window_shape(), (1, 0));
    }

    #[test]
    fn invalidate_forces_a_rebuild_with_the_new_partition() {
        // The same observations against a matrix where a new path
        // bridges the two islands: after invalidate the partition must
        // merge to a single component.
        let cfg = PllConfig::default();
        let mut c = pll();
        let w = obs(&[(0, 100, 100), (1, 100, 100), (2, 100, 40), (3, 100, 40)]);
        c.localize(&matrix(), &w);
        assert_eq!(c.window_shape(), (4, 2));

        let bridged = ProbeMatrix::from_paths(
            5,
            vec![
                ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
                ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
                ProbePath::from_links(2, vec![LinkId(2), LinkId(3)]),
                ProbePath::from_links(3, vec![LinkId(3)]),
            ],
        );
        c.invalidate();
        assert_eq!(c.window_shape(), (0, 0));
        let d = c.localize(&bridged, &w);
        assert_eq!(c.window_shape(), (4, 1));
        assert_eq!(c.full_rebuilds(), 2);
        assert_eq!(c.reused_verdicts(), 0);
        assert_eq!(d, localize(&bridged, &w, &cfg));
    }

    #[test]
    fn same_key_swaps_counters_and_identical_window_reuses_the_verdict() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut c = pll();
        let w1 = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 90), (3, 100, 90)]);
        // Same ids and lossy flags, other counters — the merge order of
        // the two islands flips with them.
        let w2 = obs(&[(0, 100, 90), (1, 100, 90), (2, 100, 40), (3, 100, 40)]);
        for w in [&w1, &w2, &w2, &w1] {
            assert_eq!(c.localize(&m, w), localize(&m, w, &cfg));
        }
        assert_eq!(
            (c.full_rebuilds(), c.reused_skeletons(), c.reused_verdicts()),
            (1, 2, 1)
        );
    }

    #[test]
    fn changed_key_triggers_a_rebuild() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut c = pll();
        let base = obs(&[(0, 100, 100), (1, 100, 100), (2, 100, 0)]);
        c.localize(&m, &base);
        // A clean path off every candidate link drops out of the window
        // (e.g. its pinger went down) and comes back: the key holds. A
        // lossy path turns clean, and back: two rebuilds.
        let fewer = obs(&[(0, 100, 100), (1, 100, 100)]);
        let flipped = obs(&[(0, 100, 100), (1, 100, 0), (2, 100, 0)]);
        for w in [&fewer, &base, &flipped, &base] {
            assert_eq!(c.localize(&m, w), localize(&m, w, &cfg));
        }
        assert_eq!(
            (c.full_rebuilds(), c.reused_skeletons(), c.reused_verdicts()),
            (3, 0, 2)
        );
    }

    /// Links 0 and 1; link 0 carries three paths, link 1 one.
    fn fan() -> ProbeMatrix {
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0)]),
            ProbePath::from_links(1, vec![LinkId(0)]),
            ProbePath::from_links(2, vec![LinkId(0)]),
            ProbePath::from_links(3, vec![LinkId(1)]),
        ];
        ProbeMatrix::from_paths(2, paths)
    }

    #[test]
    fn an_unobserved_clean_path_through_a_candidate_link_rebuilds() {
        // The lossy set stays {0, 1}, but clean path 2 through candidate
        // link 0 goes unobserved: link 0's hit ratio goes 2/3 → 1.
        let m = fan();
        let cfg = PllConfig::default();
        let mut c = pll();
        let seen = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 0), (3, 100, 0)]);
        let unseen = obs(&[(0, 100, 40), (1, 100, 40), (3, 100, 0)]);
        let before = c.localize(&m, &seen);
        let after = c.localize(&m, &unseen);
        assert_eq!(before, localize(&m, &seen, &cfg));
        assert_eq!(after, localize(&m, &unseen, &cfg));
        assert_eq!(c.full_rebuilds(), 2);
        let hit = |d: &Diagnosis| d.suspects.iter().map(|s| s.hit_ratio).collect::<Vec<_>>();
        assert_eq!((hit(&before), hit(&after)), (vec![2.0 / 3.0], vec![1.0]));
    }

    #[test]
    fn a_clean_paths_counters_leave_the_verdict_as_it_was() {
        // Clean path 2 crosses candidate link 0; its counters, and clean
        // path 3's, change between the windows.
        let m = fan();
        let cfg = PllConfig::default();
        let mut c = pll();
        let w1 = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 0), (3, 100, 0)]);
        let w2 = obs(&[(0, 100, 40), (1, 100, 40), (2, 70, 0), (3, 90, 0)]);
        for w in [&w1, &w2] {
            assert_eq!(c.localize(&m, w), localize(&m, w, &cfg));
        }
        assert_eq!(
            (c.full_rebuilds(), c.reused_skeletons(), c.reused_verdicts()),
            (1, 0, 1)
        );
    }

    #[test]
    fn a_clean_path_off_every_candidate_link_comes_and_goes_unnoticed() {
        // Path 3 crosses only link 1, which no lossy path crosses.
        let m = fan();
        let cfg = PllConfig::default();
        let mut c = pll();
        let with = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 0), (3, 100, 0)]);
        let without = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 0)]);
        for w in [&with, &without, &with] {
            assert_eq!(c.localize(&m, w), localize(&m, w, &cfg));
        }
        assert_eq!(
            (c.full_rebuilds(), c.reused_skeletons(), c.reused_verdicts()),
            (1, 0, 2)
        );
    }

    #[test]
    fn noise_normalized_windows_stay_equivalent() {
        // The reuse key is taken after pre-processing: losses below the
        // noise thresholds are clean for the key, the partition and the
        // hit ratios alike.
        let m = matrix();
        let cfg = PllConfig {
            min_loss_count: 3,
            ..PllConfig::default()
        };
        let mut c = ComponentPll::new(cfg);
        let w1 = obs(&[(0, 100, 100), (1, 100, 100), (2, 100, 2), (3, 100, 0)]);
        let w2 = obs(&[(0, 100, 90), (1, 100, 80), (2, 100, 0), (3, 100, 1)]);
        let w3 = obs(&[(0, 100, 2), (1, 100, 1), (2, 100, 0), (3, 100, 0)]);
        for w in [&w1, &w2, &w3] {
            assert_eq!(c.localize(&m, w), localize(&m, w, &cfg));
        }
        assert_eq!((c.full_rebuilds(), c.reused_skeletons()), (2, 1));
        assert_eq!(c.window_shape(), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random 12-link topologies under multi-window biased-random
        /// loss: component-decomposed localization matches the plain
        /// whole-window oracle, with skeleton reuse across the windows of
        /// one run, and reports the lossy incidence's shape.
        #[test]
        fn matches_localize_across_windows(
            paths in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..4), 4..12),
            windows in proptest::collection::vec(proptest::collection::vec(0u64..3, 4..12), 1..5),
        ) {
            let probe_paths: Vec<ProbePath> = paths
                .iter()
                .enumerate()
                .map(|(i, ls)| {
                    let mut ls: Vec<LinkId> = ls.iter().map(|&l| LinkId(l)).collect();
                    ls.sort_unstable();
                    ls.dedup();
                    ProbePath::from_links(i as u32, ls)
                })
                .collect();
            let m = ProbeMatrix::from_paths(12, probe_paths);
            let cfg = PllConfig::default();
            let mut c = ComponentPll::new(cfg);
            for w in &windows {
                let window: Vec<PathObservation> = w
                    .iter()
                    .take(paths.len())
                    .enumerate()
                    .map(|(i, &sev)| PathObservation::new(PathId(i as u32), 100, sev * 40))
                    .collect();
                let got = c.localize(&m, &window);
                let seq = localize(&m, &window, &cfg);
                prop_assert_eq!(got, seq);
                let lossy = window.iter().filter(|o| o.is_lossy()).count() as u64;
                prop_assert_eq!(c.window_shape().0, lossy);
            }
        }
    }
}
