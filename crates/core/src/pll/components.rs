//! Component-decomposed PLL — the diagnoser's localizer: Observation 1 of
//! §4.3 applied to the localization stage (§5).
//!
//! The *lossy* path/link incidence of one observed window — the lossy
//! observations and the links they cross — splits into connected
//! components; losses in one component can only be explained by that
//! component's links, so the greedy cover decomposes into independent
//! per-component covers: [`ComponentJob`]s that run inline or in parallel
//! on a [`JobPool`]. Clean observations take no part in the partition —
//! they only enter through the hit-ratio denominators, which are static
//! per window — so the components are exactly the window's independent
//! localization subproblems, one job each.
//!
//! [`ComponentPll`] caches the skeleton (link→paths index, component
//! partition, per-component candidate links with their hit ratios) under
//! the reuse key **(observed path ids, lossy flags)**: a window with the
//! same key as its predecessor only swaps the loss counters in — and
//! returns the cached verdict outright when the counters are identical
//! too. Any other window, and the first one after
//! [`invalidate`](ComponentPll::invalidate) (new probe matrix: plan epoch
//! change, cycle refresh), rebuilds the skeleton from scratch.
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
use std::sync::Arc;

use super::pll_impl::{greedy_scoped, index_links, Diagnosis, GreedyOutcome, SuspectLink};
use super::{preprocess, PllConfig};
use crate::pmc::{JobPool, LinkIndex, ProbeMatrix};
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
/// rebuild and handed to every [`ComponentJob`] behind one `Arc`.
#[derive(Debug)]
struct Skeleton {
    cfg: PllConfig,
    /// The `num_links` of the matrix the skeleton was built against.
    universe: usize,
    /// Link → indices into the observation vector (lossy and clean: the
    /// lengths are the hit-ratio denominators).
    link_paths: LinkIndex,
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
    fn build(matrix: &ProbeMatrix, obs: &[PathObservation], cfg: PllConfig) -> Self {
        let link_paths = index_links(matrix, obs);

        // One pass over the lossy observations: per-link lossy counts
        // (hit-ratio numerators) and a union-find over link indices in
        // which every lossy path is one clique. The smaller index becomes
        // the root, so a component's root is its smallest link
        // (deterministic partition order, matching `pmc::decompose`).
        let num_links = link_paths.num_links();
        let mut lossy_count: Vec<u32> = vec![0; num_links];
        let mut parent: Vec<u32> = (0..num_links as u32).collect();
        let mut anchored: Vec<(u32, u32)> = Vec::new();
        let mut stray: Vec<u32> = Vec::new();
        for (oi, o) in obs.iter().enumerate().filter(|(_, o)| o.is_lossy()) {
            let links = matrix.path(o.path).map(|p| p.links()).unwrap_or_default();
            let Some((first, rest)) = links.split_first() else {
                stray.push(oi as u32);
                continue;
            };
            anchored.push((oi as u32, first.0));
            for l in links {
                if let Some(c) = lossy_count.get_mut(l.index()) {
                    *c += 1;
                }
            }
            for l in rest {
                union(&mut parent, first.0, l.0);
            }
        }

        // Candidate links in ascending order open their components in
        // ascending order of smallest link and fill each hit list sorted.
        let mut comp_of_root: Vec<u32> = vec![NO_COMP; num_links];
        let mut comps: Vec<Component> = Vec::new();
        for (li, (&lossy, paths)) in lossy_count.iter().zip(link_paths.runs()).enumerate() {
            if lossy == 0 {
                continue;
            }
            let root = find(&mut parent, li as u32);
            let Some(slot) = comp_of_root.get_mut(root as usize) else {
                continue;
            };
            if *slot == NO_COMP {
                *slot = comps.len() as u32;
                comps.push(Component::default());
            }
            if let Some(c) = comps.get_mut(*slot as usize) {
                c.hit
                    .push((LinkId(li as u32), lossy as f64 / paths.len() as f64));
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
            cfg,
            universe: matrix.num_links,
            link_paths,
            comps,
            stray,
        }
    }
}

/// One component's greedy cover as a self-contained, sendable work item:
/// run it on any thread (a [`JobPool`] worker, a scheduler's probe
/// worker, inline) and hand the [`ComponentVerdict`] back to
/// [`ComponentPll::complete`]. Jobs of one window share the skeleton and
/// the window's observations; a job itself is a component index.
#[derive(Clone, Debug)]
pub struct ComponentJob {
    skeleton: Arc<Skeleton>,
    obs: Arc<Vec<PathObservation>>,
    comp: usize,
}

impl ComponentJob {
    /// Runs the component's greedy cover. Pure: no shared mutable state,
    /// any order and thread.
    pub fn run(&self) -> ComponentVerdict {
        let s = &self.skeleton;
        match s.comps.get(self.comp) {
            Some(c) => ComponentVerdict(greedy_scoped(
                &self.obs,
                &s.link_paths,
                &c.hit,
                &s.cfg,
                &c.scope,
            )),
            None => ComponentVerdict::empty(),
        }
    }

    /// Runs every job on up to `workers` scoped threads — clamped to the
    /// host's cores, since the jobs are CPU-bound; `1` runs inline on the
    /// caller's thread — verdicts in job order.
    pub fn run_all(jobs: &[ComponentJob], workers: usize) -> Vec<ComponentVerdict> {
        JobPool::clamped(workers).run_indexed(jobs.len(), |i| {
            jobs.get(i)
                .map_or_else(ComponentVerdict::empty, ComponentJob::run)
        })
    }
}

/// The opaque result of one [`ComponentJob`]; collect every job's verdict
/// and feed them (any order) to [`ComponentPll::complete`].
#[derive(Debug)]
pub struct ComponentVerdict(GreedyOutcome);

impl ComponentVerdict {
    /// No suspects, nothing unexplained — the identity of the merge, for
    /// the structurally unreachable "no such job" slots.
    fn empty() -> Self {
        ComponentVerdict(GreedyOutcome {
            suspects: Vec::new(),
            unexplained: Vec::new(),
        })
    }
}

/// What [`ComponentPll::prepare`] decided about the window.
#[derive(Debug)]
pub enum ComponentPlan {
    /// The diagnosis is already final (cached verdict, or a window with
    /// no component to solve) — no jobs to run and no
    /// [`complete`](ComponentPll::complete) call due.
    Ready(Diagnosis),
    /// Per-component jobs to execute — concurrently or not — before
    /// handing every verdict to [`complete`](ComponentPll::complete).
    Fanout(Vec<ComponentJob>),
}

/// Cached cross-window component-decomposed PLL state. One instance per
/// diagnoser; feed it every window in order and
/// [`invalidate`](ComponentPll::invalidate) it on matrix changes.
#[derive(Debug)]
pub struct ComponentPll {
    cfg: PllConfig,
    /// The cached skeleton; `None` before the first window and after
    /// [`invalidate`](ComponentPll::invalidate).
    skeleton: Option<Arc<Skeleton>>,
    /// The latest window's pre-processed observations.
    obs: Arc<Vec<PathObservation>>,
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
            obs: Arc::default(),
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

    /// `(lossy_paths, components)` of the latest prepared window:
    /// observations that stay lossy after noise filtering (those whose
    /// path id does not resolve in the matrix included), and the
    /// connected components their links induce — the number of
    /// independent localization subproblems, one [`ComponentJob`] each.
    /// `(0, 0)` before the first window and after
    /// [`invalidate`](ComponentPll::invalidate).
    pub fn window_shape(&self) -> (u64, u64) {
        let Some(s) = &self.skeleton else {
            return (0, 0);
        };
        let lossy = s.stray.len() + s.comps.iter().map(|c| c.scope.len()).sum::<usize>();
        (lossy as u64, s.comps.len() as u64)
    }

    /// Localizes one window: [`prepare`](ComponentPll::prepare), every
    /// job on up to `workers` threads ([`ComponentJob::run_all`]),
    /// [`complete`](ComponentPll::complete). Produces exactly what
    /// [`localize`](super::localize) would for the same inputs, for any
    /// worker count.
    pub fn localize(
        &mut self,
        matrix: &ProbeMatrix,
        observations: &[PathObservation],
        workers: usize,
    ) -> Diagnosis {
        match self.prepare(matrix, observations) {
            ComponentPlan::Ready(d) => d,
            ComponentPlan::Fanout(jobs) => self.complete(ComponentJob::run_all(&jobs, workers)),
        }
    }

    /// Phase 1 of a window: preprocesses, reuses or rebuilds the cached
    /// skeleton, and either finishes outright ([`ComponentPlan::Ready`])
    /// or hands back the window's per-component jobs. Executing every job
    /// (any threads, any order) and passing the verdicts to
    /// [`complete`](ComponentPll::complete) finishes the window. Do not
    /// interleave another `prepare` before the matching `complete`.
    pub fn prepare(
        &mut self,
        matrix: &ProbeMatrix,
        observations: &[PathObservation],
    ) -> ComponentPlan {
        let obs = preprocess(observations, &self.cfg, &HashSet::new());
        let same_key = |prev: &[PathObservation]| {
            prev.len() == obs.len()
                && prev
                    .iter()
                    .zip(&obs)
                    .all(|(p, o)| p.path == o.path && p.is_lossy() == o.is_lossy())
        };
        let skeleton = match &self.skeleton {
            Some(s) if s.universe == matrix.num_links && same_key(&self.obs) => {
                if *self.obs == obs {
                    self.reused_verdicts += 1;
                    return ComponentPlan::Ready(self.verdict.clone());
                }
                self.reused_skeletons += 1;
                Arc::clone(s)
            }
            _ => {
                self.full_rebuilds += 1;
                let s = Arc::new(Skeleton::build(matrix, &obs, self.cfg));
                self.skeleton = Some(Arc::clone(&s));
                s
            }
        };
        self.obs = Arc::new(obs);

        // No lossy observation that resolves to links (an all-healthy
        // window, typically): nothing to solve.
        if skeleton.comps.is_empty() {
            return ComponentPlan::Ready(self.complete(Vec::new()));
        }
        ComponentPlan::Fanout(
            (0..skeleton.comps.len())
                .map(|comp| ComponentJob {
                    skeleton: Arc::clone(&skeleton),
                    obs: Arc::clone(&self.obs),
                    comp,
                })
                .collect(),
        )
    }

    /// Phase 2: merges every [`ComponentJob`]'s verdict of the preceding
    /// [`prepare`](ComponentPll::prepare) into the window's global
    /// diagnosis (order-insensitive — the merge sorts by the greedy's
    /// selection key) and caches it for the identical-window shortcut.
    pub fn complete(&mut self, outcomes: Vec<ComponentVerdict>) -> Diagnosis {
        let mut suspects: Vec<SuspectLink> = Vec::new();
        let mut unexplained: Vec<u32> = match &self.skeleton {
            Some(s) => s.stray.clone(),
            None => Vec::new(),
        };
        for ComponentVerdict(out) in outcomes {
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
        let d = c.localize(&m, &w, 4);
        assert_eq!(c.window_shape(), (2, 1));
        assert_eq!(d, localize(&m, &w, &PllConfig::default()));
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
        // All three islands lossy: three components.
        let w = obs(&[(0, 100, 40), (2, 100, 40), (4, 100, 40)]);
        assert_eq!(
            c.localize(&m, &w, 4),
            localize(&m, &w, &PllConfig::default())
        );
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
        for workers in [1, 2, 8] {
            assert_eq!(pll().localize(&m, &w, workers), seq);
        }

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
        assert_eq!(pll().localize(&m, &w, 1), seq);
    }

    #[test]
    fn all_healthy_window_short_circuits_without_invalidating() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut c = pll();
        let lossy = obs(&[(0, 100, 100), (1, 100, 100), (2, 100, 0)]);
        let clean = obs(&[(0, 100, 0), (1, 100, 0), (2, 100, 0)]);
        c.localize(&m, &lossy, 4);
        let ComponentPlan::Ready(d) = c.prepare(&m, &clean) else {
            panic!("an all-healthy window has no jobs to run");
        };
        assert!(d.is_clean());
        assert_eq!(d, localize(&m, &clean, &cfg));
        assert_eq!(c.window_shape(), (0, 0));
        // The lossy flags changed, so the clean window rebuilt (to an
        // empty partition); a second clean window with other counters
        // reuses that skeleton, a third identical one the verdict.
        assert_eq!(c.full_rebuilds(), 2);
        let clean2 = obs(&[(0, 90, 0), (1, 100, 0), (2, 100, 0)]);
        assert!(c.localize(&m, &clean2, 4).is_clean());
        assert!(c.localize(&m, &clean2, 4).is_clean());
        assert_eq!(
            (c.full_rebuilds(), c.reused_skeletons(), c.reused_verdicts()),
            (2, 1, 1)
        );
    }

    #[test]
    fn unresolvable_lossy_paths_stay_unexplained() {
        let m = matrix();
        let cfg = PllConfig::default();
        let mut c = pll();
        let w = obs(&[(0, 100, 100), (1, 100, 100), (99, 100, 100)]);
        let d = c.localize(&m, &w, 4);
        assert_eq!(d, localize(&m, &w, &cfg));
        assert_eq!(d.unexplained_paths, vec![PathId(99)]);
        // Lossy, but outside every component.
        assert_eq!(c.window_shape(), (3, 1));
        let stray = obs(&[(99, 100, 40)]);
        assert_eq!(c.localize(&m, &stray, 4), localize(&m, &stray, &cfg));
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
        c.localize(&matrix(), &w, 4);
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
        let d = c.localize(&bridged, &w, 4);
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
            assert_eq!(c.localize(&m, w, 1), localize(&m, w, &cfg));
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
        c.localize(&m, &base, 1);
        // A path drops out of the window (e.g. its pinger went down); a
        // lossy flag flips; the set comes back.
        let fewer = obs(&[(0, 100, 100), (1, 100, 100)]);
        let flipped = obs(&[(0, 100, 100), (1, 100, 0), (2, 100, 0)]);
        for w in [&fewer, &base, &flipped, &base] {
            assert_eq!(c.localize(&m, w, 1), localize(&m, w, &cfg));
        }
        assert_eq!(c.full_rebuilds(), 5);
        assert_eq!(c.reused_skeletons() + c.reused_verdicts(), 0);
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
            assert_eq!(c.localize(&m, w, 1), localize(&m, w, &cfg));
        }
        assert_eq!((c.full_rebuilds(), c.reused_skeletons()), (2, 1));
        assert_eq!(c.window_shape(), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random 12-link topologies under multi-window biased-random
        /// loss: component-decomposed localization matches the plain
        /// whole-window oracle for every worker count, with skeleton
        /// reuse across the windows of one run, and reports the lossy
        /// incidence's shape.
        #[test]
        fn matches_localize_across_windows_and_workers(
            paths in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..4), 4..12),
            windows in proptest::collection::vec(proptest::collection::vec(0u64..3, 4..12), 1..5),
            workers in 1usize..5,
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
                let par = c.localize(&m, &window, workers);
                let seq = localize(&m, &window, &cfg);
                prop_assert_eq!(par, seq);
                let lossy = window.iter().filter(|o| o.is_lossy()).count() as u64;
                prop_assert_eq!(c.window_shape().0, lossy);
            }
        }
    }
}
