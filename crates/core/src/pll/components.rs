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
//! So the localizer reads only the lossy observations, and beside them a
//! [`LossyIncidence`] that the diagnoser's window walk hands over: each
//! lossy path's matrix row, the matrix's row → links incidence as one
//! flat array, and every link's hit-ratio denominator — the plan's rows
//! through the link minus the rows the window left unobserved — under a
//! generation that moves only when that set of unobserved rows does. The
//! localizer never resolves a path id in the matrix.
//!
//! [`ComponentPll`] caches the skeleton (link → lossy-paths index,
//! component partition, per-component candidate links with their hit
//! ratios) under the reuse key **(lossy path ids, generation)**: a window
//! with the same key as its predecessor only swaps the loss counters in —
//! and returns the cached verdict outright when the lossy observations
//! are identical too — so it costs the lossy paths, not a denominator per
//! candidate link. Clean paths' counters never move the verdict and are
//! not part of the key. Any other window, and the first one after
//! [`invalidate`](ComponentPll::invalidate) (new probe matrix: plan epoch
//! change, cycle refresh), rebuilds the skeleton.
//!
//! # What a rebuild costs
//!
//! A rebuild costs the lossy incidence — lossy observations times the
//! links they name — not the fabric. Each lossy path's links are read at
//! its row's offset into the flat row → links array, with no pointer
//! chased into the path's own list, and numbered locally, in order of
//! first naming, through a link → local-id map that spans the fabric but
//! is kept across windows and reset only where the rebuild wrote.
//! Everything after that (the link → lossy-paths index, the union-find,
//! the partition, the denominators read off the view) is sized to the
//! candidate links. Each component's hit list and scope are runs in two
//! flat arrays, and every array of the skeleton and of the greedies'
//! scratch keeps its memory across rebuilds and across `invalidate`, so a
//! window with more components does not allocate more.
//!
//! # Why the lazy pick is exact
//!
//! Each component's greedy picks through a max-queue keyed by the
//! greedy's selection key `(explained_losses, hit_ratio,
//! smaller-link-wins)`, seeded with every eligible link's score before
//! the first pick — the laziness of §4.3 Observation 2 that
//! [`pmc`](crate::pmc)'s lazy greedy applies to PMC. A link's score
//! counts the losses of its still-unexplained paths, so it only falls as
//! picks explain paths, and a queued key is an upper bound on the link's
//! current key. The popped top is rescored: if its score still equals its
//! key, its current key is at least every other queued key and so at
//! least every other link's current key — the pick the full rescan of
//! [`localize`](super::localize) makes. Otherwise it goes back with its
//! current score, or out once nothing is left for it to explain.
//!
//! # Why the merged cover equals the global greedy
//!
//! Component subproblems are *independent*: a link's hit ratio is a
//! per-window constant (explanation never rewrites observations), a
//! link's score only ever counts lossy observations — all of which sit in
//! the link's own component — and a pick in one component cannot change
//! scores in another (they share no lossy paths). Within one component
//! the global greedy's picks form a strictly decreasing sequence of
//! selection keys — each pick only lowers the remaining candidates'
//! scores — and the key is recorded verbatim on every [`SuspectLink`].
//! The global greedy is therefore exactly the descending merge of the
//! per-component pick sequences, and since keys are globally unique (the
//! link id participates), merging reduces to sorting the concatenated
//! suspects by key. The same holds for unexplained paths: each lossy
//! observation belongs to exactly one component (or to none, when its
//! path id does not resolve in the matrix — then nothing can ever
//! explain it), so the global unexplained list is the index-ordered union
//! of the per-component leftovers and those stray observations.
//!
//! The plain whole-window greedy behind [`localize`](super::localize)
//! stays as the oracle: the result is bit-identical to it —
//! property-tested in this module, over the `Diagnoser` API in
//! `tests/diagnoser_oracle.rs`, and end-to-end (results + full ordered
//! event streams) in `tests/scheduler_equivalence.rs` and
//! `tests/distributed_equivalence.rs`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use super::pll_impl::{index_links, rows_of, Diagnosis, SuspectLink};
use super::preprocess::stays_lossy;
use super::rate::pooled_rate;
use super::{preprocess, PllConfig};
use crate::pmc::{ProbeMatrix, RowLinks};
use crate::types::{LinkId, PathObservation};

/// Sentinel for a missing local link id or component.
const NONE: u32 = u32::MAX;

/// Runs of `u32` items, one per key, back to back in one array: run `k`
/// is `items[offsets[k]..offsets[k + 1]]`. Refilled in place, so a
/// rebuild reuses the memory of the last one.
#[derive(Debug, Default)]
struct Runs {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Runs {
    /// Empties to no runs.
    fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.items.clear();
    }

    /// Appends one run.
    fn push_run(&mut self, items: impl Iterator<Item = u32>) {
        self.items.extend(items);
        self.offsets.push(self.items.len() as u32);
    }

    /// Refills with `keys` runs from the `(key, item)` pairs `entries`
    /// yields: a key's run lists its items in `entries`' order.
    /// `entries` is called twice — once to count, once to fill — and
    /// must yield the same pairs both times, every key below `keys`.
    fn refill<I>(&mut self, keys: usize, entries: impl Fn() -> I)
    where
        I: Iterator<Item = (u32, u32)>,
    {
        // As `LinkIndex::build`: shifted by two, `offsets[k + 2]` counts
        // key `k`'s items, and after the running sum `offsets[k + 1]` is
        // the cursor that fills its run.
        self.offsets.clear();
        self.offsets.resize(keys + 2, 0);
        for (k, _) in entries() {
            if let Some(count) = self.offsets.get_mut(k as usize + 2) {
                *count += 1;
            }
        }
        let mut total = 0;
        for o in &mut self.offsets {
            total += *o;
            *o = total;
        }
        self.items.clear();
        self.items.resize(total as usize, 0);
        for (k, item) in entries() {
            let Some(cursor) = self.offsets.get_mut(k as usize + 1) else {
                continue;
            };
            if let Some(slot) = self.items.get_mut(*cursor as usize) {
                *slot = item;
            }
            *cursor += 1;
        }
        self.offsets.pop();
    }

    /// Number of runs.
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Run `k`; empty past the last.
    fn run(&self, k: usize) -> &[u32] {
        match self.offsets.get(k..k + 2) {
            Some(&[from, to]) => (self.items.get(from as usize..to as usize)).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Every run, in key order.
    fn runs(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|k| self.run(k))
    }
}

/// What the diagnoser's window walk hands [`ComponentPll::diagnose`]
/// beside a window's lossy observations: where each one's links are, and
/// every link's hit-ratio denominator, under a generation.
#[derive(Clone, Copy, Debug)]
pub struct LossyIncidence<'a> {
    /// Per lossy observation, in order: its path's row of `row_links`,
    /// or [`STRAY`](Self::STRAY) where the matrix cannot resolve its id.
    pub rows: &'a [u32],
    /// The probe matrix's row → links incidence.
    pub row_links: &'a RowLinks,
    /// Link → the window's observations with a probe sent whose path
    /// crosses it, once per naming — clean, noisy and lossy alike: the
    /// hit ratio's denominator. Links past the end count none.
    pub observed: &'a [u32],
    /// Moves whenever `observed` may have: two windows of one matrix with
    /// the same generation have the same denominators.
    pub generation: u64,
}

impl LossyIncidence<'_> {
    /// The row of an observation the matrix cannot resolve: past every
    /// row, so it names no link.
    pub const STRAY: u32 = u32::MAX;
}

/// Everything windows with the same reuse key share. Links are numbered
/// locally: local link `i` is `links[i]`.
#[derive(Debug, Default)]
struct Skeleton {
    /// Whether the fields below describe the latest window: false before
    /// the first window and after [`invalidate`](ComponentPll::invalidate).
    valid: bool,
    /// The generation of the denominators the skeleton was built with:
    /// the half of the reuse key the lossy path ids do not fix.
    generation: u64,
    /// Local link → link: the candidate links, in order of first naming
    /// by the lossy observations.
    links: Vec<LinkId>,
    /// Local link → hit-ratio denominator.
    denominators: Vec<u32>,
    /// Local link → hit ratio.
    hit: Vec<f64>,
    /// Local link → indices into the lossy observations, ascending, once
    /// per naming (the lengths are the hit-ratio numerators).
    link_paths: Runs,
    /// Component → its local links (its hit list), ascending. Components
    /// are in order of their smallest local link.
    comp_links: Runs,
    /// Component → its lossy observation indices (its scope), ascending.
    comp_scope: Runs,
    /// Lossy observations outside every component (path id does not
    /// resolve in the matrix, or the path covers no links), ascending:
    /// unexplainable.
    stray: Vec<u32>,
}

/// What a rebuild and the greedies work in, kept between windows.
#[derive(Debug, Default)]
struct Scratch {
    /// Lossy observation → its matrix row, as the noise filter left them.
    rows: Vec<u32>,
    /// Link → local id; [`NONE`] everywhere between rebuilds. Spans the
    /// largest link a lossy path has named.
    local_of: Vec<u32>,
    /// Lossy observation → its local links.
    path_links: Runs,
    /// Union-find parents over local links, then each link's component.
    parent: Vec<u32>,
    /// Lossy observation → not yet explained; all false between greedies.
    unexplained: Vec<bool>,
    /// The greedy's lazy queue.
    queue: BinaryHeap<Pick>,
    /// The window's unexplained observation indices.
    left: Vec<u32>,
}

impl Skeleton {
    /// Rebuilds from the rows of a window's lossy observations
    /// (`scratch.rows`) and the `view` they index.
    fn rebuild(&mut self, scratch: &mut Scratch, view: &LossyIncidence<'_>) {
        let Scratch {
            rows,
            local_of,
            path_links,
            parent,
            ..
        } = scratch;
        self.valid = true;
        self.generation = view.generation;
        self.links.clear();
        self.stray.clear();
        path_links.clear();
        parent.clear();
        for (oi, &row) in rows.iter().enumerate() {
            let links = view.row_links.links(row);
            if links.is_empty() {
                self.stray.push(oi as u32);
            }
            let local = links.iter().map(|&l| {
                if l.index() >= local_of.len() {
                    local_of.resize(l.index() + 1, NONE);
                }
                let Some(slot) = local_of.get_mut(l.index()) else {
                    return NONE;
                };
                if *slot == NONE {
                    *slot = self.links.len() as u32;
                    self.links.push(l);
                    parent.push(*slot);
                }
                *slot
            });
            path_links.push_run(local);
            // A union-find over local links in which every lossy path is
            // one clique. The smaller index becomes the root, so a
            // component's root is its smallest local link.
            let Some((&first, rest)) = path_links.run(oi).split_first() else {
                continue;
            };
            let mut root = find(parent, first);
            for &li in rest {
                let other = find(parent, li);
                let (lo, hi) = (root.min(other), root.max(other));
                if let Some(slot) = parent.get_mut(hi as usize) {
                    *slot = lo;
                }
                root = lo;
            }
        }
        for l in &self.links {
            if let Some(slot) = local_of.get_mut(l.index()) {
                *slot = NONE;
            }
        }

        let n = self.links.len();
        let namings = || {
            (path_links.runs().enumerate())
                .flat_map(|(oi, run)| run.iter().map(move |&li| (li, oi as u32)))
        };
        self.link_paths.refill(n, namings);
        self.denominators.clear();
        self.hit.clear();
        for (&l, paths) in self.links.iter().zip(self.link_paths.runs()) {
            let observed = view.observed.get(l.index()).copied().unwrap_or(0);
            self.denominators.push(observed);
            self.hit.push(paths.len() as f64 / f64::from(observed));
        }

        // Parents only ever point down, so one ascending pass turns every
        // link's parent into its component: a root opens the next one (in
        // order of smallest local link), and any other link's parent has
        // already been turned into theirs.
        let mut comps: u32 = 0;
        for li in 0..n {
            let comp = match parent.get(li).copied() {
                Some(p) if p as usize == li => {
                    comps += 1;
                    comps - 1
                }
                Some(p) => parent.get(p as usize).copied().unwrap_or(NONE),
                None => NONE,
            };
            if let Some(slot) = parent.get_mut(li) {
                *slot = comp;
            }
        }
        let comp = |li: u32| parent.get(li as usize).copied().unwrap_or(NONE);
        (self.comp_links).refill(comps as usize, || (0..n as u32).map(|li| (comp(li), li)));
        let anchored = || {
            (path_links.runs().enumerate())
                .filter_map(|(oi, run)| Some((comp(*run.first()?), oi as u32)))
        };
        self.comp_scope.refill(comps as usize, anchored);
    }

    /// Runs component `comp`'s greedy over the lossy `obs`: appends its
    /// suspects in pick order to `suspects` and the indices of its scope's
    /// observations it left unexplained to `scratch.left`.
    fn greedy(
        &self,
        comp: usize,
        obs: &[PathObservation],
        cfg: &PllConfig,
        scratch: &mut Scratch,
        suspects: &mut Vec<SuspectLink>,
    ) {
        let Scratch {
            unexplained,
            queue,
            left,
            ..
        } = scratch;
        let scope = self.comp_scope.run(comp);
        let mut remaining: u64 = 0;
        for &oi in scope {
            if let (Some(o), Some(u)) = (obs.get(oi as usize), unexplained.get_mut(oi as usize)) {
                *u = o.is_lossy();
                remaining += o.lost;
            }
        }
        // Step 3's score: lost packets link `li` could still explain.
        let score = |unexplained: &[bool], li: u32| -> u64 {
            (self.link_paths.run(li as usize).iter())
                .filter(|&&oi| unexplained.get(oi as usize).copied().unwrap_or(false))
                .filter_map(|&oi| obs.get(oi as usize).map(|o| o.lost))
                .sum()
        };
        queue.clear();
        for &li in self.comp_links.run(comp) {
            let (Some(&hit), Some(&link)) =
                (self.hit.get(li as usize), self.links.get(li as usize))
            else {
                continue;
            };
            // The hit ratio is an eligibility filter and tie-breaker.
            if hit < cfg.hit_ratio_threshold {
                continue;
            }
            let score = score(unexplained, li);
            if score > 0 {
                queue.push(Pick {
                    score,
                    hit,
                    link,
                    local: li,
                });
            }
        }

        while remaining > 0 {
            let Some(top) = queue.pop() else {
                break;
            };
            let score = score(unexplained, top.local);
            if score != top.score {
                if score > 0 {
                    queue.push(Pick { score, ..top });
                }
                continue;
            }

            // Step 4: blame the link and explain its lossy paths.
            let (mut explained_paths, mut sent, mut lost) = (0u32, 0u64, 0u64);
            for &oi in self.link_paths.run(top.local as usize) {
                let (Some(u), Some(o)) = (unexplained.get_mut(oi as usize), obs.get(oi as usize))
                else {
                    continue;
                };
                if *u {
                    *u = false;
                    explained_paths += 1;
                    remaining -= o.lost;
                    sent += o.sent;
                    lost += o.lost;
                }
            }
            suspects.push(SuspectLink {
                link: top.link,
                estimated_loss_rate: pooled_rate(sent, lost),
                hit_ratio: top.hit,
                explained_paths,
                explained_losses: score,
            });
        }

        for &oi in scope {
            if let Some(u) = unexplained.get_mut(oi as usize) {
                if *u {
                    *u = false;
                    left.push(oi);
                }
            }
        }
    }
}

/// A queued candidate link of one component's greedy, ordered by the
/// selection key `(score, hit ratio, smaller link wins)` — `score` as of
/// when it was queued.
#[derive(Clone, Copy, Debug)]
struct Pick {
    score: u64,
    hit: f64,
    link: LinkId,
    local: u32,
}

impl Ord for Pick {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.score.cmp(&other.score))
            .then_with(|| self.hit.total_cmp(&other.hit))
            .then_with(|| other.link.cmp(&self.link))
    }
}

impl PartialOrd for Pick {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pick {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pick {}

/// Cached cross-window component-decomposed PLL state. One instance per
/// diagnoser; feed it every window in order and
/// [`invalidate`](ComponentPll::invalidate) it on matrix changes.
#[derive(Debug)]
pub struct ComponentPll {
    cfg: PllConfig,
    /// The cached skeleton.
    skeleton: Skeleton,
    scratch: Scratch,
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
            skeleton: Skeleton::default(),
            scratch: Scratch::default(),
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
        self.skeleton.valid = false;
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
        let s = &self.skeleton;
        if !s.valid {
            return (0, 0);
        }
        let lossy = s.stray.len() + s.comp_scope.items.len();
        (lossy as u64, s.comp_scope.len() as u64)
    }

    /// Localizes one whole window: builds the [`LossyIncidence`] the
    /// diagnoser's walk would hand over — each link's observed paths
    /// counted from `observations` themselves, what
    /// [`localize`](super::localize) indexes — then
    /// [`diagnose`](ComponentPll::diagnose)s the lossy ones. Produces
    /// exactly what `localize` would for the same inputs.
    ///
    /// With no walk to keep a generation, a candidate link whose
    /// denominator moved invalidates the skeleton, and the skeleton's own
    /// generation is handed back. Feed one instance through this or
    /// through `diagnose`, not both.
    pub fn localize(
        &mut self,
        matrix: &ProbeMatrix,
        observations: &[PathObservation],
    ) -> Diagnosis {
        let observed = preprocess(observations, &self.cfg, &HashSet::new());
        let index = index_links(matrix, &observed);
        let through: Vec<u32> = index.runs().map(|run| run.len() as u32).collect();
        let lossy: Vec<PathObservation> = observed
            .into_iter()
            .filter(PathObservation::is_lossy)
            .collect();
        let s = &self.skeleton;
        let moved = |(l, &n): (&LinkId, &u32)| through.get(l.index()).copied() != Some(n);
        if s.links.iter().zip(&s.denominators).any(moved) {
            self.invalidate();
        }
        let view = LossyIncidence {
            rows: &rows_of(matrix, &lossy),
            row_links: &matrix.row_links(),
            observed: &through,
            generation: self.skeleton.generation,
        };
        self.diagnose(lossy, view)
    }

    /// Diagnoses one window: noise-filters its `lossy` observations in
    /// place, reuses or rebuilds the cached skeleton, runs each
    /// component's greedy in turn and merges their suspects into the
    /// global pick order — or returns the cached verdict outright when
    /// the window repeats its predecessor.
    ///
    /// `lossy` lists the window's observations with a probe lost, in the
    /// window's order (ascending path id); clean ones may be left out, and
    /// whatever the noise filter zeroes is dropped. `view.rows` runs
    /// parallel to `lossy`. The reuse key is the lossy path ids and
    /// `view.generation`: nothing is resolved in the matrix and no
    /// denominator is read unless the skeleton is rebuilt.
    pub fn diagnose(
        &mut self,
        mut lossy: Vec<PathObservation>,
        view: LossyIncidence<'_>,
    ) -> Diagnosis {
        // The rows go through the noise filter with their observations.
        let (cfg, rows) = (&self.cfg, &mut self.scratch.rows);
        let mut given = view.rows.iter();
        rows.clear();
        lossy.retain(|o| {
            let row = given.next().copied().unwrap_or(LossyIncidence::STRAY);
            let keep = stays_lossy(o, cfg);
            if keep {
                rows.push(row);
            }
            keep
        });
        let s = &self.skeleton;
        let same_key = s.valid
            && s.generation == view.generation
            && self.obs.len() == lossy.len()
            && self.obs.iter().zip(&lossy).all(|(p, o)| p.path == o.path);
        if !same_key {
            self.full_rebuilds += 1;
            (self.skeleton).rebuild(&mut self.scratch, &view);
        } else if self.obs == lossy {
            self.reused_verdicts += 1;
            return self.verdict.clone();
        } else {
            self.reused_skeletons += 1;
        }
        self.obs = lossy;

        // A window with no lossy observation that resolves to links (an
        // all-healthy one, typically) has no component: only the strays
        // are left unexplained.
        let Self {
            cfg,
            skeleton: s,
            scratch,
            obs,
            verdict,
            ..
        } = self;
        if scratch.unexplained.len() < obs.len() {
            scratch.unexplained.resize(obs.len(), false);
        }
        scratch.left.clear();
        scratch.left.extend_from_slice(&s.stray);
        let suspects = &mut verdict.suspects;
        suspects.clear();
        for comp in 0..s.comp_scope.len() {
            s.greedy(comp, obs, cfg, scratch, suspects);
        }
        // Merge = sort by the greedy's selection key, descending. Keys
        // strictly decrease within a component and are globally unique
        // (the link id participates), so this reproduces the exact pick
        // order of the global greedy (see the module docs).
        suspects.sort_unstable_by(|a, b| {
            b.explained_losses
                .cmp(&a.explained_losses)
                .then_with(|| b.hit_ratio.total_cmp(&a.hit_ratio))
                .then_with(|| a.link.cmp(&b.link))
        });
        scratch.left.sort_unstable();
        verdict.unexplained_paths.clear();
        (verdict.unexplained_paths)
            .extend((scratch.left.iter()).filter_map(|&oi| obs.get(oi as usize).map(|o| o.path)));
        verdict.clone()
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
        let none = RowLinks::default();
        let view = LossyIncidence {
            rows: &[],
            row_links: &none,
            observed: &[],
            generation: 0,
        };
        let d = c.diagnose(clean.clone(), view);
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

        /// Ties and long pick sequences for the lazy queue: every lossy
        /// path loses 40 probes, so explained losses tie everywhere and
        /// the hit ratio and the link id decide; paths also name links
        /// past `num_links`, and observations name ids the matrix cannot
        /// resolve. Each window is diagnosed three times — as generated
        /// (a rebuild when its lossy set moved), again (verdict reuse),
        /// and with its lossy paths' sent counters doubled (skeleton
        /// reuse) — and every verdict equals `localize` bit for bit.
        #[test]
        fn lazy_picks_match_localize_under_ties(
            paths in proptest::collection::vec(proptest::collection::vec(0u32..56, 1..6), 8..49),
            windows in proptest::collection::vec(
                proptest::collection::vec((0u64..2).prop_map(|lossy| lossy * 40), 8..53),
                1..6,
            ),
        ) {
            let probe_paths: Vec<ProbePath> = (paths.iter().enumerate())
                .map(|(i, ls)| ProbePath::from_links(i as u32, ls.iter().map(|&l| LinkId(l)).collect()))
                .collect();
            let m = ProbeMatrix::from_paths(48, probe_paths);
            let cfg = PllConfig::default();
            let mut c = ComponentPll::new(cfg);
            let mut calls = 0;
            for w in &windows {
                // Observation `i` is of path `i`: past the matrix's last
                // path, an id it cannot resolve.
                let window = |sent_lossy: u64| -> Vec<PathObservation> {
                    (w.iter().enumerate())
                        .map(|(i, &lost)| {
                            let sent = if lost > 0 { sent_lossy } else { 100 };
                            PathObservation::new(PathId(i as u32), sent, lost)
                        })
                        .collect()
                };
                for window in [window(100), window(100), window(200)] {
                    let got = c.localize(&m, &window);
                    prop_assert_eq!(got, localize(&m, &window, &cfg));
                    let lossy = window.iter().filter(|o| o.is_lossy()).count() as u64;
                    prop_assert_eq!(c.window_shape().0, lossy);
                    calls += 1;
                }
            }
            let (rebuilt, skeletons, verdicts) =
                (c.full_rebuilds(), c.reused_skeletons(), c.reused_verdicts());
            prop_assert_eq!(rebuilt + skeletons + verdicts, calls);
            prop_assert!(rebuilt >= 1 && verdicts >= windows.len() as u64);
            let any_lossy = windows.iter().any(|w| w.iter().any(|&l| l > 0));
            prop_assert_eq!(skeletons >= 1, any_lossy);
        }
    }
}
