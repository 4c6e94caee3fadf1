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
//! # What carries over from the last window
//!
//! [`ComponentPll`] keeps the last window's components: their lossy
//! observations, candidate links with hit ratios, and picks standing in
//! the verdict. Under an unchanged generation a window is diffed against
//! the last by lossy path id. A component is *changed* when it lost a
//! path, when an added path names one of its links, or when one of its
//! paths' counters moved. One whose paths are the same keeps its hit
//! ratios and only runs its greedy again; the other changed ones'
//! surviving paths and the added ones are partitioned afresh. Any other
//! component keeps its paths and shares no link with an added one, so it
//! is still a whole component, and its picks stand. A window that
//! repeats the last returns the last verdict (clean paths' counters never
//! move it). The first window, the first after
//! [`invalidate`](ComponentPll::invalidate) (a new probe matrix) and one
//! whose generation moved are this same step with every component
//! changed.
//!
//! # What an onset costs
//!
//! The diff, linear in the lossy paths, plus the changed components'
//! incidence — their observations times the links they name — not the
//! fabric. Those links are read at each row's offset into the flat row →
//! links array and numbered locally through a link → local-id map kept
//! across windows; the index and the union-find over them are sized to
//! them. A kept component is carried into the new window's arrays whole,
//! in one copy of each of its runs with its observation indices moved to
//! the new window's. The arrays are the crate's run array and union-find
//! ([`dense`](crate::dense)), which PMC's
//! [`decompose`](crate::pmc::decompose) uses too, and all keep their
//! memory across windows and `invalidate`.
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
//! per-component pick sequences, whichever window solved each: a kept
//! component's picks are what its greedy would pick again from the same
//! observations and hit ratios. Keys are globally unique (the link id
//! participates), so the standing picks, already in key order, merge
//! with the sorted fresh ones in one pass. Each lossy observation belongs
//! to exactly one component, or to none when its path id does not
//! resolve in the matrix (nothing can explain it), so the unexplained
//! list is the per-component leftovers and those strays, in window order.
//!
//! The plain whole-window greedy behind [`localize`](super::localize)
//! stays as the oracle: the result is bit-identical to it —
//! property-tested in this module, over the `Diagnoser` API in
//! `tests/diagnoser_oracle.rs`, and end-to-end (results + full ordered
//! event streams) in `tests/scheduler_equivalence.rs` and
//! `tests/distributed_equivalence.rs`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::swap;

use super::pll_impl::{Diagnosis, SuspectLink};
use super::preprocess::stays_lossy;
use super::rate::pooled_rate;
use super::PllConfig;
use crate::dense::{Runs, UnionFind};
use crate::types::{LinkId, PathObservation};
#[cfg(test)]
use {
    super::pll_impl::{index_links, rows_of},
    super::preprocess,
    crate::pmc::ProbeMatrix,
    std::collections::HashSet,
};

/// Sentinel for a missing local link, component or index.
const NONE: u32 = u32::MAX;

/// What the diagnoser's window walk hands [`ComponentPll::diagnose`]
/// beside a window's lossy observations: where each one's links are, and
/// every link's hit-ratio denominator, under a generation.
#[derive(Clone, Copy, Debug)]
pub struct LossyIncidence<'a> {
    /// Per lossy observation, in order: its path's row of `row_links`,
    /// or [`STRAY`](Self::STRAY) where the matrix cannot resolve its id.
    pub rows: &'a [u32],
    /// The probe matrix's row → links incidence.
    pub row_links: &'a Runs<LinkId>,
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

    /// The links of `row`; none for no row.
    fn links(&self, row: Option<&u32>) -> &[LinkId] {
        row.map_or(&[], |&row| self.row_links.run(row as usize))
    }
}

/// A candidate link of a component, with its hit ratio.
#[derive(Clone, Copy, Debug, Default)]
struct Candidate {
    link: LinkId,
    hit: f64,
}

/// A window's components. A kept component is carried into the next
/// window by copying its runs, its indices into the lossy list moved.
#[derive(Debug, Default)]
struct Parts {
    /// Component → its observations' indices in the window's lossy list,
    /// ascending.
    scope: Runs<u32>,
    /// Component → its candidate links (its hit list).
    cands: Runs<Candidate>,
    /// Candidate, numbered across components → the indices of the lossy
    /// observations through it, ascending, once per naming (the lengths
    /// are the hit-ratio numerators).
    link_paths: Runs<u32>,
}

/// What a window changed in one of the last window's components.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Change {
    /// Nothing: its picks stand.
    None,
    /// Its paths' counters: its greedy runs again.
    Counters,
    /// Its paths: the survivors are partitioned afresh.
    Paths,
}

/// What the diff, the partition and the greedies work in, kept between
/// windows.
#[derive(Debug, Default)]
struct Scratch {
    /// Lossy observation → its matrix row, as the noise filter left them.
    rows: Vec<u32>,
    /// The last window's component → what this window changed in it.
    changes: Vec<Change>,
    /// The last window's observation → its index in this one, or
    /// [`NONE`].
    moved: Vec<u32>,
    /// This window's observations to partition afresh, then its
    /// components whose greedy runs.
    pool: Vec<u32>,
    solve: Vec<u32>,
    /// This window's components and unexplained flags, built beside the
    /// last window's and swapped in.
    parts: Parts,
    left: Vec<bool>,
    /// The partition's link → local id ([`NONE`] between partitions, and
    /// spanning the largest link named), local link → link, pool position
    /// → local links, and the union-find over local links.
    local_of: Vec<u32>,
    links: Vec<LinkId>,
    path_links: Runs<u32>,
    sets: UnionFind,
    /// Local link → pool positions, and component → local links and →
    /// pool positions.
    link_pool: Runs<u32>,
    comp_links: Runs<u32>,
    comp_pool: Runs<u32>,
    /// A greedy's lazy queue, the window's fresh picks, and the merged
    /// suspects.
    queue: BinaryHeap<Pick>,
    picks: Vec<SuspectLink>,
    merged: Vec<SuspectLink>,
}

impl Parts {
    /// Runs component `comp`'s greedy over the window's lossy `obs`:
    /// appends its picks to `s.picks` and leaves `left` flagging which of
    /// its observations it left unexplained.
    fn greedy(
        &self,
        comp: usize,
        obs: &[PathObservation],
        cfg: &PllConfig,
        s: &mut Scratch,
        left: &mut [bool],
    ) {
        let mut remaining: u64 = 0;
        for &i in self.scope.run(comp) {
            if let (Some(u), Some(o)) = (left.get_mut(i as usize), obs.get(i as usize)) {
                *u = o.is_lossy();
                remaining += o.lost;
            }
        }
        // Step 3's score: lost packets candidate `k` could still explain.
        let score = |left: &[bool], k: usize| -> u64 {
            (self.link_paths.run(k).iter())
                .filter(|&&i| left.get(i as usize).copied().unwrap_or(false))
                .filter_map(|&i| obs.get(i as usize).map(|o| o.lost))
                .sum()
        };
        s.queue.clear();
        for (k, c) in self.cands.span(comp).zip(self.cands.run(comp)) {
            // The hit ratio is an eligibility filter and tie-breaker.
            if c.hit < cfg.hit_ratio_threshold {
                continue;
            }
            let score = score(left, k);
            if score > 0 {
                s.queue.push(Pick {
                    score,
                    hit: c.hit,
                    link: c.link,
                    cand: k as u32,
                });
            }
        }

        while remaining > 0 {
            let Some(top) = s.queue.pop() else {
                break;
            };
            let score = score(left, top.cand as usize);
            if score != top.score {
                if score > 0 {
                    s.queue.push(Pick { score, ..top });
                }
                continue;
            }

            // Step 4: blame the link and explain its lossy paths.
            let (mut explained_paths, mut sent, mut lost) = (0u32, 0u64, 0u64);
            for &i in self.link_paths.run(top.cand as usize) {
                let (Some(u), Some(o)) = (left.get_mut(i as usize), obs.get(i as usize)) else {
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
            s.picks.push(SuspectLink {
                link: top.link,
                estimated_loss_rate: pooled_rate(sent, lost),
                hit_ratio: top.hit,
                explained_paths,
                explained_losses: score,
            });
        }
    }
}

impl Scratch {
    /// Partitions the window's observations in `pool` by shared links and
    /// appends each component to `parts`. An observation that names no
    /// link joins none: a stray.
    fn partition(&mut self, view: &LossyIncidence<'_>) {
        self.links.clear();
        self.path_links.clear();
        self.sets.clear();
        for &j in &self.pool {
            let local = view.links(self.rows.get(j as usize)).iter().map(|&l| {
                if l.index() >= self.local_of.len() {
                    self.local_of.resize(l.index() + 1, NONE);
                }
                let Some(slot) = self.local_of.get_mut(l.index()) else {
                    return NONE;
                };
                if *slot == NONE {
                    *slot = self.links.len() as u32;
                    self.links.push(l);
                }
                *slot
            });
            self.sets
                .join(self.path_links.push_run(local).iter().copied());
        }
        for l in &self.links {
            if let Some(slot) = self.local_of.get_mut(l.index()) {
                *slot = NONE;
            }
        }

        let (n, path_links) = (self.links.len(), &self.path_links);
        let namings = || {
            (path_links.runs().enumerate())
                .flat_map(|(pp, run)| run.iter().map(move |&li| (li, pp as u32)))
        };
        self.link_pool.refill(n, namings);
        let (comps, comp) = self.sets.number();
        let comp = |li: u32| comp.get(li as usize).copied().unwrap_or(NONE);
        (self.comp_links).refill(comps, || (0..n as u32).map(|li| (comp(li), li)));
        let anchored = || {
            (path_links.runs().enumerate())
                .filter_map(|(pp, run)| Some((comp(*run.first()?), pp as u32)))
        };
        self.comp_pool.refill(comps, anchored);

        for (scope, local) in self.comp_pool.runs().zip(self.comp_links.runs()) {
            let (pool, parts) = (&self.pool, &mut self.parts);
            let index = |&pp: &u32| pool.get(pp as usize).copied().unwrap_or(NONE);
            parts.scope.push_run(scope.iter().map(index));
            parts.cands.push_run(local.iter().map(|&li| {
                let link = self.links.get(li as usize).copied().unwrap_or_default();
                let observed = view.observed.get(link.index()).copied().unwrap_or(0);
                let lossy = self.link_pool.run(li as usize).len() as f64;
                let hit = lossy / f64::from(observed);
                Candidate { link, hit }
            }));
            for &li in local {
                (parts.link_paths).push_run(self.link_pool.run(li as usize).iter().map(index));
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
    cand: u32,
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

/// The global greedy's pick order: its selection key, descending.
fn pick_order(a: &SuspectLink, b: &SuspectLink) -> Ordering {
    (b.explained_losses.cmp(&a.explained_losses))
        .then_with(|| b.hit_ratio.total_cmp(&a.hit_ratio))
        .then_with(|| a.link.cmp(&b.link))
}

/// Points each of `cands`' links at `comp` in `link_comp`.
fn label(link_comp: &mut [u32], cands: &[Candidate], comp: u32) {
    for c in cands {
        if let Some(slot) = link_comp.get_mut(c.link.index()) {
            *slot = comp;
        }
    }
}

/// Cross-window component-decomposed PLL state. One instance per
/// diagnoser; feed it every window in order and
/// [`invalidate`](ComponentPll::invalidate) it on matrix changes.
#[derive(Debug, Default)]
pub struct ComponentPll {
    cfg: PllConfig,
    /// Whether the fields below describe the latest window: false before
    /// the first window and after [`invalidate`](ComponentPll::invalidate).
    valid: bool,
    /// The generation of the denominators the hit ratios were read under.
    generation: u64,
    /// The latest window's lossy observations, noise filtered; per
    /// observation, its component ([`NONE`] for a stray) and whether the
    /// verdict leaves it unexplained.
    obs: Vec<PathObservation>,
    comp_of: Vec<u32>,
    left: Vec<bool>,
    /// The latest window's components.
    parts: Parts,
    /// Link → its component in `parts`, or [`NONE`]. Spans the largest
    /// link a component has named.
    link_comp: Vec<u32>,
    /// Components whose greedy ran for the latest window.
    solved: u64,
    scratch: Scratch,
    /// The latest window's verdict.
    verdict: Diagnosis,
}

impl ComponentPll {
    /// Fresh, empty state: the first window partitions every path.
    pub fn new(cfg: PllConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Drops every component. Call whenever the probe matrix changes
    /// (plan epoch change, cycle refresh, any topology-event driven
    /// re-plan): path ids may be reused with different link sets, which
    /// the diff of path ids cannot detect, and a stale component would
    /// silently split or fuse the greedy.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Components whose greedy ran for the latest window: those it
    /// partitioned afresh or moved the counters of. 0 when it repeated
    /// its predecessor's lossy observations.
    pub fn components_solved(&self) -> u64 {
        self.solved
    }

    /// `(lossy_paths, components)` of the latest diagnosed window:
    /// observations that stay lossy after noise filtering (those whose
    /// path id does not resolve in the matrix included), and the
    /// connected components their links induce — the number of
    /// independent localization subproblems, one greedy each.
    /// `(0, 0)` before the first window and after
    /// [`invalidate`](ComponentPll::invalidate).
    pub fn window_shape(&self) -> (u64, u64) {
        if !self.valid {
            return (0, 0);
        }
        (self.obs.len() as u64, self.parts.scope.len() as u64)
    }

    #[cfg(test)]
    /// Localizes one whole window, for the tests that hold this
    /// localizer against [`localize`](super::localize) without a window
    /// walk: builds the [`LossyIncidence`] the diagnoser's walk would
    /// hand over — each link's observed paths counted from
    /// `observations` themselves, what `localize` indexes — then
    /// [`diagnose`](ComponentPll::diagnose)s the lossy ones. Produces
    /// exactly what `localize` would for the same inputs.
    ///
    /// With no walk to keep a generation, a candidate link whose hit
    /// ratio the new denominators would move invalidates every
    /// component, and the last generation is handed back. Feed one
    /// instance through this or through `diagnose`, not both.
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
        let moved = |(c, paths): (&Candidate, &[u32])| {
            let observed = through.get(c.link.index()).copied().unwrap_or(0);
            (paths.len() as f64 / f64::from(observed)).to_bits() != c.hit.to_bits()
        };
        let p = &self.parts;
        if p.cands.items().iter().zip(p.link_paths.runs()).any(moved) {
            self.invalidate();
        }
        let view = LossyIncidence {
            rows: &rows_of(matrix, &lossy),
            row_links: matrix.paths.link_runs(),
            observed: &through,
            generation: self.generation,
        };
        self.diagnose(lossy, view)
    }

    /// Diagnoses one window: noise-filters its `lossy` observations in
    /// place, diffs them against the last window's, partitions and solves
    /// afresh only what the window changed, and merges the fresh picks
    /// into the standing ones in the global pick order — or returns the
    /// last verdict outright when the window repeats its predecessor.
    ///
    /// `lossy` lists the window's observations with a probe lost, in the
    /// window's order (ascending path id); clean ones may be left out, and
    /// whatever the noise filter zeroes is dropped. `view.rows` runs
    /// parallel to `lossy`. Under an unchanged `view.generation`, only
    /// the links of the added paths and of the changed components' are
    /// read.
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
        let paths_changed = self.diff(&lossy, &view);
        let s = &mut self.scratch;
        s.solve.clear();
        if !paths_changed {
            let counters = |(c, &change)| (change == Change::Counters).then_some(c as u32);
            s.solve
                .extend(s.changes.iter().enumerate().filter_map(counters));
            if s.solve.is_empty() {
                self.solved = 0;
                return self.verdict.clone();
            }
        }
        // Only the picks of the components the window left as they were
        // stand.
        let (link_comp, changes) = (&self.link_comp, &s.changes);
        let stands =
            |c: Option<&u32>| c.and_then(|&c| changes.get(c as usize)) == Some(&Change::None);
        (self.verdict.suspects).retain(|p| stands(link_comp.get(p.link.index())));
        if paths_changed {
            self.rebuild(lossy.len(), &view);
        }
        self.obs = lossy;

        let (s, verdict) = (&mut self.scratch, &mut self.verdict);
        s.picks.clear();
        let solve = std::mem::take(&mut s.solve);
        for &comp in &solve {
            (self.parts).greedy(comp as usize, &self.obs, &self.cfg, s, &mut self.left);
        }
        self.solved = solve.len() as u64;
        s.solve = solve;
        // The standing picks are in pick order already: only the fresh
        // ones are sorted, then the two merge in one pass.
        s.picks.sort_unstable_by(pick_order);
        s.merged.clear();
        let mut a = verdict.suspects.iter().peekable();
        let mut b = s.picks.iter().peekable();
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            let take_a = pick_order(x, y).is_le();
            s.merged.extend(if take_a { a.next() } else { b.next() });
        }
        s.merged.extend(a.chain(b));
        swap(&mut verdict.suspects, &mut s.merged);
        verdict.unexplained_paths.clear();
        let unexplained = |(o, &u): (&PathObservation, &bool)| u.then_some(o.path);
        let left = self.obs.iter().zip(&self.left).filter_map(unexplained);
        verdict.unexplained_paths.extend(left);
        verdict.clone()
    }

    /// Diffs the window's `lossy` observations against the last window's:
    /// marks what it changed in each last-window component, maps each
    /// last-window observation to its new index (`moved`), and pools the
    /// added and the stray observations. Returns whether the lossy path
    /// ids changed. With no last window to diff against (see the module
    /// docs), every component is changed and every observation added.
    fn diff(&mut self, lossy: &[PathObservation], view: &LossyIncidence<'_>) -> bool {
        let s = &mut self.scratch;
        let comps = self.parts.scope.len();
        s.changes.clear();
        s.moved.clear();
        s.pool.clear();
        if !self.valid || self.generation != view.generation {
            (self.valid, self.generation) = (true, view.generation);
            s.changes.resize(comps, Change::Paths);
            s.pool.extend(0..lossy.len() as u32);
            return true;
        }
        s.changes.resize(comps, Change::None);
        if self.obs == lossy {
            return false;
        }
        let mark = |changes: &mut [Change], comp: u32, change| {
            if let Some(c) = changes.get_mut(comp as usize) {
                *c = (*c).max(change);
            }
        };
        let (mut changed, mut new) = (false, lossy.iter().zip(0u32..).peekable());
        for (was, &comp) in self.obs.iter().zip(&self.comp_of) {
            while let Some((_, j)) = new.next_if(|(o, _)| o.path < was.path) {
                changed = true;
                s.pool.push(j);
            }
            let Some((now, j)) = new.next_if(|(o, _)| o.path == was.path) else {
                changed = true;
                s.moved.push(NONE);
                mark(&mut s.changes, comp, Change::Paths);
                continue;
            };
            s.moved.push(j);
            if comp == NONE {
                s.pool.push(j);
            } else if now != was {
                mark(&mut s.changes, comp, Change::Counters);
            }
        }
        for (_, j) in new {
            changed = true;
            s.pool.push(j);
        }
        // An added path joins every component whose links it names.
        for &j in &s.pool {
            for l in view.links(s.rows.get(j as usize)) {
                let comp = self.link_comp.get(l.index()).copied().unwrap_or(NONE);
                mark(&mut s.changes, comp, Change::Paths);
            }
        }
        changed
    }

    /// Builds the window's components beside the last window's and swaps
    /// them in: carries every component whose paths the window kept,
    /// partitions the rest afresh, and lists in `solve` the components
    /// whose greedy runs.
    fn rebuild(&mut self, n: usize, view: &LossyIncidence<'_>) {
        let (s, old, link_comp) = (&mut self.scratch, &self.parts, &mut self.link_comp);
        let (next, comp_of) = (&mut s.parts, &mut self.comp_of);
        next.scope.clear();
        next.cands.clear();
        next.link_paths.clear();
        comp_of.clear();
        comp_of.resize(n, NONE);
        s.left.clear();
        s.left.resize(n, true);
        for (comp, &change) in s.changes.iter().enumerate() {
            let (scope, cands) = (old.scope.run(comp), old.cands.run(comp));
            let moved = |&i: &u32| s.moved.get(i as usize).copied().unwrap_or(NONE);
            if change == Change::Paths {
                label(link_comp, cands, NONE);
                s.pool
                    .extend(scope.iter().map(moved).filter(|&j| j != NONE));
                continue;
            }
            let at = next.scope.len() as u32;
            if change == Change::Counters {
                s.solve.push(at);
            }
            if at != comp as u32 {
                label(link_comp, cands, at);
            }
            for &i in scope {
                let j = moved(&i) as usize;
                if let (Some(c), Some(l)) = (comp_of.get_mut(j), s.left.get_mut(j)) {
                    (*c, *l) = (at, self.left.get(i as usize).copied().unwrap_or(true));
                }
            }
            next.scope.push_run(scope.iter().map(moved));
            next.cands.extend_runs(&old.cands, comp..comp + 1, |c| c);
            let links = old.cands.span(comp);
            (next.link_paths).extend_runs(&old.link_paths, links, |i| moved(&i));
        }
        s.pool.sort_unstable();
        let fresh = s.parts.scope.len();
        s.partition(view);
        // Every link a component names was numbered in a partition.
        link_comp.resize(s.local_of.len().max(link_comp.len()), NONE);
        for comp in fresh..s.parts.scope.len() {
            s.solve.push(comp as u32);
            label(link_comp, s.parts.cands.run(comp), comp as u32);
            for &j in s.parts.scope.run(comp) {
                if let Some(c) = comp_of.get_mut(j as usize) {
                    *c = comp as u32;
                }
            }
        }
        swap(&mut self.parts, &mut s.parts);
        swap(&mut self.left, &mut s.left);
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
        let none = Runs::default();
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
        // Both lossy paths left, so the clean window dropped their
        // component and solved none; every later clean window has the
        // same empty lossy set, whatever its clean counters.
        assert_eq!(c.components_solved(), 0);
        let clean2 = obs(&[(0, 90, 0), (1, 100, 0), (2, 100, 0)]);
        for _ in 0..2 {
            assert!(c.localize(&m, &clean2).is_clean());
            assert_eq!(c.components_solved(), 0);
        }
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
        assert_eq!(c.components_solved(), 1);
        assert_eq!(d, localize(&bridged, &w, &cfg));
    }

    /// Feeds `windows` through one localizer, holds every verdict to
    /// `localize`'s and returns each window's components solved.
    fn solved(m: &ProbeMatrix, windows: &[&[PathObservation]]) -> Vec<u64> {
        let cfg = PllConfig::default();
        let mut c = ComponentPll::new(cfg);
        (windows.iter())
            .map(|w| {
                assert_eq!(c.localize(m, w), localize(m, w, &cfg));
                c.components_solved()
            })
            .collect()
    }

    #[test]
    fn same_key_swaps_counters_and_identical_window_reuses_the_verdict() {
        let w1 = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 90), (3, 100, 90)]);
        // Same ids and lossy flags, other counters — the merge order of
        // the two islands flips with them.
        let w2 = obs(&[(0, 100, 90), (1, 100, 90), (2, 100, 40), (3, 100, 40)]);
        // Only island {2,3}'s counters move back.
        let w3 = obs(&[(0, 100, 90), (1, 100, 90), (2, 100, 90), (3, 100, 90)]);
        let windows: [&[_]; 5] = [&w1, &w2, &w2, &w3, &w1];
        assert_eq!(solved(&matrix(), &windows), [2, 2, 0, 1, 1]);
    }

    #[test]
    fn changed_key_triggers_a_rebuild() {
        let base = obs(&[(0, 100, 100), (1, 100, 100), (2, 100, 0)]);
        // A clean path off every candidate link drops out of the window
        // (e.g. its pinger went down) and comes back: nothing to solve. A
        // lossy path turns clean, and back: its component each time.
        let fewer = obs(&[(0, 100, 100), (1, 100, 100)]);
        let flipped = obs(&[(0, 100, 100), (1, 100, 0), (2, 100, 0)]);
        let windows: [&[_]; 5] = [&base, &fewer, &base, &flipped, &base];
        assert_eq!(solved(&matrix(), &windows), [1, 0, 0, 1, 1]);
    }

    /// A chain: path `i` crosses links `i` and `i + 1`, for `i < 6`.
    fn chain() -> ProbeMatrix {
        let paths = (0..6).map(|i| ProbePath::from_links(i, vec![LinkId(i), LinkId(i + 1)]));
        ProbeMatrix::from_paths(7, paths.collect::<Vec<_>>())
    }

    #[test]
    fn an_onset_re_solves_only_the_components_it_touches() {
        // Every path is observed in every window, so the denominators
        // hold; only which paths are lossy, and their counters, change.
        let window = |lost: [u64; 6]| -> Vec<PathObservation> {
            (0..6)
                .map(|i| PathObservation::new(PathId(i), 100, lost[i as usize]))
                .collect()
        };
        let windows = [
            window([40, 0, 40, 0, 40, 0]),  // {0}, {2}, {4}: three
            window([40, 40, 40, 0, 40, 0]), // path 1 merges {0} and {2}
            window([40, 40, 40, 0, 90, 0]), // {4}'s counters move
            window([40, 0, 40, 0, 90, 0]),  // path 1 leaves: {0}, {2} split
            window([0, 0, 40, 0, 90, 40]),  // {0} leaves, path 5 joins {4}
            window([0, 0, 40, 0, 90, 40]),  // a repeat
            window([0, 0, 0, 0, 0, 0]),     // all healthy
        ];
        let windows: Vec<&[_]> = windows.iter().map(Vec::as_slice).collect();
        assert_eq!(solved(&chain(), &windows), [3, 1, 1, 2, 1, 0, 0]);
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
        assert_eq!(c.components_solved(), 1);
        let hit = |d: &Diagnosis| d.suspects.iter().map(|s| s.hit_ratio).collect::<Vec<_>>();
        assert_eq!((hit(&before), hit(&after)), (vec![2.0 / 3.0], vec![1.0]));
    }

    #[test]
    fn a_clean_paths_counters_leave_the_verdict_as_it_was() {
        // Clean path 2 crosses candidate link 0; its counters, and clean
        // path 3's, change between the windows.
        let w1 = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 0), (3, 100, 0)]);
        let w2 = obs(&[(0, 100, 40), (1, 100, 40), (2, 70, 0), (3, 90, 0)]);
        assert_eq!(solved(&fan(), &[&w1, &w2]), [1, 0]);
    }

    #[test]
    fn a_clean_path_off_every_candidate_link_comes_and_goes_unnoticed() {
        // Path 3 crosses only link 1, which no lossy path crosses.
        let with = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 0), (3, 100, 0)]);
        let without = obs(&[(0, 100, 40), (1, 100, 40), (2, 100, 0)]);
        assert_eq!(solved(&fan(), &[&with, &without, &with]), [1, 0, 0]);
    }

    #[test]
    fn noise_normalized_windows_stay_equivalent() {
        // The diff is taken after pre-processing: losses below the noise
        // thresholds are clean for the diff, the partition and the hit
        // ratios alike.
        let m = matrix();
        let cfg = PllConfig {
            min_loss_count: 3,
            ..PllConfig::default()
        };
        let mut c = ComponentPll::new(cfg);
        let w1 = obs(&[(0, 100, 100), (1, 100, 100), (2, 100, 2), (3, 100, 0)]);
        let w2 = obs(&[(0, 100, 90), (1, 100, 80), (2, 100, 0), (3, 100, 1)]);
        let w3 = obs(&[(0, 100, 2), (1, 100, 1), (2, 100, 0), (3, 100, 0)]);
        let mut solved = Vec::new();
        for w in [&w1, &w2, &w3] {
            assert_eq!(c.localize(&m, w), localize(&m, w, &cfg));
            solved.push(c.components_solved());
        }
        // w2 moves the counters of w1's component; w3 is all noise.
        assert_eq!(solved, [1, 1, 0]);
        assert_eq!(c.window_shape(), (0, 0));
    }

    /// The lossy observations of `window` that name a link of `m`, grouped
    /// into the components their shared links induce, each in window
    /// order — by breadth-first search, not by the localizer's partition.
    fn components_of(m: &ProbeMatrix, window: &[PathObservation]) -> Vec<Vec<PathObservation>> {
        let links = |o: &PathObservation| m.path(o.path).map_or(&[][..], |p| p.links());
        let lossy: Vec<&PathObservation> = (window.iter())
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
                    if !seen[k] && links(lossy[k]).iter().any(|l| links(lossy[i]).contains(l)) {
                        seen[k] = true;
                        members.push(k);
                        frontier.push(k);
                    }
                }
            }
            members.sort_unstable();
            comps.push(members.iter().map(|&i| *lossy[i]).collect());
        }
        comps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random 12-link topologies under multi-window biased-random
        /// loss: component-decomposed localization matches the plain
        /// whole-window oracle, with components kept across the windows
        /// of one run, and reports the lossy incidence's shape.
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
        /// (partitioned afresh where its lossy set moved), again (nothing
        /// solved), and with its lossy paths' sent counters doubled
        /// (every component solved again) — and every verdict equals
        /// `localize` bit for bit.
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
                for (call, window) in [window(100), window(100), window(200)].iter().enumerate() {
                    let got = c.localize(&m, window);
                    prop_assert_eq!(got, localize(&m, window, &cfg));
                    let lossy = window.iter().filter(|o| o.is_lossy()).count() as u64;
                    let (shape, solved) = (c.window_shape(), c.components_solved());
                    prop_assert_eq!(shape.0, lossy);
                    match call {
                        0 => prop_assert!(solved <= shape.1),
                        1 => prop_assert_eq!(solved, 0),
                        _ => prop_assert_eq!(solved, shape.1),
                    }
                }
            }
        }

        /// Window sequences that change one thing at a time on a sparse
        /// matrix where one path often bridges two components: one path's
        /// counters, or whether one path is lossy — which adds a path to a
        /// component, drops one, merges two or splits one. Every path is
        /// observed in every window, so the denominators hold. Every
        /// verdict equals `localize` bit for bit, and every window solves
        /// exactly its components that are not, ids and counters alike,
        /// a component of the window before.
        #[test]
        fn one_change_at_a_time_re_solves_exactly_what_changed(
            paths in proptest::collection::vec(proptest::collection::vec(0u32..24, 1..4), 8..40),
            first in proptest::collection::vec(0u64..3, 40..41),
            edits in proptest::collection::vec((0usize..40, (0u8..2).prop_map(|t| t == 1)), 1..24),
        ) {
            let n = paths.len();
            let probe_paths: Vec<ProbePath> = (paths.iter().enumerate())
                .map(|(i, ls)| ProbePath::from_links(i as u32, ls.iter().map(|&l| LinkId(l)).collect()))
                .collect();
            let m = ProbeMatrix::from_paths(24, probe_paths);
            let cfg = PllConfig::default();
            let mut c = ComponentPll::new(cfg);
            let mut lost: Vec<u64> = first.iter().take(n).map(|&sev| sev * 20).collect();
            let window = |lost: &[u64]| -> Vec<PathObservation> {
                (lost.iter().enumerate())
                    .map(|(i, &lost)| PathObservation::new(PathId(i as u32), 100, lost))
                    .collect()
            };
            let mut before = Vec::new();
            for (at, toggle) in std::iter::once((0, false)).chain(edits) {
                let at = at % n;
                match (toggle, lost[at]) {
                    (true, 0) => lost[at] = 40,
                    (true, _) => lost[at] = 0,
                    (false, 0) => {}
                    (false, l) => lost[at] = l % 60 + 20,
                }
                let w = window(&lost);
                prop_assert_eq!(c.localize(&m, &w), localize(&m, &w, &cfg));
                let now = components_of(&m, &w);
                let changed = now.iter().filter(|comp| !before.contains(*comp)).count();
                prop_assert_eq!(c.components_solved(), changed as u64);
                prop_assert_eq!(c.window_shape().1, now.len() as u64);
                before = now;
            }
        }
    }
}
