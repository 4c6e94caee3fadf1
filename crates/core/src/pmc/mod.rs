//! Probe Matrix Construction (PMC) — §4 of the paper.
//!
//! Given a set of candidate probe paths (rows of the routing matrix `R`)
//! over a universe of physical links, PMC greedily selects a minimal set of
//! paths forming a probe matrix `P` that achieves:
//!
//! * **α-coverage** — every physical link lies on at least α selected paths;
//! * **β-identifiability** — any simultaneous failure of at most β links
//!   produces a distinct set of lossy paths, so failures can be localized
//!   from end-to-end observations alone.
//!
//! β-identifiability is reduced to 1-identifiability over an *extended*
//! link universe that adds a virtual link for every combination of 2..β
//! physical links (Fig. 3 of the paper); the greedy then refines a partition
//! of extended links until every extended link lies in its own cell.
//!
//! The module implements the strawman greedy (O(m²) rescoring) and the three
//! published optimizations: problem decomposition ([`decompose`]), lazy
//! score updates à la CELF ([`Strategy::Lazy`]), and symmetry reduction via
//! incremental [`CandidateProvider`]s that never materialize the full path
//! set (providers are implemented by `detector-topology`). Both greedy
//! loops address candidates through a candidate index — each candidate's
//! links as sorted local indices, built once per [`Subproblem`] or grown
//! batch by batch from a provider — so heap and alive entries hold an
//! index, an exclusion is a renumbering, and a path is cloned only when
//! selected.

mod decompose;
mod greedy;
mod index;
mod jobs;
mod lazy;
mod link_index;
#[cfg(test)]
mod parallel;
mod provider;
#[cfg(test)]
mod reference;
mod state;
mod verify;
mod virtual_links;

pub use decompose::{decompose, Subproblem};
pub use jobs::JobPool;
pub use link_index::{LinkIndex, RowLinks};
pub use provider::{CandidateProvider, ExcludingProvider, ExhaustiveProvider};
pub use state::{Eval, SelectionState};
pub use verify::{max_identifiability, min_coverage, verify, VerifyReport};
pub use virtual_links::ExtendedUniverse;

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use crate::types::{LinkId, PathId, ProbePath};
use index::{CandidateIndex, CellPool, IndexedCell};
use provider::ProviderPool;

/// Selection strategy for the greedy loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Re-score every remaining candidate each iteration (the paper's
    /// strawman, O(m²) score updates).
    Strawman,
    /// Lazy score updates with a min-heap (CELF-style, Observation 2).
    Lazy,
}

/// Configuration for probe matrix construction.
#[derive(Clone, Debug)]
pub struct PmcConfig {
    /// Minimum number of selected paths that must cover each physical link.
    pub alpha: u32,
    /// Identifiability level: simultaneous failures of up to `beta` links
    /// must be distinguishable. Supported values: 0..=3 (the paper finds
    /// β ≥ 3 computationally impractical at scale, §4.4).
    pub beta: u32,
    /// Greedy variant.
    pub strategy: Strategy,
    /// Split the problem into independent subproblems first (Observation 1).
    /// Subproblems are solved on up to one thread each
    /// ([`JobPool::clamped`]); a single one runs inline.
    pub decompose: bool,
    /// Abort with [`PmcError::Timeout`] if construction exceeds this budget.
    pub timeout: Option<Duration>,
    /// Upper bound on the extended-universe size (#physical + #virtual
    /// links) per subproblem; guards against infeasible β on large inputs.
    pub max_extended_elements: u64,
}

impl PmcConfig {
    /// Coverage-only configuration: α-coverage, no identifiability target.
    pub fn coverage(alpha: u32) -> Self {
        Self {
            alpha,
            beta: 0,
            ..Self::default()
        }
    }

    /// β-identifiability with 1-coverage (the paper's (1, β) settings).
    pub fn identifiable(beta: u32) -> Self {
        Self {
            alpha: 1,
            beta,
            ..Self::default()
        }
    }

    /// Full (α, β) configuration.
    pub fn new(alpha: u32, beta: u32) -> Self {
        Self {
            alpha,
            beta,
            ..Self::default()
        }
    }

    /// Uses the strawman strategy without decomposition (for benchmarks).
    pub fn strawman(mut self) -> Self {
        self.strategy = Strategy::Strawman;
        self.decompose = false;
        self
    }

    /// Sets a wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// The instant a solve starting now must finish by.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        // detlint::allow(determinism, reason = "PMC solver timeout deadline; deadlines only abort, never alter a completed plan")
        self.timeout.map(|t| Instant::now() + t)
    }
}

impl Default for PmcConfig {
    fn default() -> Self {
        Self {
            alpha: 1,
            beta: 1,
            strategy: Strategy::Lazy,
            decompose: true,
            timeout: None,
            max_extended_elements: 64_000_000,
        }
    }
}

/// Errors from probe matrix construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmcError {
    /// The wall-clock budget was exceeded.
    Timeout {
        /// Time spent before giving up.
        elapsed: Duration,
    },
    /// β > 3 is not supported (combinatorial blow-up; the paper reports the
    /// same limitation).
    BetaTooLarge {
        /// Requested identifiability level.
        beta: u32,
    },
    /// The extended universe would exceed `max_extended_elements`.
    UniverseTooLarge {
        /// Number of extended elements that would be required.
        required: u64,
        /// The configured limit.
        limit: u64,
    },
    /// A candidate path referenced a link outside the declared universe.
    UnknownLink {
        /// The offending link.
        link: LinkId,
    },
}

impl core::fmt::Display for PmcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PmcError::Timeout { elapsed } => {
                write!(f, "PMC timed out after {elapsed:?}")
            }
            PmcError::BetaTooLarge { beta } => {
                write!(f, "identifiability level {beta} not supported (max 3)")
            }
            PmcError::UniverseTooLarge { required, limit } => {
                write!(
                    f,
                    "extended universe needs {required} elements, limit is {limit}"
                )
            }
            PmcError::UnknownLink { link } => {
                write!(f, "candidate path references unknown link {link}")
            }
        }
    }
}

impl std::error::Error for PmcError {}

/// What a constructed probe matrix actually achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Achieved {
    /// Minimum number of selected paths over any physical link that appears
    /// in at least one candidate (0 if some link is uncoverable).
    pub coverage: u32,
    /// Identifiability level certified by construction: equals the
    /// requested β when every extended link ended in its own partition
    /// cell in every subproblem, otherwise the best certified lower level.
    pub identifiability: u32,
    /// True when the requested (α, β) targets were fully met.
    pub targets_met: bool,
}

/// How a [`ProbeMatrix`] resolves a [`PathId`] to its row.
///
/// Constructed matrices re-number their rows densely, so the id *is* the
/// row index. Incrementally maintained plans instead allocate each
/// subproblem a stable [`PathIdRange`](crate::types::PathIdRange) and
/// leave gaps between cells (headroom), so a row lookup goes through an
/// explicit id → row table. Consumers never see the difference: both
/// forms answer [`ProbeMatrix::path`] / [`ProbeMatrix::row_of`].
#[derive(Clone, Debug)]
enum PathIndex {
    /// `paths[i].id == PathId(i)`: the id is the row index.
    Dense,
    /// Segmented (sparse-within-range) ids: explicit id → row table.
    Segmented(RowTable),
}

/// Slot of a [`RowTable`] no path owns (an id in a headroom gap).
const NO_ROW: u32 = u32::MAX;

/// A [`RowTable`] run may hold this many slots per id it resolves.
/// The planner's ranges carry at most 8 ids of headroom per path
/// (`IdHeadroom`: half the cell again, at least 8), so a planned id set
/// is one run until re-bases have retired most of the id space under it.
const SLOTS_PER_ROW: u64 = 16;

/// One run of consecutive table slots: ids `first..first + len` resolve
/// through `rows[start..start + len]`.
#[derive(Clone, Copy, Debug)]
struct IdRun {
    first: u32,
    len: u32,
    start: usize,
}

/// The id → row table of a segmented matrix: a lookup is one subtraction
/// and one load — the close path resolves ~30 k ids a window and used to
/// hash each. The id space is cut into runs wherever keeping it whole
/// would leave more than [`SLOTS_PER_ROW`] slots per resolved id, so the
/// table stays O(rows) whatever ids the caller hands in; ids between
/// runs resolve to nothing without a slot of their own.
#[derive(Clone, Debug)]
struct RowTable {
    /// Ascending by `first`, disjoint.
    runs: Vec<IdRun>,
    /// The runs' slots back to back; [`NO_ROW`] in a gap.
    rows: Vec<u32>,
}

impl RowTable {
    fn build(paths: &[ProbePath]) -> Self {
        let mut ids: Vec<(PathId, u32)> = (paths.iter().enumerate())
            .map(|(row, p)| (p.id, row as u32))
            .collect();
        ids.sort_unstable();
        let mut runs: Vec<IdRun> = Vec::new();
        let mut rows = Vec::with_capacity(ids.len());
        // Ids the open run resolves so far.
        let mut held = 0u64;
        for (id, row) in ids {
            match runs.last_mut() {
                Some(run) if u64::from(id.0 - run.first) < SLOTS_PER_ROW * (held + 1) => {
                    let slot = id.0 - run.first;
                    debug_assert!(slot >= run.len, "duplicate path id {id}");
                    run.len = slot + 1;
                    rows.resize(run.start + slot as usize, NO_ROW);
                    held += 1;
                }
                _ => {
                    runs.push(IdRun {
                        first: id.0,
                        len: 1,
                        start: rows.len(),
                    });
                    held = 1;
                }
            }
            rows.push(row);
        }
        Self { runs, rows }
    }

    fn row_of(&self, id: PathId) -> Option<usize> {
        let at = self.runs.partition_point(|run| run.first <= id.0);
        let run = self.runs.get(at.checked_sub(1)?)?;
        let slot = id.0 - run.first;
        if slot >= run.len {
            return None;
        }
        let row = *self.rows.get(run.start + slot as usize)?;
        (row != NO_ROW).then_some(row as usize)
    }

    /// Every resolved id with its row, ascending by id: the runs in order,
    /// each run's slots in order, gaps skipped.
    fn by_id(&self) -> impl Iterator<Item = (PathId, usize)> + '_ {
        self.runs.iter().flat_map(move |run| {
            let slots = self.rows.get(run.start..run.start + run.len as usize);
            (0..run.len)
                .zip(slots.unwrap_or_default())
                .filter(|&(_, &row)| row != NO_ROW)
                .map(move |(slot, &row)| (PathId(run.first + slot), row as usize))
        })
    }
}

/// A constructed probe matrix: the selected probe paths plus metadata.
#[derive(Clone, Debug)]
pub struct ProbeMatrix {
    /// Size of the physical link universe (links are `0..num_links`).
    pub num_links: usize,
    /// Selected probe paths. Ids are unique but not necessarily dense:
    /// [`ProbeMatrix::from_paths`] re-numbers from 0 while
    /// [`ProbeMatrix::from_segmented`] keeps the caller's (range-based)
    /// ids. Resolve an id with [`ProbeMatrix::path`] instead of indexing
    /// `paths` by `id.index()`.
    pub paths: Vec<ProbePath>,
    /// Targets achieved by the construction.
    pub achieved: Achieved,
    /// Links of the universe that no candidate path covered (these can
    /// never be monitored by this candidate set).
    pub uncoverable: Vec<LinkId>,
    /// Resolves path ids to rows (dense or segmented).
    index: PathIndex,
}

impl ProbeMatrix {
    /// Builds a probe matrix directly from externally selected paths
    /// (used by the baseline systems, whose "selection" is all-pairs).
    /// Paths are re-numbered densely from 0.
    pub fn from_paths(num_links: usize, paths: Vec<ProbePath>) -> Self {
        let paths: Vec<ProbePath> = paths
            .into_iter()
            .enumerate()
            .map(|(i, p)| p.with_id(PathId(i as u32)))
            .collect();
        Self::assemble(num_links, paths, PathIndex::Dense)
    }

    /// Builds a probe matrix from paths that keep their own (segmented)
    /// ids — the incremental planner's assembly path, where each plan
    /// cell numbers its paths inside a stable
    /// [`PathIdRange`](crate::types::PathIdRange) and the ranges leave
    /// headroom gaps between cells. Ids must be unique; row order is the
    /// caller's path order (cell order, not id order — a re-based cell's
    /// range may sort after a later cell's).
    pub fn from_segmented(num_links: usize, paths: Vec<ProbePath>) -> Self {
        let index = PathIndex::Segmented(RowTable::build(&paths));
        Self::assemble(num_links, paths, index)
    }

    fn assemble(num_links: usize, paths: Vec<ProbePath>, index: PathIndex) -> Self {
        let mut covered = vec![false; num_links];
        for p in &paths {
            for l in p.links() {
                if l.index() < num_links {
                    covered[l.index()] = true;
                }
            }
        }
        let uncoverable = (0..num_links)
            .filter(|&i| !covered[i])
            .map(|i| LinkId(i as u32))
            .collect();
        Self {
            num_links,
            paths,
            achieved: Achieved {
                coverage: 0,
                identifiability: 0,
                targets_met: false,
            },
            uncoverable,
            index,
        }
    }

    /// The row index of the path with id `id`, if deployed.
    pub fn row_of(&self, id: PathId) -> Option<usize> {
        match &self.index {
            PathIndex::Dense => (id.index() < self.paths.len()).then(|| id.index()),
            PathIndex::Segmented(table) => table.row_of(id),
        }
    }

    /// The path with id `id`, if deployed. Unknown ids (e.g. counters
    /// reported against a pre-re-base pinglist) resolve to `None` —
    /// segmented allocation never reuses a retired id within a run, so a
    /// stale id can be dropped but can never alias another path.
    pub fn path(&self, id: PathId) -> Option<&ProbePath> {
        self.row_of(id).map(|row| &self.paths[row])
    }

    /// Every path's id and row, in ascending id order — not row order: a
    /// segmented matrix keeps its cells' order, and a re-based cell's
    /// range sorts after later cells'. Walks the row table, so it neither
    /// sorts nor allocates.
    pub fn rows_by_id(&self) -> impl Iterator<Item = (PathId, usize)> + '_ {
        let (dense, table) = match &self.index {
            PathIndex::Dense => (self.paths.len(), None),
            PathIndex::Segmented(table) => (0, Some(table)),
        };
        let dense = (0..dense).map(|row| (PathId(row as u32), row));
        dense.chain(table.into_iter().flat_map(RowTable::by_id))
    }

    /// Overrides the achieved targets (used by external constructors, e.g.
    /// the symmetry-reduction driver in `detector-topology`, which certify
    /// properties through their own reasoning).
    pub fn with_achieved(mut self, achieved: Achieved) -> Self {
        self.achieved = achieved;
        self
    }

    /// Number of selected paths (rows of the matrix).
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Iterates over the paths covering `link`.
    pub fn paths_through(&self, link: LinkId) -> impl Iterator<Item = &ProbePath> {
        self.paths.iter().filter(move |p| p.covers(link))
    }

    /// The row → links incidence: every row's links, in one flat array.
    pub fn row_links(&self) -> RowLinks {
        let mut rows = RowLinks::default();
        rows.refill(&self.paths);
        rows
    }
}

/// Result of solving one subproblem (used internally and by providers).
#[derive(Clone, Debug)]
pub struct SubSolution {
    /// Selected paths (ids are meaningless until merged).
    pub paths: Vec<ProbePath>,
    /// True when both the α and β targets were met for this subproblem.
    pub targets_met: bool,
    /// Minimum coverage achieved over the subproblem's links.
    pub coverage: u32,
    /// Number of partition cells at the end vs the number needed.
    pub cells: (u64, u64),
}

/// Constructs a probe matrix from a materialized candidate set.
///
/// `num_links` is the size of the physical-link universe; every link id in
/// `candidates` must be `< num_links`. Links that appear in no candidate are
/// reported as [`ProbeMatrix::uncoverable`] rather than treated as errors,
/// mirroring the controller's behaviour of pruning failed links from the
/// routing matrix (§6.1, footnote 4).
///
/// # Examples
///
/// ```
/// use detector_core::pmc::{construct, PmcConfig};
/// use detector_core::types::{LinkId, ProbePath};
///
/// let candidates = vec![
///     ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
///     ProbePath::from_links(1, vec![LinkId(0)]),
/// ];
/// let m = construct(2, candidates, &PmcConfig::identifiable(1)).unwrap();
/// assert_eq!(m.achieved.identifiability, 1);
/// assert_eq!(m.num_paths(), 2);
/// ```
pub fn construct(
    num_links: usize,
    candidates: Vec<ProbePath>,
    cfg: &PmcConfig,
) -> Result<ProbeMatrix, PmcError> {
    let deadline = cfg.deadline();
    for p in &candidates {
        if let Some(l) = p.links().iter().find(|l| l.index() >= num_links) {
            return Err(PmcError::UnknownLink { link: *l });
        }
    }

    let mut covered = vec![false; num_links];
    for p in &candidates {
        for l in p.links() {
            covered[l.index()] = true;
        }
    }
    let uncoverable: Vec<LinkId> = (0..num_links)
        .filter(|&i| !covered[i])
        .map(|i| LinkId(i as u32))
        .collect();

    let subproblems = if cfg.decompose {
        decompose(candidates)
    } else {
        vec![Subproblem::whole(candidates)]
    };

    // Results come back in subproblem order at any pool width, so the
    // fan-out never changes the matrix.
    let solutions = JobPool::clamped(subproblems.len())
        .run_indexed(subproblems.len(), |i| subproblems[i].solve(cfg, deadline))
        .into_iter()
        .collect::<Result<Vec<SubSolution>, PmcError>>()?;

    Ok(merge_solutions(num_links, uncoverable, solutions, cfg))
}

/// Constructs the selection for a single subproblem whose candidates are
/// produced incrementally by `provider` (the symmetry-reduction path).
///
/// The provider's universe defines the links that must be covered and
/// identified; the loop pulls candidate batches until the (α, β) targets
/// are met or the provider is exhausted.
pub fn construct_with_provider<P: CandidateProvider>(
    provider: P,
    cfg: &PmcConfig,
) -> Result<SubSolution, PmcError> {
    let deadline = cfg.deadline();
    let state = SelectionState::new(provider.universe(), cfg)?;
    lazy::run(ProviderPool::new(provider), state, cfg, deadline)
}

/// Repairs a previous solution of one subproblem after part of its
/// universe was excluded — the incremental re-plan (§4's "recompute quickly
/// when the network changes"), *seeded* with the paths of `seed`.
///
/// Every seed path that avoids the excluded links and still makes progress
/// toward the targets is pre-selected, in the order given. If the
/// survivors already meet the targets they are the result and `candidates`
/// is never looked at; otherwise the strawman greedy completes the
/// selection from the candidates that cross a link the survivors leave
/// under-covered or unidentified (no other candidate can make progress),
/// so the work is sized by what the delta broke, not by the pool. A
/// pre-selected path stands for its candidate, which is not offered again.
/// The result covers and identifies exactly what an unseeded
/// [`Subproblem::resolve`] would (same `targets_met` attainability — every
/// candidate that can help is still on the table), but its path set stays
/// as close to `seed` as the targets allow, so the dispatched pinglist
/// diff is proportional to the topology delta instead of the cell size.
///
/// The price is a path set that depends on the seed, hence on the order
/// links failed in, and may be non-minimal. The planner seeds with the
/// subproblem's pristine solution followed by the repairs in force;
/// measured that way over 300 overlapping link-down/up events on
/// VL2(20,12,2) with one to four links offline at once, the repaired plan
/// met the from-scratch plan's targets at every step and ran 114.4 paths
/// against 118.2 on average, never larger, at (1, 1); 241.9 against 237.7,
/// at most 11 larger, at (3, 1). Nothing heals the difference periodically
/// (the planner's cycle refresh re-assembles, it never re-solves); it ends
/// when the exclusions do: the planner solves a cell with no excluded link
/// canonically, with [`Subproblem::resolve`].
///
/// Deterministic: depends only on `(universe, candidates, excluded, seed)`
/// and their orders.
///
/// # Examples
///
/// ```
/// use std::collections::HashSet;
/// use detector_core::pmc::{resolve_subproblem_seeded, PmcConfig};
/// use detector_core::types::{LinkId, ProbePath};
///
/// let universe = vec![LinkId(0), LinkId(1), LinkId(2)];
/// let candidates = vec![
///     ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
///     ProbePath::from_links(1, vec![LinkId(1)]),
///     ProbePath::from_links(2, vec![LinkId(2)]),
/// ];
/// let seed = vec![candidates[1].clone(), candidates[2].clone()];
/// let dead: HashSet<LinkId> = [LinkId(0)].into_iter().collect();
/// let cfg = PmcConfig::coverage(1);
/// let sol = resolve_subproblem_seeded(&universe, &candidates, &dead, &seed, &cfg).unwrap();
/// // The surviving seed already covers links 1 and 2: nothing churns.
/// assert!(sol.targets_met);
/// assert_eq!(sol.paths, seed);
/// ```
pub fn resolve_subproblem_seeded<'a>(
    universe: &[LinkId],
    candidates: &[ProbePath],
    excluded: &HashSet<LinkId>,
    seed: impl IntoIterator<Item = &'a ProbePath>,
    cfg: &PmcConfig,
) -> Result<SubSolution, PmcError> {
    let deadline = cfg.deadline();
    let index = CandidateIndex::build(universe, candidates)?;
    let cell = index.cell(universe, candidates);
    repair_restricted(cell, excluded, seed, cfg, deadline)
}

/// Solves `cell` from scratch without the `excluded` links, with the
/// configured strategy: they leave the universe and every candidate
/// crossing one fails the pool's alive test.
pub(crate) fn solve_restricted(
    cell: IndexedCell<'_>,
    excluded: &HashSet<LinkId>,
    cfg: &PmcConfig,
    deadline: Option<Instant>,
) -> Result<SubSolution, PmcError> {
    let pool = CellPool::new(cell, excluded);
    let state = SelectionState::new(pool.universe(), cfg)?;
    match cfg.strategy {
        Strategy::Strawman => greedy::run(pool, state, cfg, deadline, |_| false),
        Strategy::Lazy => lazy::run(pool, state, cfg, deadline),
    }
}

/// Repairs `seed` on `cell` without the `excluded` links: the seed's
/// surviving paths that still make progress are pre-selected in order and
/// the strawman completes whatever they leave deficient.
pub(crate) fn repair_restricted<'a>(
    cell: IndexedCell<'_>,
    excluded: &HashSet<LinkId>,
    seed: impl IntoIterator<Item = &'a ProbePath>,
    cfg: &PmcConfig,
    deadline: Option<Instant>,
) -> Result<SubSolution, PmcError> {
    let pool = CellPool::new(cell, excluded);
    let mut state = SelectionState::new(pool.universe(), cfg)?;
    // Pre-selected survivors, counted by route. Each stands for one
    // candidate of the pool, which the completion must not offer again: a
    // from-scratch solve selects a candidate at most once, and a link left
    // with fewer than α live candidates would otherwise be "covered" by
    // probing one route twice.
    let seed = seed.into_iter();
    let mut survivors: HashMap<_, Cell<usize>> = HashMap::with_capacity(seed.size_hint().0);
    for p in seed {
        if p.is_empty() || p.links().iter().any(|l| excluded.contains(l)) {
            continue;
        }
        if state.evaluate(p)?.useful(cfg.beta) {
            state.select(p)?;
            *survivors.entry(p.route()).or_default().get_mut() += 1;
        }
    }
    greedy::run(pool, state, cfg, deadline, |candidate| {
        // (`get` + `Cell`: `get_mut` would pin the key's lifetime to the
        // map's and reject a key borrowed from the pool.)
        match survivors.get(&candidate.route()) {
            Some(left) if left.get() > 0 => {
                left.set(left.get() - 1);
                true
            }
            _ => false,
        }
    })
}

/// Merges per-subproblem solutions into a dense probe matrix.
pub(crate) fn merge_solutions(
    num_links: usize,
    uncoverable: Vec<LinkId>,
    solutions: Vec<SubSolution>,
    cfg: &PmcConfig,
) -> ProbeMatrix {
    let mut paths = Vec::new();
    let mut targets_met = uncoverable.is_empty();
    let mut coverage = u32::MAX;
    for sol in solutions {
        targets_met &= sol.targets_met;
        coverage = coverage.min(sol.coverage);
        paths.extend(sol.paths);
    }
    if coverage == u32::MAX {
        coverage = 0;
    }
    let paths: Vec<ProbePath> = paths
        .into_iter()
        .enumerate()
        .map(|(i, p)| p.with_id(PathId(i as u32)))
        .collect();
    let identifiability = if targets_met { cfg.beta } else { 0 };
    ProbeMatrix {
        num_links,
        paths,
        achieved: Achieved {
            coverage,
            identifiability,
            targets_met,
        },
        uncoverable,
        index: PathIndex::Dense,
    }
}

pub(crate) fn check_deadline(deadline: Option<Instant>, start: Instant) -> Result<(), PmcError> {
    if let Some(d) = deadline {
        // detlint::allow(determinism, reason = "PMC solver timeout check; deadlines only abort, never alter a completed plan")
        if Instant::now() > d {
            return Err(PmcError::Timeout {
                elapsed: start.elapsed(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_candidates() -> Vec<ProbePath> {
        // The routing matrix of Fig. 3: p1 = {l1, l2}, p2 = {l1, l3},
        // p3 = {l3}.
        vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
            ProbePath::from_links(2, vec![LinkId(2)]),
        ]
    }

    #[test]
    fn fig3_one_identifiable_needs_all_three_paths() {
        let m = construct(3, fig3_candidates(), &PmcConfig::identifiable(1)).unwrap();
        // p1 and p2 alone are 1-identifiable for links l1/l2/l3? No: l3 and
        // l1 have distinct sets {p2} vs {p1,p2}, l2 = {p1}; actually the
        // pair {p1, p2} distinguishes all three links, but coverage of l2
        // requires p1 and of l3 requires p2 or p3. The greedy may pick any
        // 1-identifiable subset; verify the property rather than the count.
        assert!(m.achieved.targets_met);
        assert_eq!(max_identifiability(&m, 1), 1);
    }

    #[test]
    fn fig3_two_identifiability_is_impossible() {
        // The paper notes {l1,l3} and {l2,l3} produce identical
        // observations over the full matrix, so β = 2 must fail.
        let m = construct(3, fig3_candidates(), &PmcConfig::identifiable(2)).unwrap();
        assert!(!m.achieved.targets_met);
        assert_eq!(m.achieved.identifiability, 0);
        // Even so, the matrix should still be 1-identifiable in practice.
        assert_eq!(max_identifiability(&m, 2), 1);
    }

    #[test]
    fn uncoverable_links_are_reported() {
        let m = construct(4, fig3_candidates(), &PmcConfig::coverage(1)).unwrap();
        assert_eq!(m.uncoverable, vec![LinkId(3)]);
        assert!(!m.achieved.targets_met);
    }

    #[test]
    fn coverage_two_selects_more_paths() {
        let candidates = vec![
            ProbePath::from_links(0, vec![LinkId(0)]),
            ProbePath::from_links(1, vec![LinkId(0)]),
            ProbePath::from_links(2, vec![LinkId(0)]),
        ];
        let m = construct(1, candidates, &PmcConfig::coverage(2)).unwrap();
        assert_eq!(m.num_paths(), 2);
        assert_eq!(m.achieved.coverage, 2);
        assert!(m.achieved.targets_met);
    }

    #[test]
    fn strawman_and_lazy_agree_on_targets() {
        let candidates = fig3_candidates();
        let lazy = construct(3, candidates.clone(), &PmcConfig::identifiable(1)).unwrap();
        let straw = construct(3, candidates, &PmcConfig::identifiable(1).strawman()).unwrap();
        assert_eq!(lazy.achieved.targets_met, straw.achieved.targets_met);
        assert_eq!(min_coverage(&lazy), min_coverage(&straw));
    }

    #[test]
    fn beta_four_is_rejected() {
        let err = construct(3, fig3_candidates(), &PmcConfig::identifiable(4)).unwrap_err();
        assert_eq!(err, PmcError::BetaTooLarge { beta: 4 });
    }

    #[test]
    fn unknown_link_is_rejected() {
        let err = construct(1, fig3_candidates(), &PmcConfig::coverage(1)).unwrap_err();
        assert!(matches!(err, PmcError::UnknownLink { .. }));
    }

    #[test]
    fn timeout_fires_on_zero_budget() {
        // A zero timeout must abort before any real work happens.
        let cfg = PmcConfig::identifiable(1).with_timeout(Duration::from_secs(0));
        // Build a candidate set big enough that the loop checks the clock.
        let candidates: Vec<ProbePath> = (0..2000u32)
            .map(|i| ProbePath::from_links(i, vec![LinkId(i % 97), LinkId((i * 7 + 1) % 97)]))
            .collect();
        let res = construct(97, candidates, &cfg);
        assert!(matches!(res, Err(PmcError::Timeout { .. })));
    }

    #[test]
    fn segmented_matrix_resolves_sparse_ids() {
        // Two "cells" with ranges 0..4 and 8..12, partially filled: the
        // ids are sparse overall but resolve through the index layer.
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0)]),
            ProbePath::from_links(1, vec![LinkId(1)]),
            ProbePath::from_links(8, vec![LinkId(2)]),
            ProbePath::from_links(9, vec![LinkId(0), LinkId(2)]),
        ];
        let m = ProbeMatrix::from_segmented(3, paths);
        assert_eq!(m.num_paths(), 4);
        assert_eq!(m.row_of(PathId(8)), Some(2));
        assert_eq!(m.path(PathId(9)).unwrap().links(), &[LinkId(0), LinkId(2)]);
        // Ids in the headroom gap (and retired ids) resolve to nothing.
        assert_eq!(m.row_of(PathId(2)), None);
        assert_eq!(m.path(PathId(4)), None);
        assert!(m.uncoverable.is_empty());
        // The incidence speaks rows, whatever the ids.
        assert_eq!(m.row_links().links(3), &[LinkId(0), LinkId(2)]);
    }

    fn segmented(ids: &[u32]) -> ProbeMatrix {
        let paths = ids
            .iter()
            .map(|&id| ProbePath::from_links(id, vec![LinkId(0)]));
        ProbeMatrix::from_segmented(1, paths.collect())
    }

    fn table(m: &ProbeMatrix) -> &RowTable {
        match &m.index {
            PathIndex::Segmented(table) => table,
            PathIndex::Dense => panic!("from_segmented builds a row table"),
        }
    }

    fn table_bytes(m: &ProbeMatrix) -> usize {
        let RowTable { runs, rows } = table(m);
        rows.capacity() * size_of::<u32>() + runs.capacity() * size_of::<IdRun>()
    }

    #[test]
    fn row_table_stays_proportional_to_rows_for_any_ids() {
        // Two neighbours and an id a billion away: three rows, two runs,
        // and nothing allocated for the gap between them.
        let far = 1 << 30;
        let m = segmented(&[8, 9, far]);
        assert_eq!(m.row_of(PathId(8)), Some(0));
        assert_eq!(m.row_of(PathId(9)), Some(1));
        assert_eq!(m.row_of(PathId(far)), Some(2));
        for gap in [0, 7, 10, 11, 40, far - 1, far + 1, u32::MAX] {
            assert_eq!(m.row_of(PathId(gap)), None, "id {gap}");
        }
        assert!(table_bytes(&m) < 1 << 20, "{} bytes", table_bytes(&m));
        // The last two ids of the space, in the caller's (descending) order.
        let m = segmented(&[u32::MAX, u32::MAX - 1, 0]);
        assert_eq!(m.row_of(PathId(u32::MAX)), Some(0));
        assert_eq!(m.row_of(PathId(u32::MAX - 1)), Some(1));
        assert_eq!(m.row_of(PathId(0)), Some(2));
        assert_eq!(m.row_of(PathId(u32::MAX - 2)), None);
        assert!(table_bytes(&m) < 1 << 20);
        assert_eq!(segmented(&[]).row_of(PathId(0)), None);
    }

    #[test]
    fn planner_shaped_ranges_resolve_through_one_run() {
        // Cells of 1, 40 and 3 paths under the default headroom (half
        // again, at least 8 ids): the lookup is a subtraction and a load.
        let mut ids: Vec<u32> = vec![0];
        ids.extend(9..49);
        ids.extend(69..72);
        let m = segmented(&ids);
        assert_eq!(table(&m).runs.len(), 1);
        assert_eq!(table(&m).rows.len(), 72);
    }

    proptest::proptest! {
        /// The table answers every id as the `HashMap` it replaced did:
        /// clustered, scattered and far-apart ids, in any row order.
        #[test]
        fn row_table_resolves_what_a_hash_map_resolves(
            raw in proptest::collection::vec((0u32..6, 0u32..200), 0..60),
            probes in proptest::collection::vec((0u32..6, 0u32..260), 0..60),
        ) {
            // Six clusters whose bases are 0, 2^6, 2^12 ... 2^30 apart.
            let id = |(cluster, offset): (u32, u32)| (cluster << (6 * cluster)).wrapping_add(offset);
            let mut ids: Vec<u32> = raw.iter().copied().map(id).collect();
            let mut seen = HashSet::new();
            ids.retain(|i| seen.insert(*i));
            let m = segmented(&ids);
            let reference: HashMap<u32, usize> =
                ids.iter().enumerate().map(|(row, &i)| (i, row)).collect();
            for probe in probes.iter().copied().map(id).chain(ids.iter().copied()) {
                proptest::prop_assert_eq!(
                    m.row_of(PathId(probe)), reference.get(&probe).copied(), "id {}", probe
                );
            }
            proptest::prop_assert!(table_bytes(&m) <= 192 * ids.len());
        }
    }

    #[test]
    fn dense_matrix_id_lookup_is_positional() {
        let m = construct(3, fig3_candidates(), &PmcConfig::identifiable(1)).unwrap();
        for (row, p) in m.paths.iter().enumerate() {
            assert_eq!(m.row_of(p.id), Some(row));
            assert_eq!(m.path(p.id), Some(p));
        }
        assert_eq!(m.path(PathId(m.num_paths() as u32)), None);
    }

    #[test]
    fn row_links_match_paths() {
        let m = construct(3, fig3_candidates(), &PmcConfig::identifiable(1)).unwrap();
        let rows = m.row_links();
        assert_eq!(rows.rows().count(), m.num_paths());
        for (row, p) in m.paths.iter().enumerate() {
            assert_eq!(rows.links(row as u32), p.links());
        }
        // Past the last row, a stray's included, there are no links.
        assert!(rows.links(m.num_paths() as u32).is_empty() && rows.links(u32::MAX).is_empty());
    }

    #[test]
    fn seeded_resolve_keeps_a_sufficient_seed_verbatim() {
        // Singles cover every link; the unseeded greedy would prefer the
        // pair {0,1} (one path, two links), but a seed that already meets
        // the targets must survive untouched.
        let universe = vec![LinkId(0), LinkId(1), LinkId(2)];
        let pair = ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]);
        let singles: Vec<ProbePath> = (0..3)
            .map(|l| ProbePath::from_links(1 + l, vec![LinkId(l)]))
            .collect();
        let mut candidates = vec![pair];
        candidates.extend(singles.iter().cloned());
        let cfg = PmcConfig::coverage(1);
        let sol = resolve_subproblem_seeded(
            &universe,
            &candidates,
            &std::collections::HashSet::new(),
            &singles,
            &cfg,
        )
        .unwrap();
        assert!(sol.targets_met);
        assert_eq!(sol.paths, singles);
    }

    #[test]
    fn seeded_resolve_repairs_only_what_the_exclusion_broke() {
        let universe = vec![LinkId(0), LinkId(1), LinkId(2)];
        let seed = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(2)]),
        ];
        let candidates = vec![
            seed[0].clone(),
            seed[1].clone(),
            ProbePath::from_links(2, vec![LinkId(1)]),
        ];
        let dead: std::collections::HashSet<LinkId> = [LinkId(0)].into_iter().collect();
        let cfg = PmcConfig::coverage(1);
        let sol = resolve_subproblem_seeded(&universe, &candidates, &dead, &seed, &cfg).unwrap();
        assert!(sol.targets_met);
        // The surviving seed path stays; the dead pair is replaced by the
        // one candidate that restores link 1's coverage.
        assert_eq!(sol.paths, vec![seed[1].clone(), candidates[2].clone()]);
    }

    #[test]
    fn seeded_resolve_matches_unseeded_attainability() {
        let candidates = fig3_candidates();
        let universe = vec![LinkId(0), LinkId(1), LinkId(2)];
        let cfg = PmcConfig::identifiable(1);
        let cell = Subproblem::new(universe.clone(), candidates.clone()).unwrap();
        for dead_link in 0..3u32 {
            let dead: std::collections::HashSet<LinkId> = [LinkId(dead_link)].into_iter().collect();
            let unseeded = cell.resolve(&dead, &cfg).unwrap();
            // Seed with the pristine full solve of the same cell.
            let pristine = cell.resolve(&HashSet::new(), &cfg).unwrap();
            let seeded =
                resolve_subproblem_seeded(&universe, &candidates, &dead, &pristine.paths, &cfg)
                    .unwrap();
            assert_eq!(seeded.targets_met, unseeded.targets_met, "link {dead_link}");
            assert!(
                seeded.coverage >= unseeded.coverage.min(1),
                "link {dead_link}"
            );
            assert!(seeded.paths.iter().all(|p| !p.covers(LinkId(dead_link))));
        }
    }
}
