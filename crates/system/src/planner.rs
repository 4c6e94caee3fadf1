//! The incremental probe planner: a partitioned, patchable probe plan.
//!
//! [`ProbePlan`] keeps the probe matrix *decomposed* — one [`PlanCell`]
//! per independent PMC subproblem (Observation 1 of §4.3), each holding
//! its link universe, its candidate source and its current solution.
//! When the live topology changes, [`ProbePlan::apply`] touches only the
//! cells whose universes intersect the delta and splices the result
//! back, instead of recomputing the whole matrix the way the paper's
//! controller does on its 10-minute cycle.
//!
//! Two candidate-source modes mirror the controller's former split:
//!
//! * **materialized** — small topologies enumerate every candidate once,
//!   into one flat [`PathStore`]; cells own their slice of the
//!   pristine candidate set as an indexed [`Subproblem`] — its runs of
//!   that batch — and solve on that candidate index with the offline
//!   links excluded, never on a filtered copy of the candidates;
//! * **symmetric** — large topologies never materialize candidates. One
//!   pristine base solution per isomorphism class is replicated to every
//!   component; an affected component maps its offline links back into
//!   base coordinates through [`BaseComponent::replicate_link`], wraps a
//!   fresh base provider in an [`ExcludingProvider`], solves, and
//!   replicates the restricted solution to its own coordinates only.
//!   Its provider writes each round into a [`PathStore`] as well.
//!
//! Either way a cell's solution is one [`PathStore`] of the paths it
//! selected — a replica writes its mapped runs straight into its own —
//! and [`ProbePlan::matrix`] assembles the matrix as one run copy per
//! cell, re-basing the ids into the cell's range.
//!
//! In both modes a cell whose exclusions return to empty restores its
//! cached pristine solution without solving anything, so drain/undrain
//! cycles cost one repair on the way down and nothing on the way up.
//!
//! # Repair, not re-solve
//!
//! A cell whose exclusions are non-empty is *repaired* (`repair_cell`):
//! the solve is seeded ([`Subproblem::resolve_seeded`]) with the cell's
//! pristine solution and then the repair paths it already carries, the
//! paths that survive the delta are pre-selected, and the greedy completes
//! only what is still broken. The cost and the dispatched pinglist diff
//! are proportional to the delta, not to the cell. The canonical
//! from-scratch solve runs in exactly the two places that define
//! "pristine": the boot solve of [`ProbePlan::new`] (whatever is offline
//! at boot) and a cell whose exclusions return to empty (solved once,
//! then cached).
//!
//! A repaired plan therefore depends on the order links failed in, and is
//! *not* path-for-path the plan a fresh [`ProbePlan::new`] over the same
//! offline set builds. What a patched plan guarantees instead (asserted by
//! the `live_topology` and `planner_index` tests at every step of random
//! event sequences):
//!
//! * it achieves exactly what the from-scratch plan achieves — the same
//!   certified targets ([`Achieved`]; coverage up to α, what either plan
//!   covers beyond it is incidental), the same
//!   [`ProbeMatrix::uncoverable`] links, the same coverage and
//!   identifiability under `pmc::verify` over the online links — because
//!   every candidate that can still make progress stays on the table;
//! * no path crosses an offline link;
//! * every path that stays in the plan keeps its in-cell slot, hence its
//!   `PathId` and entry bytes (only when a cell shrinks do tail paths
//!   move forward into vacated slots);
//! * whenever no link of a cell is offline the cell is bit-identical to a
//!   clean boot — exclusions empty ⇒ canonical — so whatever a repair
//!   costs ends when the outage does, and two controllers that restarted
//!   at different moments converge.
//!
//! What a repair costs is plan size, and it is measured, not bounded by
//! construction. A materialized cell under link-level churn stays within
//! a few paths per offline link of the from-scratch plan: over 300
//! overlapping link-down/up events on VL2(20,12,2) at the default (3, 1)
//! it averaged 241.9 paths against 237.7 and was at most 4 paths larger
//! with one link offline, 11 with up to four; at (1, 1) it averaged 114.4
//! against 118.2 and was never larger (`planner_index`'s churn walk pins
//! `+2 per offline link + 2`). Whole-switch and pod drains, and replica
//! cells — which complete from the paths of one fresh solve rather than
//! from every candidate — run further off: Fattree(4) with a pod drained
//! 16 paths against 12, a Fattree(6) replica cell with one link down 72
//! against 67.
//!
//! # Segmented path-id allocation
//!
//! Every cell owns a stable [`PathIdRange`]: its paths are numbered
//! densely from the range's base, and the range reserves *headroom*
//! (IdHeadroom) beyond the current path count. A re-solve that
//! changes one cell's path count therefore never shifts any other cell's
//! ids — pinglists of untouched cells stay bit-identical and are not
//! re-dispatched. Only when a cell's solution outgrows its capacity is
//! the cell *re-based* onto a fresh range allocated past every existing
//! one ([`ReplanStats::cells_rebased`]); retired ranges are never reused
//! within a plan's lifetime, so a stale id can never alias a live path.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use detector_core::pmc::{
    construct_with_provider, decompose, Achieved, ExcludingProvider, JobPool, PmcConfig, PmcError,
    ProbeMatrix, SubSolution, Subproblem,
};
use detector_core::types::{LinkId, PathIdRange, PathStore};
use detector_topology::{BaseComponent, ReplicateLinkFn, ReplicateNodeFn, SharedTopology};

/// Below this many original paths the planner materializes the full
/// candidate set; above it, the symmetry plan is used (same threshold the
/// controller has always applied).
pub const EXHAUSTIVE_LIMIT: u128 = 300_000;

/// Headroom policy for per-cell [`PathIdRange`]s: how much slack a
/// cell's range reserves beyond its current path count, so ordinary
/// churn re-solves stay inside the range and never force a re-base.
///
/// A range for `len` paths gets `len + max(len · pct / 100, min)` ids.
/// The defaults (50 %, minimum 8) absorb any realistic growth of a
/// restricted re-solve; [`IdHeadroom::NONE`] reserves nothing, making
/// every growth an overflow — which is how the re-base path is tested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdHeadroom {
    /// Slack as a percentage of the cell's path count.
    pub pct: u32,
    /// Minimum slack in ids, regardless of cell size.
    pub min: u32,
}

impl Default for IdHeadroom {
    fn default() -> Self {
        Self { pct: 50, min: 8 }
    }
}

impl IdHeadroom {
    /// No headroom at all: capacity equals the current path count.
    pub const NONE: Self = Self { pct: 0, min: 0 };

    /// Range capacity for a cell currently holding `len` paths.
    pub fn capacity(&self, len: usize) -> u32 {
        let len = len as u64;
        let slack = (len * u64::from(self.pct) / 100).max(u64::from(self.min));
        // detlint::allow(panic_path, reason = "overflows only for a cell of ~2^32 paths, which no matrix can hold: ProbeMatrix rows are u32-indexed")
        u32::try_from(len + slack).expect("path-id space exhausted")
    }
}

/// Where a cell's candidates come from when it must be re-solved.
#[derive(Clone, Debug)]
enum CellSource {
    /// The cell's pristine candidate slice, fully materialized as one
    /// flat batch and indexed once; shared, so cloning a plan copies no
    /// candidate.
    Materialized(Arc<Subproblem>),
    /// Replica `replica` of symmetry base `base`: candidates are pulled
    /// from a fresh base provider and re-homed on demand.
    Replica { base: usize, replica: u32 },
}

/// One independent subproblem of the partitioned plan.
#[derive(Clone, Debug)]
struct PlanCell {
    /// Sorted link universe (in final/replica coordinates).
    universe: Vec<LinkId>,
    /// Sorted offline links currently excluded from this cell.
    excluded: Vec<LinkId>,
    source: CellSource,
    /// Current solution, paths in final coordinates.
    solution: SubSolution,
    /// While a link is excluded, the pristine (no-exclusion) solution to
    /// restore in O(1) on healing (`None` if the cell was born degraded);
    /// with nothing excluded, it is `solution` and is not copied.
    pristine: Option<SubSolution>,
    /// The stable id range this cell numbers its paths from. Re-assigned
    /// only when the solution outgrows the range (a re-base).
    range: PathIdRange,
}

impl PlanCell {
    fn intersects(&self, links: &[LinkId]) -> bool {
        links.iter().any(|l| self.universe.binary_search(l).is_ok())
    }

    /// The pristine solution, if the cell knows it.
    fn pristine(&self) -> Option<&SubSolution> {
        (self.excluded.is_empty().then_some(&self.solution)).or(self.pristine.as_ref())
    }
}

/// What one [`ProbePlan::apply`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplanStats {
    /// Cells re-solved from their candidate source.
    pub cells_resolved: usize,
    /// Cells restored from their cached pristine solution (no solving).
    pub cells_restored: usize,
    /// Total cells in the plan.
    pub cells_total: usize,
    /// Cells whose new solution overflowed their id range and were moved
    /// to a fresh range (their paths — and only theirs — change ids).
    pub cells_rebased: usize,
}

/// A partitioned, incrementally patchable probe plan.
#[derive(Clone)]
pub struct ProbePlan {
    topo: SharedTopology,
    cfg: PmcConfig,
    num_links: usize,
    cells: Vec<PlanCell>,
    /// Offline probe links currently applied to the plan.
    offline: HashSet<LinkId>,
    /// Headroom policy for cell id ranges.
    headroom: IdHeadroom,
    /// First path id past every range ever allocated; re-bases allocate
    /// from here, so retired ids are never reused.
    next_base: u32,
}

impl ProbePlan {
    /// Builds a plan for `topo` with `offline` links excluded from the
    /// start, choosing materialized vs symmetric mode by
    /// [`EXHAUSTIVE_LIMIT`].
    pub fn new(
        topo: SharedTopology,
        cfg: &PmcConfig,
        offline: &HashSet<LinkId>,
    ) -> Result<Self, PmcError> {
        Self::with_exhaustive_limit(topo, cfg, offline, EXHAUSTIVE_LIMIT)
    }

    /// [`ProbePlan::new`] with an explicit materialization threshold.
    /// Tables and tests use 0 to force the symmetric path: the paper's
    /// symmetry-reduced construction (§4.3), as large topologies boot.
    pub fn with_exhaustive_limit(
        topo: SharedTopology,
        cfg: &PmcConfig,
        offline: &HashSet<LinkId>,
        exhaustive_limit: u128,
    ) -> Result<Self, PmcError> {
        Self::with_options(topo, cfg, offline, exhaustive_limit, IdHeadroom::default())
    }

    /// Fully explicit construction: materialization threshold plus the
    /// id-range headroom policy.
    pub fn with_options(
        topo: SharedTopology,
        cfg: &PmcConfig,
        offline: &HashSet<LinkId>,
        exhaustive_limit: u128,
        headroom: IdHeadroom,
    ) -> Result<Self, PmcError> {
        let num_links = topo.probe_links();
        let offline: HashSet<LinkId> = offline
            .iter()
            .copied()
            .filter(|l| l.index() < num_links)
            .collect();
        let mut cells = if topo.original_path_count() <= exhaustive_limit {
            Self::build_materialized(&topo, cfg, &offline)?
        } else {
            Self::build_symmetric(&topo, cfg, &offline)?
        };
        // Assign every cell its initial id range, in cell order.
        let mut next_base = 0u32;
        for cell in &mut cells {
            let capacity = headroom.capacity(cell.solution.paths.len());
            cell.range = PathIdRange::new(next_base, capacity);
            next_base = cell.range.end();
        }
        Ok(Self {
            topo,
            cfg: cfg.clone(),
            num_links,
            cells,
            offline,
            headroom,
            next_base,
        })
    }

    fn build_materialized(
        topo: &SharedTopology,
        cfg: &PmcConfig,
        offline: &HashSet<LinkId>,
    ) -> Result<Vec<PlanCell>, PmcError> {
        // Decompose the *pristine* candidate set so the cell partition is
        // independent of the current exclusions (a mutated topology could
        // otherwise split components and break incremental/from-scratch
        // agreement). `cfg.decompose == false` keeps the single-cell
        // monolith, exactly like `construct`'s strawman path.
        let candidates = topo.enumerate_candidates();
        let subproblems = if cfg.decompose {
            decompose(candidates)
        } else {
            vec![Subproblem::whole(candidates)]
        };

        // The pristine candidates stay in the cells, indexed, for future
        // repairs; the boot solve is the canonical one — from scratch,
        // whatever is offline — over the same fan-out a patch uses.
        let mut cells: Vec<PlanCell> = subproblems
            .into_iter()
            .map(|sp| {
                let universe = sp.universe().to_vec();
                PlanCell {
                    excluded: cell_exclusions(&universe, offline),
                    universe,
                    source: CellSource::Materialized(Arc::new(sp)),
                    // Filled in below.
                    solution: SubSolution {
                        paths: PathStore::default(),
                        targets_met: false,
                        coverage: 0,
                        cells: (0, 0),
                    },
                    pristine: None,
                    range: PathIdRange::default(), // Assigned by the constructor.
                }
            })
            .collect();
        let solutions = solve_batch(&cells, |cell| solve_cell(topo, cfg, cell, &cell.excluded))?;
        for (cell, solution) in cells.iter_mut().zip(solutions) {
            cell.solution = solution;
        }
        Ok(cells)
    }

    fn build_symmetric(
        topo: &SharedTopology,
        cfg: &PmcConfig,
        offline: &HashSet<LinkId>,
    ) -> Result<Vec<PlanCell>, PmcError> {
        let plan = topo.symmetry();
        let mut cells = Vec::new();
        for (bi, base) in plan.bases.into_iter().enumerate() {
            let BaseComponent {
                provider,
                replicas,
                replicate_node,
                replicate_link,
            } = base;
            let base_universe = provider.universe().to_vec();

            // Per-replica universes and exclusion sets.
            let mut metas = Vec::with_capacity(replicas as usize);
            let mut any_pristine = false;
            for r in 0..replicas {
                let mut universe: Vec<LinkId> = base_universe
                    .iter()
                    .map(|&l| replicate_link(l, r))
                    .collect();
                universe.sort_unstable();
                let excluded = cell_exclusions(&universe, offline);
                any_pristine |= excluded.is_empty();
                metas.push((universe, excluded));
            }

            // One pristine base solve, shared by every unaffected replica
            // (skipped entirely when all replicas carry exclusions).
            let pristine_base = if any_pristine {
                Some(construct_with_provider(provider, cfg)?)
            } else {
                None
            };

            for (r, (universe, excluded)) in metas.into_iter().enumerate() {
                let r = r as u32;
                let solution = match &pristine_base {
                    Some(base_sol) if excluded.is_empty() => {
                        replicate_solution(base_sol, r, &replicate_node, &replicate_link)
                    }
                    _ => resolve_replica(topo, cfg, bi, r, &excluded)?,
                };
                cells.push(PlanCell {
                    universe,
                    excluded,
                    source: CellSource::Replica {
                        base: bi,
                        replica: r,
                    },
                    solution,
                    pristine: None,
                    range: PathIdRange::default(), // Assigned by the constructor.
                });
            }
        }
        Ok(cells)
    }

    /// The size of the probe-link universe this plan covers.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Paths the plan deploys: the rows [`matrix`](Self::matrix)
    /// assembles.
    pub fn num_paths(&self) -> usize {
        self.cells.iter().map(|c| c.solution.paths.len()).sum()
    }

    /// Number of independent cells (subproblems) in the plan.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The id range of every cell, in cell order. Ranges are disjoint;
    /// a cell that was re-based sits past every older range.
    pub fn cell_ranges(&self) -> Vec<PathIdRange> {
        self.cells.iter().map(|c| c.range).collect()
    }

    /// Indices of the cells whose universes intersect `links` — exactly
    /// the cells a delta over those links can touch.
    pub fn cells_touching(&self, links: &[LinkId]) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.intersects(links))
            .map(|(i, _)| i)
            .collect()
    }

    /// Patches the plan for a topology delta: `changed` are the links
    /// whose up/down state flipped, `offline` the complete offline set
    /// after the change. Only cells whose universes intersect the change
    /// are touched. A touched cell that still has a link offline is
    /// *repaired* — seeded with its pristine solution and the repairs in
    /// force, see the module doc; one whose exclusions empty out restores
    /// its cached pristine solution without solving — or, if it was born
    /// degraded, is solved canonically once and cached.
    ///
    /// The patch is atomic: every affected cell is solved first and
    /// the plan mutates only after all succeed, so an error (e.g.
    /// [`PmcError::Timeout`] under a configured budget) leaves the plan
    /// in its previous consistent state. `changed` is a hint — the plan
    /// additionally diffs `offline` against its own applied set, so a
    /// retry after a failed patch re-covers the links the failed call
    /// never committed.
    pub fn apply(
        &mut self,
        changed: &[LinkId],
        offline: &HashSet<LinkId>,
    ) -> Result<ReplanStats, PmcError> {
        let mut stats = ReplanStats {
            cells_total: self.cells.len(),
            ..Default::default()
        };
        let offline: HashSet<LinkId> = offline
            .iter()
            .copied()
            .filter(|l| l.index() < self.num_links)
            .collect();
        // The caller's delta, plus anything the applied set disagrees on
        // (non-empty only after a previous apply() failed mid-flight).
        let mut all_changed: Vec<LinkId> = changed
            .iter()
            .copied()
            .chain(offline.symmetric_difference(&self.offline).copied())
            .collect();
        all_changed.sort_unstable();
        all_changed.dedup();

        // Phase 1: classify every affected cell, touching nothing.
        // Restores (`None`: the cached pristine solution moves back in)
        // cost nothing; the rest are solved from their candidate sources.
        let mut patches: Vec<(usize, Vec<LinkId>, Option<SubSolution>)> = Vec::new();
        let mut solves: Vec<(usize, &PlanCell, Vec<LinkId>)> = Vec::new();
        for (ci, cell) in self.cells.iter().enumerate() {
            if !cell.intersects(&all_changed) {
                continue;
            }
            let new_excluded = cell_exclusions(&cell.universe, &offline);
            if new_excluded == cell.excluded {
                continue;
            }
            match &cell.pristine {
                Some(_) if new_excluded.is_empty() => {
                    patches.push((ci, new_excluded, None));
                    stats.cells_restored += 1;
                }
                _ => {
                    solves.push((ci, cell, new_excluded));
                    stats.cells_resolved += 1;
                }
            }
        }

        // Phase 1b: repair what still has a link offline; solve a
        // born-degraded cell that just healed canonically, so the
        // solution cached as pristine below never depends on history.
        let (topo, cfg) = (&self.topo, &self.cfg);
        let solutions = solve_batch(&solves, |(_, cell, excluded)| {
            if excluded.is_empty() {
                solve_cell(topo, cfg, cell, excluded)
            } else {
                repair_cell(topo, cfg, cell, excluded)
            }
        })?;
        patches.extend(
            solves
                .into_iter()
                .zip(solutions)
                .map(|((ci, _, ex), sol)| (ci, ex, Some(sol))),
        );

        // Phase 2: commit. A cell whose new solution fits its range keeps
        // the range (its ids — and every other cell's — are unchanged);
        // an overflowing cell is re-based onto a fresh range past every
        // id ever allocated.
        self.offline = offline;
        for (ci, new_excluded, solution) in patches {
            // `ci` came from enumerating `self.cells` in phase 1.
            let Some(cell) = self.cells.get_mut(ci) else {
                continue;
            };
            // A restore takes the pristine solution back; a cell that was
            // whole and is now degraded keeps the one it had as pristine.
            let Some(solution) = solution.or_else(|| cell.pristine.take()) else {
                continue;
            };
            let was_whole = cell.excluded.is_empty();
            let old = std::mem::replace(&mut cell.solution, solution);
            if new_excluded.is_empty() {
                cell.pristine = None;
            } else if was_whole {
                cell.pristine = Some(old);
            }
            cell.excluded = new_excluded;
            if !cell.range.fits(cell.solution.paths.len()) {
                let capacity = self.headroom.capacity(cell.solution.paths.len());
                match self.next_base.checked_add(capacity) {
                    Some(end) => {
                        cell.range = PathIdRange::new(self.next_base, capacity);
                        self.next_base = end;
                        stats.cells_rebased += 1;
                    }
                    None => {
                        // The u32 id space is exhausted (only reachable
                        // after ~4 billion ids of churn): compact every
                        // range back to 0 — a one-off global re-base
                        // that re-dispatches the whole fabric instead of
                        // silently wrapping ids onto live low ranges.
                        self.compact_ranges();
                        stats.cells_rebased = self.cells.len();
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Reassigns every cell a fresh range from id 0 in cell order — the
    /// id-space-exhaustion fallback. All retired-id guarantees reset:
    /// every pinglist re-dispatches on the next deployment.
    fn compact_ranges(&mut self) {
        self.next_base = 0;
        for cell in &mut self.cells {
            let capacity = self.headroom.capacity(cell.solution.paths.len());
            cell.range = PathIdRange::new(self.next_base, capacity);
            self.next_base = self
                .next_base
                .checked_add(capacity)
                // detlint::allow(panic_path, reason = "ranges are packed from 0 here, so this overflows only if live paths plus headroom exceed 2^32 — more rows than a u32-indexed ProbeMatrix can hold")
                .expect("live plan exceeds the u32 path-id space even when compacted");
        }
    }

    /// Test hook: fast-forwards the allocator to the top of the id
    /// space so the exhaustion fallback can be exercised without 4
    /// billion re-bases.
    #[cfg(test)]
    fn exhaust_id_space_for_test(&mut self) {
        self.next_base = u32::MAX - 1;
    }

    /// Assembles the current per-cell solutions into a *segmented* probe
    /// matrix: each cell's paths are numbered densely within the cell's
    /// stable [`PathIdRange`], so the ids of a cell survive any re-solve
    /// of another cell bit-for-bit. Offline links appear in
    /// [`ProbeMatrix::uncoverable`] (no selected path crosses them), and
    /// the achieved targets are the conjunction over cells.
    pub fn matrix(&self) -> ProbeMatrix {
        let mut paths = PathStore::default();
        paths.reserve_all(self.cells.iter().map(|c| &c.solution.paths));
        let mut targets_met = true;
        let mut coverage = u32::MAX;
        for cell in &self.cells {
            targets_met &= cell.solution.targets_met;
            coverage = coverage.min(cell.solution.coverage);
            debug_assert!(
                cell.range.fits(cell.solution.paths.len()),
                "cell solution exceeds its id range (missed re-base)"
            );
            paths.extend_from(&cell.solution.paths, |i| cell.range.id(i));
        }
        if coverage == u32::MAX {
            coverage = 0;
        }
        let matrix = ProbeMatrix::from_segmented(self.num_links, paths);
        let targets_met = targets_met && matrix.uncoverable.is_empty();
        let achieved = Achieved {
            coverage,
            identifiability: if targets_met { self.cfg.beta } else { 0 },
            targets_met,
        };
        matrix.with_achieved(achieved)
    }
}

impl core::fmt::Debug for ProbePlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProbePlan")
            .field("topology", &self.topo.name())
            .field("num_links", &self.num_links)
            .field("cells", &self.cells.len())
            .field("offline", &self.offline.len())
            .finish()
    }
}

/// Runs `solve` over `jobs`, solutions in job order. Several cells (a pod
/// drain touching every group, or the first build) fan out over a
/// [`JobPool::clamped`] pool, one worker per cell up to the host's
/// parallelism; a lone cell runs inline. Each cell's solve is
/// deterministic and derives its own deadline from `cfg.timeout`, so only
/// the schedule differs, never the result.
fn solve_batch<J: Sync>(
    jobs: &[J],
    solve: impl Fn(&J) -> Result<SubSolution, PmcError> + Sync,
) -> Result<Vec<SubSolution>, PmcError> {
    JobPool::clamped(jobs.len())
        .run_indexed(jobs.len(), |i| {
            // detlint::allow(panic_path, reason = "run_indexed calls the job with i < jobs.len()")
            solve(&jobs[i])
        })
        .into_iter()
        .collect()
}

/// The canonical solve of one cell: from scratch over its candidate
/// source, `excluded` left out, independent of the cell's current
/// solution. Defines the boot plan and every pristine solution.
fn solve_cell(
    topo: &SharedTopology,
    cfg: &PmcConfig,
    cell: &PlanCell,
    excluded: &[LinkId],
) -> Result<SubSolution, PmcError> {
    match &cell.source {
        CellSource::Materialized(sp) => sp.resolve(&excluded.iter().copied().collect(), cfg),
        CellSource::Replica { base, replica } => {
            resolve_replica(topo, cfg, *base, *replica, excluded)
        }
    }
}

/// Repairs one cell against a non-empty exclusion set. The solve is
/// seeded with the cell's pristine solution first, then with the repair
/// paths its current solution carries: whatever of both survives the delta
/// and still makes progress is pre-selected, in that order, and the greedy
/// completes only what is still broken — so the work and the dispatched
/// pinglist diff stay proportional to the delta instead of the cell size.
///
/// Pristine first is what keeps overlapping outages from piling up: when
/// one of several offline links returns, its pristine paths come back and
/// the repairs that stood in for them, evaluated after, are no longer
/// useful and drop out, while the repairs of links still offline stay
/// where they are. (Seeded with the current solution alone, a repair made
/// early keeps its slot and its turn, stays "useful" there, and the plan
/// grows with every flap: 285 paths on average against 238 from scratch,
/// at worst 85 more, over 300 overlapping events on VL2(20,12,2) at
/// (3, 1) with up to four links offline — 242 and 11 with this order,
/// and fewer rows re-dispatched per event, 4.8 against 5.5.) A cell born
/// degraded has no pristine solution until it first heals and repairs
/// from its current one.
///
/// A materialized cell completes from its candidate index; a replica
/// cell from the paths of a fresh excluded replica solve (pulling the
/// seed back into base coordinates would need the inverse of the
/// replicate map, which symmetry plans do not expose).
fn repair_cell(
    topo: &SharedTopology,
    cfg: &PmcConfig,
    cell: &PlanCell,
    excluded: &[LinkId],
) -> Result<SubSolution, PmcError> {
    let excluded_set: HashSet<LinkId> = excluded.iter().copied().collect();
    let current = &cell.solution.paths;
    let pristine = cell.pristine().into_iter().flat_map(|p| p.paths.iter());
    let pristine_routes: HashSet<_> = pristine.clone().map(|p| p.route()).collect();
    let repairs = current
        .iter()
        .filter(|p| !pristine_routes.contains(&p.route()));
    let seed = pristine.chain(repairs);
    let repaired = match &cell.source {
        CellSource::Materialized(sp) => sp.resolve_seeded(&excluded_set, seed, cfg)?,
        CellSource::Replica { .. } => {
            let pool = solve_cell(topo, cfg, cell, excluded)?.paths;
            let pool = Subproblem::new(cell.universe.clone(), pool)?;
            pool.resolve_seeded(&excluded_set, seed, cfg)?
        }
    };
    Ok(align_with_previous(current, repaired))
}

/// The sorted intersection of a cell universe with the offline set.
fn cell_exclusions(universe: &[LinkId], offline: &HashSet<LinkId>) -> Vec<LinkId> {
    universe
        .iter()
        .copied()
        .filter(|l| offline.contains(l))
        .collect()
}

/// Re-orders a repaired solution so every path the cell already probes
/// keeps its in-cell index — and with it its dense-range `PathId`, its
/// entry bytes and its pinger assignment — so the dispatched diff touches
/// only genuinely changed paths. New paths fill the vacated slots in
/// ascending order and spares append past the old length; when the
/// solution shrank instead, tail paths move forward into the remaining
/// holes (the minimal id churn a dense range permits).
///
/// Linear in `old` + `new`: one map from route to the slot holding it
/// (`align_by_search`, the quadratic search this replaced, is the test
/// reference). A route `old` holds more than once hands out its slots in
/// ascending order.
fn align_with_previous(old: &PathStore, mut new: SubSolution) -> SubSolution {
    const TAKEN: u32 = u32::MAX;
    // Route → its first free slot; `next_same` chains a slot to the next
    // one holding the same route.
    let mut next_same = vec![TAKEN; old.len()];
    let mut free: HashMap<_, Cell<u32>> = HashMap::with_capacity(old.len());
    for (slot, (p, next)) in old.iter().zip(&mut next_same).enumerate().rev() {
        if let Some(later) = free.insert(p.route(), Cell::new(slot as u32)) {
            *next = later.get();
        }
    }
    // Per slot, the new path (its position in `new`) that fills it.
    let mut slots: Vec<Option<usize>> = vec![None; old.len()];
    let mut fresh = Vec::new();
    for (at, p) in new.paths.iter().enumerate() {
        let slot = free.get(&p.route()).and_then(|first| {
            let slot = first.get() as usize;
            first.set(*next_same.get(slot)?);
            Some(slot)
        });
        match slot.and_then(|slot| slots.get_mut(slot)) {
            Some(kept) => *kept = Some(at),
            None => fresh.push(at),
        }
    }
    let mut fresh = fresh.into_iter();
    for slot in slots.iter_mut().filter(|s| s.is_none()) {
        *slot = fresh.next();
    }
    slots.extend(fresh.map(Some));
    // Shrunk: the last path moves into the first hole until none is left.
    let (mut lo, mut hi) = (0, slots.len());
    loop {
        while lo < hi && slots.get(lo).is_some_and(Option::is_some) {
            lo += 1;
        }
        while lo < hi && slots.get(hi - 1).is_some_and(Option::is_none) {
            hi -= 1;
        }
        if lo >= hi {
            break;
        }
        slots.swap(lo, hi - 1);
    }
    new.paths = in_order(&new.paths, slots.into_iter().flatten());
    new
}

/// The paths of `paths` at positions `order`, in that order.
fn in_order(paths: &PathStore, order: impl IntoIterator<Item = usize>) -> PathStore {
    let mut out = PathStore::default();
    out.reserve_all([paths]);
    for at in order {
        out.push_path(paths.get(at));
    }
    out
}

/// [`align_with_previous`] as it was before the seed's order was put to
/// use: every old path searches all of `new` for its route. Quadratic, and
/// correct for any `new`; kept as the reference the one-pass version is
/// proptested against.
#[cfg(test)]
fn align_by_search(old: &PathStore, mut new: SubSolution) -> SubSolution {
    let mut fresh: Vec<Option<usize>> = (0..new.paths.len()).map(Some).collect();
    let mut slots: Vec<Option<usize>> = old
        .iter()
        .map(|o| {
            fresh
                .iter_mut()
                .find(|s| s.is_some_and(|n| new.paths.get(n).route() == o.route()))
                .and_then(Option::take)
        })
        .collect();
    let mut spares: std::collections::VecDeque<usize> = fresh.into_iter().flatten().collect();
    for slot in slots.iter_mut() {
        if slot.is_none() {
            if let Some(f) = spares.pop_front() {
                *slot = Some(f);
            }
        }
    }
    slots.extend(spares.into_iter().map(Some));
    let mut i = 0;
    while i < slots.len() {
        if slots[i].is_some() {
            i += 1;
            continue;
        }
        while matches!(slots.last(), Some(None)) {
            slots.pop();
        }
        if i + 1 >= slots.len() {
            slots.truncate(i);
            break;
        }
        let last = slots
            .pop()
            .expect("checked non-empty")
            .expect("trailing holes dropped");
        slots[i] = Some(last);
        i += 1;
    }
    new.paths = in_order(&new.paths, slots.into_iter().flatten());
    new
}

/// Re-homes a base solution onto replica `r` through the base's node
/// and link maps: the replica's paths are written straight into a store
/// of their own, reserved at the base's size.
fn replicate_solution(
    base: &SubSolution,
    r: u32,
    node: &ReplicateNodeFn,
    link: &ReplicateLinkFn,
) -> SubSolution {
    let mut paths = PathStore::default();
    paths.reserve_all([&base.paths]);
    paths.extend_mapped(&base.paths, |n| node(n, r), |l| link(l, r));
    SubSolution {
        paths,
        targets_met: base.targets_met,
        coverage: base.coverage,
        cells: base.cells,
    }
}

/// Re-solves replica `replica` of symmetry base `base_idx` with
/// exclusions: pull the excluded links back into base coordinates, solve
/// a fresh excluded base provider, and replicate the restricted solution
/// out to the replica. `excluded` is sorted.
fn resolve_replica(
    topo: &SharedTopology,
    cfg: &PmcConfig,
    base_idx: usize,
    replica: u32,
    excluded: &[LinkId],
) -> Result<SubSolution, PmcError> {
    let base = topo
        .symmetry()
        .bases
        .into_iter()
        .nth(base_idx)
        // detlint::allow(panic_path, reason = "base_idx indexed this topology's symmetry().bases when the cell was built, and symmetry() is a pure function of the immutable topology")
        .expect("symmetry plan must be stable across calls");
    // Exclusions are drawn from the cell universe (`cell_exclusions`),
    // which is the base universe's image in the replica.
    let excluded_base: HashSet<LinkId> = (base.provider.universe().iter().copied())
        .filter(|&l| {
            excluded
                .binary_search(&(base.replicate_link)(l, replica))
                .is_ok()
        })
        .collect();
    let sol = construct_with_provider(ExcludingProvider::new(base.provider, excluded_base), cfg)?;
    Ok(replicate_solution(
        &sol,
        replica,
        &base.replicate_node,
        &base.replicate_link,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::types::{NodeId, ProbePath};
    use detector_topology::{DcnTopology, Fattree, TopologyEvent, TopologyView};

    fn shared(k: u32) -> SharedTopology {
        Arc::new(Fattree::new(k).unwrap())
    }

    /// Bit-exact equality, ids included — holds within one plan's
    /// lifetime (e.g. a drain/undrain round trip restores the identical
    /// segmented matrix).
    fn assert_matrices_equal(a: &ProbeMatrix, b: &ProbeMatrix) {
        assert_eq!(a.num_links, b.num_links);
        assert_eq!(a.achieved, b.achieved);
        assert_eq!(a.uncoverable, b.uncoverable);
        assert_eq!(a.paths.len(), b.paths.len());
        for (pa, pb) in a.paths.iter().zip(&b.paths) {
            assert_eq!(pa, pb);
        }
    }

    /// Content equality modulo id assignment — what a patched plan with
    /// no link offline and a clean boot guarantee: the same paths in the
    /// same row order. A fresh plan derives its ranges from the current
    /// solution sizes while a patched plan keeps its birth ranges (id
    /// *stability* is the point), so ids may differ even though every
    /// row carries the same links and nodes.
    fn assert_matrices_equivalent(a: &ProbeMatrix, b: &ProbeMatrix) {
        assert_eq!(a.num_links, b.num_links);
        assert_eq!(a.achieved, b.achieved);
        assert_eq!(a.uncoverable, b.uncoverable);
        assert_eq!(a.paths.len(), b.paths.len());
        for (i, (pa, pb)) in a.paths.iter().zip(&b.paths).enumerate() {
            assert_eq!(pa.links(), pb.links(), "row {i} links");
            assert_eq!(pa.nodes(), pb.nodes(), "row {i} nodes");
        }
    }

    /// What a patched plan guarantees against a from-scratch plan over
    /// the same non-empty offline set: the same achievement (every test
    /// here plans for α = 1; what either plan covers beyond α is
    /// incidental) off every offline link.
    fn assert_patched_matches_scratch(
        patched: &ProbeMatrix,
        scratch: &ProbeMatrix,
        offline: &HashSet<LinkId>,
    ) {
        assert_eq!(patched.num_links, scratch.num_links);
        let certified = |m: &ProbeMatrix| {
            let a = m.achieved;
            (a.targets_met, a.identifiability, a.coverage.min(1))
        };
        assert_eq!(certified(patched), certified(scratch));
        assert_eq!(patched.uncoverable, scratch.uncoverable);
        for l in offline {
            assert!(patched.paths.iter().all(|p| !p.covers(*l)), "{l} probed");
        }
    }

    /// The measured size bound of a link-level repair of a materialized
    /// cell.
    fn assert_within_two_paths(patched: &ProbeMatrix, scratch: &ProbeMatrix) {
        assert!(
            patched.num_paths() <= scratch.num_paths() + 2,
            "patched {} paths, from scratch {}",
            patched.num_paths(),
            scratch.num_paths()
        );
    }

    #[test]
    fn pristine_plan_matches_controller_scale_matrix() {
        let topo = shared(4);
        let plan =
            ProbePlan::new(topo.clone(), &PmcConfig::identifiable(1), &HashSet::new()).unwrap();
        let m = plan.matrix();
        assert!(m.achieved.targets_met);
        assert!(m.uncoverable.is_empty());
        // The 4-ary Fattree decomposes into h = 2 components.
        assert_eq!(plan.num_cells(), 2);
    }

    #[test]
    fn patched_equals_from_scratch_materialized() {
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(1, 0, 1);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        let mut patched = ProbePlan::new(topo.clone(), &cfg, &HashSet::new()).unwrap();
        let stats = patched.apply(&[dead], &offline).unwrap();
        assert_eq!(stats.cells_resolved, 1);

        let scratch = ProbePlan::new(topo, &cfg, &offline).unwrap();
        assert_patched_matches_scratch(&patched.matrix(), &scratch.matrix(), &offline);
        assert_within_two_paths(&patched.matrix(), &scratch.matrix());
        assert!(patched.matrix().uncoverable.contains(&dead));
    }

    #[test]
    fn patched_equals_from_scratch_symmetric() {
        let topo = shared(6);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(6).unwrap();
        let dead = ft.ac_link(2, 1, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        // Limit 0 forces the symmetric path even on this small instance.
        let mut patched =
            ProbePlan::with_exhaustive_limit(topo.clone(), &cfg, &HashSet::new(), 0).unwrap();
        assert_eq!(patched.num_cells(), 3); // h = 3 groups.
        let stats = patched.apply(&[dead], &offline).unwrap();
        assert_eq!(stats.cells_resolved, 1);

        let scratch = ProbePlan::with_exhaustive_limit(topo, &cfg, &offline, 0).unwrap();
        assert_patched_matches_scratch(&patched.matrix(), &scratch.matrix(), &offline);
    }

    /// Counts matrix rows that changed between two segmented matrices,
    /// comparing by id: a row churns when its id vanished, appeared, or
    /// carries different links.
    fn rows_changed(before: &ProbeMatrix, after: &ProbeMatrix) -> usize {
        let index = |m: &ProbeMatrix| -> HashMap<_, Vec<LinkId>> {
            m.paths.iter().map(|p| (p.id, p.links().to_vec())).collect()
        };
        let (b, a) = (index(before), index(after));
        let mut changed = 0;
        for (id, links) in &b {
            if a.get(id) != Some(links) {
                changed += 1;
            }
        }
        changed + a.keys().filter(|id| !b.contains_key(id)).count()
    }

    #[test]
    fn link_down_repairs_instead_of_reshuffling() {
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(1, 0, 1);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        let mut plan = ProbePlan::new(topo.clone(), &cfg, &HashSet::new()).unwrap();
        let before = plan.matrix();
        let through = before.paths.iter().filter(|p| p.covers(dead)).count();
        assert!(through > 0);
        plan.apply(&[dead], &offline).unwrap();
        let after = plan.matrix();

        // Same targets as the canonical (from-scratch) plan…
        let scratch = ProbePlan::new(topo, &cfg, &offline).unwrap();
        assert_patched_matches_scratch(&after, &scratch.matrix(), &offline);
        assert_within_two_paths(&after, &scratch.matrix());
        assert!(after.uncoverable.contains(&dead));
        // …but churn bounded by the delta: only the paths through the
        // dead link (replaced in place by repairs) may move, give or
        // take a couple of redundancy drops — never the whole cell.
        let churned = rows_changed(&before, &after);
        assert!(
            churned <= 2 * through + 2,
            "repair churned {churned} rows for {through} dead paths"
        );
    }

    #[test]
    fn link_down_repairs_replica_cells_too() {
        let topo = shared(6);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(6).unwrap();
        let dead = ft.ac_link(2, 1, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        // Limit 0 forces the symmetric (Replica-cell) path.
        let mut plan =
            ProbePlan::with_exhaustive_limit(topo.clone(), &cfg, &HashSet::new(), 0).unwrap();
        let before = plan.matrix();
        let through = before.paths.iter().filter(|p| p.covers(dead)).count();
        assert!(through > 0);
        let stats = plan.apply(&[dead], &offline).unwrap();
        assert_eq!(stats.cells_resolved, 1);
        let after = plan.matrix();

        let scratch = ProbePlan::with_exhaustive_limit(topo, &cfg, &offline, 0).unwrap();
        assert_patched_matches_scratch(&after, &scratch.matrix(), &offline);
        let churned = rows_changed(&before, &after);
        assert!(
            churned <= 2 * through + 2,
            "repair churned {churned} rows for {through} dead paths"
        );
    }

    /// The plan a controller converges to must not depend on when it
    /// booted: a cell born with a link offline is solved canonically the
    /// first time its exclusions empty out, so the cached pristine
    /// solution — kept for the plan's life — is a clean boot's, row for
    /// row. (Seeding that solve with the degraded solution left 4 of 4
    /// links tried on Fattree(8) and VL2(20,12,2) on a different plan.)
    #[test]
    fn born_degraded_cells_heal_to_the_clean_boot_plan() {
        let ft = Fattree::new(6).unwrap();
        let cfg = PmcConfig::identifiable(1);
        // Materialized cells, then replica cells (limit 0).
        for limit in [EXHAUSTIVE_LIMIT, 0] {
            let clean = ProbePlan::with_exhaustive_limit(shared(6), &cfg, &HashSet::new(), limit)
                .unwrap()
                .matrix();
            for dead in [ft.ea_link(1, 0, 1), ft.ac_link(2, 1, 0)] {
                let offline: HashSet<LinkId> = [dead].into_iter().collect();
                let mut plan =
                    ProbePlan::with_exhaustive_limit(shared(6), &cfg, &offline, limit).unwrap();
                let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
                assert_eq!((stats.cells_resolved, stats.cells_restored), (1, 0));
                assert_matrices_equivalent(&plan.matrix(), &clean);
                // The canonical solution is the one cached: a later
                // flap repairs on the way down and restores it verbatim.
                plan.apply(&[dead], &offline).unwrap();
                let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
                assert_eq!((stats.cells_resolved, stats.cells_restored), (0, 1));
                assert_matrices_equivalent(&plan.matrix(), &clean);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The map-based alignment is the search-based one on any pair
        /// of solutions, routes held more than once included: paths in
        /// both keep their slot, holes fill in ascending order, a shrunk
        /// solution moves its tail forward.
        #[test]
        fn map_alignment_matches_the_search_reference(
            old_routes in proptest::collection::vec(0u32..12, 0..24),
            new_routes in proptest::collection::vec(0u32..16, 0..30),
        ) {
            let paths = |routes: &[u32], first_id: usize| -> Vec<ProbePath> {
                routes
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| {
                        let links = vec![LinkId(r), LinkId(r + 1)];
                        ProbePath::from_route((first_id + i) as u32, vec![NodeId(r)], links)
                    })
                    .collect()
            };
            let old = PathStore::from(paths(&old_routes, 0));
            let new = SubSolution {
                paths: paths(&new_routes, 100).into(),
                targets_met: true,
                coverage: 1,
                cells: (1, 1),
            };

            let got = align_with_previous(&old, new.clone());
            let want = align_by_search(&old, new.clone());
            assert_eq!(got.paths, want.paths);
            assert_eq!(got.paths.len(), new.paths.len());
        }
    }

    #[test]
    fn link_up_restores_the_pristine_solution_without_solving() {
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(0, 0, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        let mut plan = ProbePlan::new(topo, &cfg, &HashSet::new()).unwrap();
        let before = plan.matrix();
        plan.apply(&[dead], &offline).unwrap();
        let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
        assert_eq!(stats.cells_restored, 1);
        assert_eq!(stats.cells_resolved, 0);
        assert_matrices_equal(&plan.matrix(), &before);
    }

    #[test]
    fn unrelated_cells_are_untouched() {
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        // Group-0 and group-1 links live in different cells.
        let g0 = ft.ea_link(0, 0, 0);
        let g1 = ft.ea_link(0, 0, 1);
        let mut plan = ProbePlan::new(topo, &cfg, &HashSet::new()).unwrap();
        let offline: HashSet<LinkId> = [g0].into_iter().collect();
        let s = plan.apply(&[g0], &offline).unwrap();
        assert_eq!(s.cells_resolved + s.cells_restored, 1);
        // Paths through the other group survive verbatim.
        assert!(plan.matrix().paths.iter().any(|p| p.covers(g1)));
    }

    #[test]
    fn strawman_config_keeps_a_single_cell() {
        // `decompose == false` (PmcConfig::strawman) must solve the whole
        // problem monolithically, like `construct`'s strawman branch —
        // and the delta path still works on the single cell.
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1).strawman();
        let mut plan = ProbePlan::new(topo.clone(), &cfg, &HashSet::new()).unwrap();
        assert_eq!(plan.num_cells(), 1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(0, 0, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();
        let stats = plan.apply(&[dead], &offline).unwrap();
        assert_eq!(stats.cells_resolved, 1);
        let scratch = ProbePlan::new(topo, &cfg, &offline).unwrap();
        assert_patched_matches_scratch(&plan.matrix(), &scratch.matrix(), &offline);
    }

    #[test]
    fn apply_heals_from_a_stale_changed_hint() {
        // The `changed` parameter is only a hint: the plan also diffs the
        // offline set against its own applied state, so a caller whose
        // previous patch failed mid-flight (or who passes no delta at
        // all) still converges to the correct plan.
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(1, 1, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        let mut plan = ProbePlan::new(topo.clone(), &cfg, &HashSet::new()).unwrap();
        let stats = plan.apply(&[], &offline).unwrap();
        assert_eq!(stats.cells_resolved, 1);
        let scratch = ProbePlan::new(topo, &cfg, &offline).unwrap();
        assert_patched_matches_scratch(&plan.matrix(), &scratch.matrix(), &offline);
    }

    #[test]
    fn multi_cell_patch_rides_the_parallel_path_materialized() {
        // A pod drain touches every group cell at once; the parallel
        // batch repair must achieve what a from-scratch build does.
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut view = TopologyView::new(ft.clone() as SharedTopology);
        let cfg = PmcConfig::identifiable(1);
        let mut plan = ProbePlan::new(view.shared(), &cfg, view.offline_links()).unwrap();
        let before = plan.matrix();

        let d = view.apply(&TopologyEvent::PodDrained { pod: 0 });
        let stats = plan
            .apply(&d.changed_links(), view.offline_links())
            .unwrap();
        assert_eq!(
            stats.cells_resolved,
            plan.num_cells(),
            "pod drain must touch every cell"
        );
        let scratch = ProbePlan::new(view.shared(), &cfg, view.offline_links()).unwrap();
        assert_patched_matches_scratch(&plan.matrix(), &scratch.matrix(), view.offline_links());

        // And the recovery restores every cell from cache, in one patch.
        let d = view.apply(&TopologyEvent::PodAdded { pod: 0 });
        let stats = plan
            .apply(&d.changed_links(), view.offline_links())
            .unwrap();
        assert_eq!(stats.cells_restored, plan.num_cells());
        assert_matrices_equal(&plan.matrix(), &before);
    }

    #[test]
    fn multi_cell_patch_rides_the_parallel_path_symmetric() {
        // Same drill with materialization forced off: every replica cell
        // repairs through its provider, concurrently.
        let ft = Arc::new(Fattree::new(6).unwrap());
        let mut view = TopologyView::new(ft.clone() as SharedTopology);
        let cfg = PmcConfig::identifiable(1);
        let mut plan =
            ProbePlan::with_exhaustive_limit(view.shared(), &cfg, view.offline_links(), 0).unwrap();

        let d = view.apply(&TopologyEvent::PodDrained { pod: 1 });
        let stats = plan
            .apply(&d.changed_links(), view.offline_links())
            .unwrap();
        assert!(
            stats.cells_resolved > 1,
            "pod drain must re-solve several replica cells, got {stats:?}"
        );
        let scratch =
            ProbePlan::with_exhaustive_limit(view.shared(), &cfg, view.offline_links(), 0).unwrap();
        assert_patched_matches_scratch(&plan.matrix(), &scratch.matrix(), view.offline_links());
    }

    #[test]
    fn single_cell_delta_keeps_every_other_cells_ids() {
        // The dispatch-stability tentpole at plan level: a delta inside
        // one cell leaves the ids *and* contents of every other cell's
        // paths bit-identical, because each cell numbers its paths
        // inside its own stable range.
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(0, 0, 0);
        let mut plan = ProbePlan::new(topo, &cfg, &HashSet::new()).unwrap();
        let ranges = plan.cell_ranges();
        assert_eq!(ranges.len(), 2);
        // Ranges are disjoint and carry headroom.
        assert!(ranges[0].end() <= ranges[1].base);
        let before = plan.matrix();

        let touched = plan.cells_touching(&[dead]);
        assert_eq!(touched, vec![0], "group-0 link lives in cell 0");
        let offline: HashSet<LinkId> = [dead].into_iter().collect();
        plan.apply(&[dead], &offline).unwrap();
        let after = plan.matrix();

        // Every path of the untouched cell survives with the same id,
        // links and nodes.
        assert_eq!(plan.cell_ranges(), ranges, "no re-base expected");
        let untouched = ranges[1];
        let before_ids: Vec<_> = before
            .paths
            .iter()
            .filter(|p| untouched.contains(p.id))
            .collect();
        assert!(!before_ids.is_empty());
        for p in before_ids {
            let q = after.path(p.id).expect("untouched path must survive");
            assert_eq!(p, q, "untouched path changed across the delta");
        }
        // The touched cell changed within its own range only.
        for p in &after.paths {
            assert!(ranges.iter().any(|r| r.contains(p.id)));
        }
    }

    #[test]
    fn overflow_rebases_only_the_touched_cell() {
        // Born-degraded plan with zero headroom: restoring the link
        // grows the cell past its capacity, forcing a re-base — the
        // touched cell moves to a fresh range past every existing id
        // while the other cell's ids stay put.
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(0, 0, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();
        let mut plan = ProbePlan::with_options(
            topo.clone(),
            &cfg,
            &offline,
            EXHAUSTIVE_LIMIT,
            IdHeadroom::NONE,
        )
        .unwrap();
        let ranges = plan.cell_ranges();
        let before = plan.matrix();
        let id_ceiling = ranges.iter().map(|r| r.end()).max().unwrap();

        let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
        assert_eq!(stats.cells_rebased, 1, "restore must overflow: {stats:?}");
        let after_ranges = plan.cell_ranges();
        // The untouched cell keeps its exact range; the touched cell's
        // fresh range starts past every previously allocated id.
        assert_eq!(after_ranges[1], ranges[1]);
        assert!(after_ranges[0].base >= id_ceiling);
        let after = plan.matrix();
        // Untouched paths are bit-identical; re-based paths are dense
        // within the fresh range.
        for p in before.paths.iter().filter(|p| ranges[1].contains(p.id)) {
            assert_eq!(after.path(p.id), Some(p));
        }
        let rebased: Vec<_> = after
            .paths
            .iter()
            .filter(|p| after_ranges[0].contains(p.id))
            .collect();
        assert!(!rebased.is_empty());
        for (i, p) in rebased.iter().enumerate() {
            assert_eq!(p.id, after_ranges[0].id(i), "ids dense within range");
        }
        // Retired ids resolve to nothing — never to another cell's path.
        for p in before.paths.iter().filter(|p| ranges[0].contains(p.id)) {
            assert!(after.path(p.id).is_none());
        }
        // And the re-based plan still matches a from-scratch build,
        // content-wise.
        let scratch = ProbePlan::new(topo, &cfg, &HashSet::new()).unwrap();
        assert_matrices_equivalent(&after, &scratch.matrix());
    }

    #[test]
    fn id_space_exhaustion_compacts_instead_of_wrapping() {
        // When the next re-base would overflow u32, the plan compacts
        // every range back to 0 instead of silently wrapping fresh ids
        // onto live low-numbered ranges.
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(0, 0, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();
        let mut plan = ProbePlan::with_options(
            topo.clone(),
            &cfg,
            &offline,
            EXHAUSTIVE_LIMIT,
            IdHeadroom::NONE,
        )
        .unwrap();
        plan.exhaust_id_space_for_test();

        // The restore overflows the zero-headroom range; allocating a
        // fresh range at the top of the id space is impossible, so the
        // whole plan compacts.
        let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
        assert_eq!(stats.cells_rebased, plan.num_cells());
        let ranges = plan.cell_ranges();
        assert_eq!(ranges[0].base, 0, "compaction restarts at id 0");
        for w in ranges.windows(2) {
            assert!(w[0].end() <= w[1].base, "compacted ranges overlap");
        }
        // Ids are well-formed and the plan still matches from-scratch.
        let after = plan.matrix();
        for p in &after.paths {
            assert!(ranges.iter().any(|r| r.contains(p.id)));
        }
        let scratch = ProbePlan::new(topo, &cfg, &HashSet::new()).unwrap();
        assert_matrices_equivalent(&after, &scratch.matrix());
    }

    #[test]
    fn default_headroom_absorbs_restore_growth() {
        // The same born-degraded restore as above, under the default
        // policy: the growth fits inside the headroom, so nothing is
        // re-based and nothing outside the touched cell re-dispatches.
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1);
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(0, 0, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();
        let mut plan = ProbePlan::new(topo, &cfg, &offline).unwrap();
        let ranges = plan.cell_ranges();
        let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
        assert_eq!(stats.cells_rebased, 0, "{stats:?}");
        assert_eq!(plan.cell_ranges(), ranges);
    }

    #[test]
    fn view_deltas_drive_the_plan() {
        // The intended wiring: TopologyView produces deltas, the plan
        // consumes them; a drain + undrain round-trips to the pristine
        // matrix.
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut view = TopologyView::new(ft.clone() as SharedTopology);
        let cfg = PmcConfig::identifiable(1);
        let mut plan = ProbePlan::new(view.shared(), &cfg, view.offline_links()).unwrap();
        let before = plan.matrix();

        let agg = ft.agg(0, 0);
        let d = view.apply(&TopologyEvent::SwitchDrain { switch: agg });
        plan.apply(&d.changed_links(), view.offline_links())
            .unwrap();
        let drained = plan.matrix();
        for p in &drained.paths {
            for l in p.links() {
                let lk = ft.graph().link(*l);
                assert!(lk.a != agg && lk.b != agg, "path crosses drained switch");
            }
        }

        let d = view.apply(&TopologyEvent::SwitchUndrain { switch: agg });
        plan.apply(&d.changed_links(), view.offline_links())
            .unwrap();
        assert_matrices_equal(&plan.matrix(), &before);
    }
}
