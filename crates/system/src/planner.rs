//! The incremental probe planner: a partitioned, patchable probe plan.
//!
//! [`ProbePlan`] keeps the probe matrix *decomposed* — one [`PlanCell`]
//! per independent PMC subproblem (Observation 1 of §4.3), each holding
//! its link universe, its candidate source and its current solution.
//! When the live topology changes, [`ProbePlan::apply`] re-solves only
//! the cells whose universes intersect the delta and splices the result
//! back, instead of recomputing the whole matrix the way the paper's
//! controller does on its 10-minute cycle.
//!
//! Two candidate-source modes mirror the controller's former split:
//!
//! * **materialized** — small topologies enumerate every candidate once;
//!   cells own their slice of the pristine candidate set as an indexed
//!   [`Subproblem`] and re-solve via [`Subproblem::resolve`] with the
//!   offline links excluded — on the candidate index, never on a
//!   filtered copy of the candidates;
//! * **symmetric** — large topologies never materialize candidates. One
//!   pristine base solution per isomorphism class is replicated to every
//!   component; an affected component maps its offline links back into
//!   base coordinates through [`BaseComponent::replicate_link`], wraps a
//!   fresh base provider in an [`ExcludingProvider`], re-solves, and
//!   replicates the restricted solution to its own coordinates only.
//!
//! In both modes a cell whose exclusions return to empty restores its
//! cached pristine solution without solving anything, so drain/undrain
//! cycles cost one re-solve on the way down and nothing on the way up.
//!
//! Determinism makes incremental and from-scratch planning agree exactly:
//! a patched plan and a fresh [`ProbePlan::new`] over the same offline
//! set run the identical per-cell procedure, so their matrices carry the
//! same paths, path for path (asserted by the `live_topology` property
//! tests).
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use detector_core::pmc::{
    construct_with_provider, decompose, resolve_subproblem_seeded, Achieved, ExcludingProvider,
    JobPool, PmcConfig, PmcError, ProbeMatrix, SubSolution, Subproblem,
};
use detector_core::types::{LinkId, PathIdRange, ProbePath};
use detector_topology::{BaseComponent, SharedTopology};

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
        u32::try_from(len + slack).expect("path-id space exhausted")
    }
}

/// Where a cell's candidates come from when it must be re-solved.
#[derive(Clone, Debug)]
enum CellSource {
    /// The cell's pristine candidate slice, fully materialized and
    /// indexed once; shared, so cloning a plan copies no candidate.
    Materialized(Arc<Subproblem>),
    /// Replica `replica` of symmetry base `base`: candidates are pulled
    /// from a fresh base provider and re-homed on demand.
    Replica {
        base: usize,
        replica: u32,
        /// Replica-universe link → base-universe link.
        to_base: HashMap<LinkId, LinkId>,
    },
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
    /// Cached pristine (no-exclusion) solution for O(1) restore; filled
    /// lazily for cells that were born with exclusions.
    pristine: Option<SubSolution>,
    /// The stable id range this cell numbers its paths from. Re-assigned
    /// only when the solution outgrows the range (a re-base).
    range: PathIdRange,
}

impl PlanCell {
    fn intersects(&self, links: &[LinkId]) -> bool {
        links.iter().any(|l| self.universe.binary_search(l).is_ok())
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
    /// Wall-clock time of the patch, microseconds.
    pub replan_micros: u64,
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

    /// [`ProbePlan::new`] with an explicit materialization threshold
    /// (tests and benches use 0 to force the symmetric path).
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
        // re-solves; the first solve is the same per-cell procedure, over
        // the same fan-out, as a later incremental re-solve of the cell.
        let mut cells: Vec<PlanCell> = subproblems
            .into_iter()
            .map(|sp| {
                let universe = sp.universe().to_vec();
                PlanCell {
                    excluded: cell_exclusions(&universe, offline),
                    universe,
                    source: CellSource::Materialized(Arc::new(sp)),
                    // Both filled in below.
                    solution: SubSolution {
                        paths: Vec::new(),
                        targets_met: false,
                        coverage: 0,
                        cells: (0, 0),
                    },
                    pristine: None,
                    range: PathIdRange::default(), // Assigned by the constructor.
                }
            })
            .collect();
        let solves: Vec<(usize, Vec<LinkId>)> = cells
            .iter()
            .enumerate()
            .map(|(ci, cell)| (ci, cell.excluded.clone()))
            .collect();
        let solutions = resolve_cells(topo, cfg, &cells, &solves, false)?;
        for (cell, solution) in cells.iter_mut().zip(solutions) {
            cell.pristine = cell.excluded.is_empty().then(|| solution.clone());
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
                replicate,
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
                let to_base: HashMap<LinkId, LinkId> = universe
                    .iter()
                    .copied()
                    .zip(base_universe.iter().copied())
                    .collect();
                universe.sort_unstable();
                let excluded = cell_exclusions(&universe, offline);
                any_pristine |= excluded.is_empty();
                metas.push((universe, to_base, excluded));
            }

            // One pristine base solve, shared by every unaffected replica
            // (skipped entirely when all replicas carry exclusions).
            let pristine_base = if any_pristine {
                Some(construct_with_provider(provider, cfg)?)
            } else {
                None
            };

            for (r, (universe, to_base, excluded)) in metas.into_iter().enumerate() {
                let r = r as u32;
                let solution = if excluded.is_empty() {
                    let base_sol = pristine_base.as_ref().expect("pristine solved above");
                    replicate_solution(base_sol, r, &replicate)
                } else {
                    resolve_replica(topo, cfg, bi, r, &to_base, &excluded)?
                };
                let pristine = excluded.is_empty().then(|| solution.clone());
                cells.push(PlanCell {
                    universe,
                    excluded,
                    source: CellSource::Replica {
                        base: bi,
                        replica: r,
                        to_base,
                    },
                    solution,
                    pristine,
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

    /// Number of independent cells (subproblems) in the plan.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The offline links currently applied.
    pub fn offline(&self) -> &HashSet<LinkId> {
        &self.offline
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

    /// The headroom policy in force.
    pub fn headroom(&self) -> IdHeadroom {
        self.headroom
    }

    /// Patches the plan for a topology delta: `changed` are the links
    /// whose up/down state flipped, `offline` the complete offline set
    /// after the change. Only cells whose universes intersect the change
    /// are touched; a cell whose exclusions empty out restores its cached
    /// pristine solution without solving.
    ///
    /// The patch is atomic: every affected cell is re-solved first and
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
        // detlint::allow(determinism, reason = "replan_micros stopwatch; measurement only, never branches")
        let t0 = Instant::now();
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
        // Restores splice the cached pristine solution; the rest must be
        // re-solved from their candidate sources.
        let mut restores: Vec<(usize, Vec<LinkId>)> = Vec::new();
        let mut solves: Vec<(usize, Vec<LinkId>)> = Vec::new();
        for (ci, cell) in self.cells.iter().enumerate() {
            if !cell.intersects(&all_changed) {
                continue;
            }
            let new_excluded = cell_exclusions(&cell.universe, &offline);
            if new_excluded == cell.excluded {
                continue;
            }
            if new_excluded.is_empty() && cell.pristine.is_some() {
                restores.push((ci, new_excluded));
                stats.cells_restored += 1;
            } else {
                solves.push((ci, new_excluded));
                stats.cells_resolved += 1;
            }
        }

        // Phase 1b: re-solve.
        let solutions = resolve_cells(
            &self.topo,
            &self.cfg,
            &self.cells,
            &solves,
            self.cfg.stable_patch,
        )?;
        let mut patches: Vec<(usize, Vec<LinkId>, Option<SubSolution>)> = restores
            .into_iter()
            .map(|(ci, ex)| (ci, ex, None))
            .collect();
        patches.extend(
            solves
                .into_iter()
                .zip(solutions)
                .map(|((ci, ex), sol)| (ci, ex, Some(sol))),
        );

        // Phase 2: commit. A cell whose new solution fits its range keeps
        // the range (its ids — and every other cell's — are unchanged);
        // an overflowing cell is re-based onto a fresh range past every
        // id ever allocated.
        self.offline = offline;
        for (ci, new_excluded, solution) in patches {
            let cell = &mut self.cells[ci];
            let solution = match solution {
                Some(s) => s,
                None => cell.pristine.clone().expect("checked in phase 1"),
            };
            if new_excluded.is_empty() && cell.pristine.is_none() {
                cell.pristine = Some(solution.clone());
            }
            cell.excluded = new_excluded;
            cell.solution = solution;
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
        stats.replan_micros = t0.elapsed().as_micros() as u64;
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
        let total: usize = self.cells.iter().map(|c| c.solution.paths.len()).sum();
        let mut paths = Vec::with_capacity(total);
        let mut targets_met = true;
        let mut coverage = u32::MAX;
        for cell in &self.cells {
            targets_met &= cell.solution.targets_met;
            coverage = coverage.min(cell.solution.coverage);
            debug_assert!(
                cell.range.fits(cell.solution.paths.len()),
                "cell solution exceeds its id range (missed re-base)"
            );
            for (i, p) in cell.solution.paths.iter().enumerate() {
                let mut p = p.clone();
                p.id = cell.range.id(i);
                paths.push(p);
            }
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

/// Solves `solves` — `(cell ordinal, the cell's new exclusions)` pairs —
/// without touching the cells, solutions in input order. Every cell
/// (materialized or replica) runs the identical [`resolve_cell`]
/// procedure; several cells (a pod drain touching every group, or the
/// first build) fan out over the [`JobPool`] the PMC config implies (host
/// parallelism unless [`PmcConfig::workers`] bounds it — the distributed
/// controller's sharding knob), inline when `cfg.parallel` is off. Each
/// cell's solve is deterministic and derives its own deadline from
/// `cfg.timeout`, so only the schedule differs, never the result.
fn resolve_cells(
    topo: &SharedTopology,
    cfg: &PmcConfig,
    cells: &[PlanCell],
    solves: &[(usize, Vec<LinkId>)],
    seeded: bool,
) -> Result<Vec<SubSolution>, PmcError> {
    // A lone solve runs inline without asking the host for its
    // parallelism (a syscall plus cgroup reads on every link flap).
    let pool = if cfg.parallel && solves.len() > 1 {
        JobPool::from_config(cfg)
    } else {
        JobPool::new(1)
    };
    pool.run_indexed(solves.len(), |i| {
        let (ci, excluded) = &solves[i];
        resolve_cell(topo, cfg, &cells[*ci], excluded, seeded)
    })
    .into_iter()
    .collect()
}

/// Solves one cell against an exclusion set.
///
/// `seeded` ([`PmcConfig::stable_patch`] re-solves) seeds the solve with
/// the cell's current solution: surviving paths are pre-selected and the
/// greedy repairs only what the delta broke, so the dispatched pinglist
/// diff stays proportional to the delta instead of the cell size. Replica
/// cells stabilize against the fresh replica solve's paths (pulling the
/// seed back into base coordinates would need the inverse of the replicate
/// map, which symmetry plans do not expose); when the cell heals
/// completely and a pristine solution is cached, that cache stands in for
/// the solve as the candidate pool.
fn resolve_cell(
    topo: &SharedTopology,
    cfg: &PmcConfig,
    cell: &PlanCell,
    excluded: &[LinkId],
    seeded: bool,
) -> Result<SubSolution, PmcError> {
    let excluded_set: HashSet<LinkId> = excluded.iter().copied().collect();
    let previous = &cell.solution.paths;
    match &cell.source {
        CellSource::Materialized(sp) if seeded => sp
            .resolve_seeded(&excluded_set, previous, cfg)
            .map(|s| align_with_previous(previous, s)),
        CellSource::Materialized(sp) => sp.resolve(&excluded_set, cfg),
        CellSource::Replica {
            base,
            replica,
            to_base,
        } => {
            if !seeded {
                return resolve_replica(topo, cfg, *base, *replica, to_base, excluded);
            }
            let pool = match (&cell.pristine, excluded.is_empty()) {
                (Some(pristine), true) => pristine.paths.clone(),
                _ => resolve_replica(topo, cfg, *base, *replica, to_base, excluded)?.paths,
            };
            resolve_subproblem_seeded(&cell.universe, &pool, &excluded_set, previous, cfg)
                .map(|s| align_with_previous(previous, s))
        }
    }
}

/// The sorted intersection of a cell universe with the offline set.
fn cell_exclusions(universe: &[LinkId], offline: &HashSet<LinkId>) -> Vec<LinkId> {
    universe
        .iter()
        .copied()
        .filter(|l| offline.contains(l))
        .collect()
}

/// Re-orders a seeded re-solve so every surviving path keeps its previous
/// in-cell index — and with it its dense-range `PathId`, its entry bytes
/// and its pinger assignment — so the dispatched diff touches only
/// genuinely changed paths. Repair paths fill the vacated slots in
/// ascending order and spares append past the old length; when the
/// solution shrank instead, tail paths move forward into the remaining
/// holes (the minimal id churn a dense range permits).
fn align_with_previous(old: &[ProbePath], mut new: SubSolution) -> SubSolution {
    let mut fresh: Vec<Option<ProbePath>> = new.paths.into_iter().map(Some).collect();
    let mut slots: Vec<Option<ProbePath>> = old
        .iter()
        .map(|o| {
            fresh
                .iter_mut()
                .find(|s| {
                    s.as_ref()
                        .is_some_and(|n| n.links() == o.links() && n.nodes() == o.nodes())
                })
                .and_then(Option::take)
        })
        .collect();
    let mut spares: VecDeque<ProbePath> = fresh.into_iter().flatten().collect();
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
    new.paths = slots.into_iter().flatten().collect();
    new
}

/// Re-homes a base solution onto replica `r`.
fn replicate_solution(
    base: &SubSolution,
    r: u32,
    replicate: &dyn Fn(&ProbePath, u32) -> ProbePath,
) -> SubSolution {
    SubSolution {
        paths: base.paths.iter().map(|p| replicate(p, r)).collect(),
        targets_met: base.targets_met,
        coverage: base.coverage,
        cells: base.cells,
    }
}

/// Re-solves replica `replica` of symmetry base `base_idx` with
/// exclusions: pull the excluded links back into base coordinates, solve
/// a fresh excluded base provider, and replicate the restricted solution
/// out to the replica.
fn resolve_replica(
    topo: &SharedTopology,
    cfg: &PmcConfig,
    base_idx: usize,
    replica: u32,
    to_base: &HashMap<LinkId, LinkId>,
    excluded: &[LinkId],
) -> Result<SubSolution, PmcError> {
    let base = topo
        .symmetry()
        .bases
        .into_iter()
        .nth(base_idx)
        .expect("symmetry plan must be stable across calls");
    let excluded_base: HashSet<LinkId> = excluded
        .iter()
        .map(|l| *to_base.get(l).expect("excluded link must be in the cell"))
        .collect();
    let sol = construct_with_provider(ExcludingProvider::new(base.provider, excluded_base), cfg)?;
    Ok(replicate_solution(&sol, replica, &base.replicate))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Content equality modulo id assignment — what incremental ==
    /// from-scratch guarantees: the same paths in the same row order. A
    /// fresh plan derives its ranges from the current solution sizes
    /// while a patched plan keeps its birth ranges (id *stability* is
    /// the point), so ids may differ even though every row carries the
    /// same links and nodes.
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
        assert_matrices_equivalent(&patched.matrix(), &scratch.matrix());
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
        assert_matrices_equivalent(&patched.matrix(), &scratch.matrix());
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
    fn stable_patch_repairs_instead_of_reshuffling() {
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1).with_stable_patch();
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(1, 0, 1);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        let mut plan = ProbePlan::new(topo.clone(), &cfg, &HashSet::new()).unwrap();
        let before = plan.matrix();
        let through = before.paths_through(dead).count();
        assert!(through > 0);
        plan.apply(&[dead], &offline).unwrap();
        let after = plan.matrix();

        // Same targets as the canonical (unseeded) re-plan…
        let scratch = ProbePlan::new(topo, &PmcConfig::identifiable(1), &offline).unwrap();
        assert_eq!(after.achieved, scratch.matrix().achieved);
        assert!(after.uncoverable.contains(&dead));
        assert!(after.paths.iter().all(|p| !p.covers(dead)));
        // …but churn bounded by the delta: only the paths through the
        // dead link (replaced in place by repairs) may move, give or
        // take a couple of redundancy drops — never the whole cell.
        let churned = rows_changed(&before, &after);
        assert!(
            churned <= 2 * through + 2,
            "stable patch churned {churned} rows for {through} dead paths"
        );
    }

    #[test]
    fn stable_patch_repairs_replica_cells_too() {
        let topo = shared(6);
        let cfg = PmcConfig::identifiable(1).with_stable_patch();
        let ft = Fattree::new(6).unwrap();
        let dead = ft.ac_link(2, 1, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        // Limit 0 forces the symmetric (Replica-cell) path.
        let mut plan =
            ProbePlan::with_exhaustive_limit(topo.clone(), &cfg, &HashSet::new(), 0).unwrap();
        let before = plan.matrix();
        let through = before.paths_through(dead).count();
        assert!(through > 0);
        let stats = plan.apply(&[dead], &offline).unwrap();
        assert_eq!(stats.cells_resolved, 1);
        let after = plan.matrix();

        let scratch =
            ProbePlan::with_exhaustive_limit(topo, &PmcConfig::identifiable(1), &offline, 0)
                .unwrap();
        assert_eq!(after.achieved, scratch.matrix().achieved);
        assert!(after.paths.iter().all(|p| !p.covers(dead)));
        let churned = rows_changed(&before, &after);
        assert!(
            churned <= 2 * through + 2,
            "stable patch churned {churned} rows for {through} dead paths"
        );
    }

    #[test]
    fn stable_patch_round_trip_restores_the_pristine_matrix() {
        let topo = shared(4);
        let cfg = PmcConfig::identifiable(1).with_stable_patch();
        let ft = Fattree::new(4).unwrap();
        let dead = ft.ea_link(0, 0, 0);
        let offline: HashSet<LinkId> = [dead].into_iter().collect();

        let mut plan = ProbePlan::new(topo, &cfg, &HashSet::new()).unwrap();
        let before = plan.matrix();
        plan.apply(&[dead], &offline).unwrap();
        let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
        // The heal still splices the cached pristine solution verbatim —
        // under stable_patch that reverse diff is as small as the
        // forward one was.
        assert_eq!(stats.cells_restored, 1);
        assert_matrices_equal(&before, &plan.matrix());
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
        assert_matrices_equivalent(&plan.matrix(), &scratch.matrix());
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
        assert_matrices_equivalent(&plan.matrix(), &scratch.matrix());
    }

    #[test]
    fn multi_cell_patch_rides_the_parallel_path_materialized() {
        // A pod drain touches every group cell at once; the parallel
        // batch re-solve must agree with a from-scratch build exactly.
        let ft = Arc::new(Fattree::new(4).unwrap());
        let mut view = TopologyView::new(ft.clone() as SharedTopology);
        let cfg = PmcConfig::identifiable(1);
        assert!(
            cfg.parallel,
            "default config must exercise the parallel patch"
        );
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
        assert_matrices_equivalent(&plan.matrix(), &scratch.matrix());

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
        // re-solves through its provider, concurrently.
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
        assert_matrices_equivalent(&plan.matrix(), &scratch.matrix());
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
