//! Greedy selection state: link-set partition refinement plus coverage
//! weights and the path score of eq. (1).
//!
//! Scoring a path counts the distinct cells it touches with per-cell
//! stamps instead of clearing a scratch set per evaluation: every probe
//! and refinement starts a fresh stamp round. A solve can run billions of
//! evaluations (the Table 2 strawman under its cutoff), so the round
//! counter clears the stamps rather than wrap onto values they still hold.

use super::virtual_links::ExtendedUniverse;
use super::{PmcConfig, PmcError, SubSolution};
use crate::types::{LinkId, ProbePath};

/// A partition of extended-link elements into "link sets", refined by each
/// selected path (§4.2: a selected path splits every set into the elements
/// on the path and those not on it).
#[derive(Clone, Debug)]
struct Partition {
    /// Element → cell id.
    cell_of: Vec<u32>,
    /// Cell id → number of elements currently in the cell.
    cell_size: Vec<u64>,
    /// Number of non-empty cells.
    num_cells: u64,
    /// Scratch: per-cell stamp for distinct-cell counting.
    stamp: Vec<u32>,
    /// Scratch: per-cell incident-element count for split prediction;
    /// during a refinement, a split cell's buddy and a buddy's origin.
    inc_count: Vec<u64>,
    /// Current stamp round; no stamp exceeds it.
    round: u32,
}

impl Partition {
    fn new(num_elements: u64) -> Self {
        let n = num_elements as usize;
        Self {
            cell_of: vec![0; n],
            cell_size: vec![num_elements],
            num_cells: if n == 0 { 0 } else { 1 },
            stamp: vec![0],
            inc_count: vec![0],
            round: 0,
        }
    }

    /// Starts a stamp round no stamp holds: every stamp is at most the
    /// current round, so the next one is fresh. Before the counter would
    /// wrap to a value untouched stamps hold, every stamp is cleared.
    #[inline]
    fn next_round(&mut self) -> u32 {
        if self.round == u32::MAX {
            self.stamp.fill(0);
            self.round = 0;
        }
        self.round += 1;
        self.round
    }

    #[inline]
    fn num_cells(&self) -> u64 {
        self.num_cells
    }

    #[inline]
    fn is_discrete(&self, num_elements: u64) -> bool {
        self.num_cells == num_elements
    }

    /// True while `element` still shares its cell with another element.
    #[inline]
    fn shared(&self, element: u64) -> bool {
        self.cell_size[self.cell_of[element as usize] as usize] > 1
    }

    /// Counts, without modifying the partition, how many distinct cells the
    /// incident elements touch and how many of those cells would actually
    /// split (contain both incident and non-incident elements).
    fn probe(&mut self, incident: impl Iterator<Item = u64> + Clone) -> (u64, u64) {
        let round = self.next_round();
        let mut touched = 0u64;
        for e in incident.clone() {
            let c = self.cell_of[e as usize] as usize;
            if self.stamp[c] != round {
                self.stamp[c] = round;
                self.inc_count[c] = 0;
                touched += 1;
            }
            self.inc_count[c] += 1;
        }
        let mut splits = 0u64;
        // Second pass over distinct cells via the stamped counts.
        for e in incident {
            let c = self.cell_of[e as usize] as usize;
            if self.stamp[c] == round {
                if self.inc_count[c] < self.cell_size[c] {
                    splits += 1;
                }
                // Consume the stamp so each cell is judged once.
                self.stamp[c] = round - 1;
            }
        }
        (touched, splits)
    }

    /// Refines the partition by the incident-element set of a selected
    /// path, returning the number of cells that split.
    fn refine(&mut self, incident: impl Iterator<Item = u64>) -> u64 {
        let round = self.next_round();
        // Every touched cell gets a fresh buddy cell, in first-touch
        // order; its incident elements move there.
        let first_buddy = self.cell_size.len();
        for e in incident {
            let c = self.cell_of[e as usize] as usize;
            if self.stamp[c] != round {
                self.stamp[c] = round;
                self.inc_count[c] = self.cell_size.len() as u64;
                self.cell_size.push(0);
                self.stamp.push(0);
                self.inc_count.push(c as u64);
            }
            let b = self.inc_count[c] as usize;
            self.cell_size[c] -= 1;
            self.cell_size[b] += 1;
            self.cell_of[e as usize] = b as u32;
        }
        // A cell split if it kept elements; otherwise it moved wholesale.
        let splits = (first_buddy..self.cell_size.len())
            .filter(|&b| self.cell_size[self.inc_count[b] as usize] > 0)
            .count() as u64;
        self.num_cells += splits;
        splits
    }
}

/// Evaluation of a candidate path against the current selection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eval {
    /// The paper's score (eq. (1)): Σ w\[link\] − #link-sets-on-path.
    /// Lower is better.
    pub score: i64,
    /// Number of link sets the path would split if selected.
    pub split_gain: u64,
    /// Number of the path's physical links still below α coverage.
    pub coverage_gain: u32,
}

impl Eval {
    /// True if selecting the path makes progress toward the configured
    /// targets (splits a set when identifiability is sought, or raises an
    /// under-covered link).
    #[inline]
    pub fn useful(&self, beta: u32) -> bool {
        self.coverage_gain > 0 || (beta >= 1 && self.split_gain > 0)
    }
}

/// Mutable state of one subproblem's greedy selection.
pub struct SelectionState {
    universe: ExtendedUniverse,
    partition: Partition,
    /// Per-local-link weight w\[link\]: number of selected paths covering it.
    w: Vec<u32>,
    alpha: u32,
    beta: u32,
    /// Number of links with w < α.
    under_covered: usize,
    /// Scratch bitmap for incident enumeration.
    in_path: Vec<bool>,
    /// Scratch buffer of incident elements (β ≥ 2 only: up to β = 1 a
    /// path's incident elements are its local link indices).
    incident: Vec<u64>,
    /// Scratch buffer of local link indices.
    locals: Vec<u32>,
    selected: Vec<ProbePath>,
}

impl SelectionState {
    /// Creates the state for a subproblem over `universe_links`.
    pub fn new(universe_links: &[LinkId], cfg: &PmcConfig) -> Result<Self, PmcError> {
        let universe = ExtendedUniverse::new(universe_links, cfg.beta, cfg.max_extended_elements)?;
        let n = universe.num_links();
        let partition = Partition::new(universe.num_elements());
        Ok(Self {
            partition,
            w: vec![0; n],
            alpha: cfg.alpha,
            beta: cfg.beta,
            under_covered: if cfg.alpha == 0 { 0 } else { n },
            in_path: vec![false; n],
            incident: Vec::new(),
            locals: Vec::new(),
            universe,
            selected: Vec::new(),
        })
    }

    /// The extended universe of this subproblem.
    pub fn universe(&self) -> &ExtendedUniverse {
        &self.universe
    }

    /// True once both the coverage and identifiability targets hold.
    pub fn targets_met(&self) -> bool {
        self.under_covered == 0 && self.identifiability_met()
    }

    /// True once every extended link is alone in its cell (or β = 0).
    pub fn identifiability_met(&self) -> bool {
        self.beta == 0 || self.partition.is_discrete(self.universe.num_elements())
    }

    /// Current (cells, required-cells) pair, for progress reporting.
    pub fn cells(&self) -> (u64, u64) {
        (self.partition.num_cells(), self.universe.num_elements())
    }

    /// Minimum coverage achieved so far over the subproblem's links.
    pub fn min_coverage(&self) -> u32 {
        self.w.iter().copied().min().unwrap_or(0)
    }

    /// Per local link, whether a path must cross it to still be
    /// [`Eval::useful`]: the link is under-α-covered, or (β ≥ 1) it is a
    /// physical member of an extended element that still shares its
    /// partition cell. A path crossing none of these gains no coverage and
    /// can split no cell — a cell it touches is touched through an element
    /// one of its links belongs to — and since selections only ever shrink
    /// this set, it stays useless for the rest of the solve.
    pub(crate) fn deficient_links(&mut self) -> Vec<bool> {
        let mut deficient: Vec<bool> = self.w.iter().map(|&w| w < self.alpha).collect();
        if self.beta == 0 {
            return deficient;
        }
        for (l, deficient) in deficient.iter_mut().enumerate() {
            if *deficient {
                continue;
            }
            *deficient = if self.beta == 1 {
                self.partition.shared(l as u64)
            } else {
                self.load_incident(&[l as u32]);
                self.incident.iter().any(|&e| self.partition.shared(e))
            };
        }
        deficient
    }

    /// Paths selected so far.
    pub fn selected(&self) -> &[ProbePath] {
        &self.selected
    }

    /// Consumes the state, returning the selection and what it achieved.
    pub(crate) fn into_solution(self) -> SubSolution {
        SubSolution {
            targets_met: self.targets_met(),
            coverage: self.min_coverage(),
            cells: self.cells(),
            paths: self.selected,
        }
    }

    /// Runs `f` on the path's links as sorted local indices.
    fn with_locals<T>(
        &mut self,
        path: &ProbePath,
        f: impl FnOnce(&mut Self, &[u32]) -> T,
    ) -> Result<T, PmcError> {
        let mut locals = std::mem::take(&mut self.locals);
        locals.clear();
        let found = path.links().iter().try_for_each(|&link| {
            let local = self.universe.local(link);
            locals.push(local.ok_or(PmcError::UnknownLink { link })?);
            Ok(())
        });
        let out = found.map(|()| {
            locals.sort_unstable();
            f(self, &locals)
        });
        self.locals = locals;
        out
    }

    fn load_incident(&mut self, locals: &[u32]) {
        self.incident.clear();
        let incident = &mut self.incident;
        self.universe
            .for_each_incident(locals, &mut self.in_path, |e| incident.push(e));
    }

    /// Scores a candidate path against the current state.
    pub fn evaluate(&mut self, path: &ProbePath) -> Result<Eval, PmcError> {
        self.with_locals(path, |state, locals| state.evaluate_locals(locals))
    }

    /// [`SelectionState::evaluate`] for a path given as its sorted,
    /// de-duplicated local link indices.
    pub(crate) fn evaluate_locals(&mut self, locals: &[u32]) -> Eval {
        let (touched, splits) = if self.beta <= 1 {
            self.partition.probe(locals.iter().map(|&l| u64::from(l)))
        } else {
            self.load_incident(locals);
            self.partition.probe(self.incident.iter().copied())
        };
        let weight: i64 = locals.iter().map(|&l| self.w[l as usize] as i64).sum();
        let coverage_gain = locals
            .iter()
            .filter(|&&l| self.w[l as usize] < self.alpha)
            .count() as u32;
        Eval {
            score: weight - touched as i64,
            split_gain: if self.beta >= 1 { splits } else { 0 },
            coverage_gain,
        }
    }

    /// Selects a path: refines the partition and updates link weights.
    pub fn select(&mut self, path: &ProbePath) -> Result<(), PmcError> {
        self.with_locals(path, |state, locals| state.select_locals(locals, path))
    }

    /// [`SelectionState::select`] for a path whose sorted, de-duplicated
    /// local link indices are `locals`.
    pub(crate) fn select_locals(&mut self, locals: &[u32], path: &ProbePath) {
        if self.beta <= 1 {
            self.partition.refine(locals.iter().map(|&l| u64::from(l)));
        } else {
            self.load_incident(locals);
            self.partition.refine(self.incident.iter().copied());
        }
        for &l in locals {
            let l = l as usize;
            self.w[l] += 1;
            if self.w[l] == self.alpha {
                self.under_covered -= 1;
            }
        }
        self.selected.push(path.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(alpha: u32, beta: u32) -> PmcConfig {
        PmcConfig::new(alpha, beta)
    }

    fn path(id: u32, links: &[u32]) -> ProbePath {
        ProbePath::from_links(id, links.iter().map(|&l| LinkId(l)).collect())
    }

    #[test]
    fn initial_score_is_minus_one() {
        let links: Vec<LinkId> = (0..3).map(LinkId).collect();
        let mut st = SelectionState::new(&links, &cfg(1, 1)).unwrap();
        let e = st.evaluate(&path(0, &[0, 1])).unwrap();
        // One big cell touched, zero weight.
        assert_eq!(e.score, -1);
        assert_eq!(e.split_gain, 1);
        assert_eq!(e.coverage_gain, 2);
    }

    #[test]
    fn fig3_partition_reaches_discreteness() {
        // Links l0,l1,l2; paths p1={0,1}, p2={0,2}, p3={2}.
        let links: Vec<LinkId> = (0..3).map(LinkId).collect();
        let mut st = SelectionState::new(&links, &cfg(1, 1)).unwrap();
        st.select(&path(0, &[0, 1])).unwrap();
        assert!(!st.identifiability_met());
        st.select(&path(1, &[0, 2])).unwrap();
        // After p1, p2: cells {l0}, {l1}, {l2}? p1 splits {012} into
        // {01},{2}; p2 splits {01} into {0},{1} and {2} stays ({2} is
        // entirely on p2 → moves wholesale, no split).
        assert!(st.identifiability_met());
        assert!(st.targets_met());
    }

    #[test]
    fn selecting_same_path_twice_gives_no_split_gain() {
        let links: Vec<LinkId> = (0..3).map(LinkId).collect();
        let mut st = SelectionState::new(&links, &cfg(1, 1)).unwrap();
        let p = path(0, &[0, 1]);
        st.select(&p).unwrap();
        let e = st.evaluate(&p).unwrap();
        assert_eq!(e.split_gain, 0);
        assert_eq!(e.coverage_gain, 0);
        // Weight is now 1 per link; both links share a single cell.
        assert_eq!(e.score, 2 - 1);
    }

    #[test]
    fn coverage_target_tracks_under_covered() {
        let links: Vec<LinkId> = (0..2).map(LinkId).collect();
        let mut st = SelectionState::new(&links, &cfg(2, 0)).unwrap();
        let p = path(0, &[0, 1]);
        assert!(!st.targets_met());
        st.select(&p).unwrap();
        assert!(!st.targets_met());
        st.select(&p).unwrap();
        assert!(st.targets_met());
        assert_eq!(st.min_coverage(), 2);
    }

    #[test]
    fn beta_two_requires_distinguishing_pairs() {
        // Two links, candidates {0}, {1}, {0,1}: with paths {0} and {1}
        // the pair {0,1} is distinguished from both singles, since
        // paths({0,1}) = {p0,p1}.
        let links: Vec<LinkId> = (0..2).map(LinkId).collect();
        let mut st = SelectionState::new(&links, &cfg(1, 2)).unwrap();
        st.select(&path(0, &[0])).unwrap();
        st.select(&path(1, &[1])).unwrap();
        assert!(st.identifiability_met(), "cells: {:?}", st.cells());
    }

    #[test]
    fn unknown_link_is_reported() {
        let links: Vec<LinkId> = (0..2).map(LinkId).collect();
        let mut st = SelectionState::new(&links, &cfg(1, 1)).unwrap();
        let err = st.evaluate(&path(0, &[5])).unwrap_err();
        assert!(matches!(err, PmcError::UnknownLink { .. }));
    }

    #[test]
    fn probe_does_not_mutate_partition() {
        let links: Vec<LinkId> = (0..4).map(LinkId).collect();
        let mut st = SelectionState::new(&links, &cfg(1, 2)).unwrap();
        let before = st.cells();
        let _ = st.evaluate(&path(0, &[0, 2])).unwrap();
        let _ = st.evaluate(&path(1, &[1, 3])).unwrap();
        assert_eq!(st.cells(), before);
    }

    #[test]
    fn stamp_rounds_survive_the_counter_wrapping() {
        // Enough probes and refinements to carry the counter past
        // `u32::MAX`, with fresh cells (stamped 0) probed after the wrap.
        let paths: [&[u64]; 6] = [
            &[0, 1, 2, 3],
            &[2, 3, 4],
            &[0, 4, 5],
            &[1, 5, 6, 7],
            &[6],
            &[3, 7],
        ];
        let mut fresh = Partition::new(8);
        let mut worn = Partition::new(8);
        worn.round = u32::MAX - 3;
        for step in 0..24 {
            let path = paths[step % paths.len()].iter().copied();
            assert_eq!(
                fresh.probe(path.clone()),
                worn.probe(path.clone()),
                "step {step}"
            );
            if step % 3 == 0 {
                assert_eq!(fresh.refine(path.clone()), worn.refine(path), "step {step}");
            }
            assert_eq!(fresh.cell_of, worn.cell_of, "step {step}");
            assert_eq!(fresh.cell_size, worn.cell_size, "step {step}");
            assert_eq!(fresh.num_cells(), worn.num_cells(), "step {step}");
        }
        assert!(worn.round < 64, "the counter wrapped");
    }

    /// Brute-force model of the selection state: every extended element
    /// (link subset of size 1..=β) keeps the list of selected paths that
    /// cover it, and the link sets are the groups of equal lists.
    struct Naive {
        elements: Vec<Vec<u32>>,
        covered_by: Vec<Vec<u32>>,
        w: Vec<u32>,
        alpha: u32,
        beta: u32,
        selected: u32,
    }

    impl Naive {
        fn new(n: u32, alpha: u32, beta: u32) -> Self {
            let mut elements: Vec<Vec<u32>> = (0..n).map(|a| vec![a]).collect();
            if beta >= 2 {
                for a in 0..n {
                    elements.extend((a + 1..n).map(|b| vec![a, b]));
                }
            }
            if beta >= 3 {
                for a in 0..n {
                    for b in a + 1..n {
                        elements.extend((b + 1..n).map(|c| vec![a, b, c]));
                    }
                }
            }
            Self {
                covered_by: vec![Vec::new(); elements.len()],
                elements,
                w: vec![0; n as usize],
                alpha,
                beta,
                selected: 0,
            }
        }

        /// Per link set: (elements incident to the path, all elements).
        fn link_sets(&self, links: &[u32]) -> std::collections::BTreeMap<&[u32], (u64, u64)> {
            let mut sets = std::collections::BTreeMap::new();
            for (e, by) in self.elements.iter().zip(&self.covered_by) {
                let set = sets.entry(by.as_slice()).or_insert((0, 0));
                set.0 += u64::from(e.iter().any(|l| links.contains(l)));
                set.1 += 1;
            }
            sets
        }

        fn evaluate(&self, links: &[u32]) -> Eval {
            let sets = self.link_sets(links);
            let touched = sets.values().filter(|(inc, _)| *inc > 0).count() as i64;
            let splits = sets.values().filter(|(inc, all)| 0 < *inc && inc < all);
            let weight: i64 = links.iter().map(|&l| i64::from(self.w[l as usize])).sum();
            Eval {
                score: weight - touched,
                split_gain: if self.beta >= 1 {
                    splits.count() as u64
                } else {
                    0
                },
                coverage_gain: links
                    .iter()
                    .filter(|&&l| self.w[l as usize] < self.alpha)
                    .count() as u32,
            }
        }

        fn select(&mut self, links: &[u32]) {
            for (e, by) in self.elements.iter().zip(&mut self.covered_by) {
                if e.iter().any(|l| links.contains(l)) {
                    by.push(self.selected);
                }
            }
            for &l in links {
                self.w[l as usize] += 1;
            }
            self.selected += 1;
        }

        fn cells(&self) -> (u64, u64) {
            (self.link_sets(&[]).len() as u64, self.elements.len() as u64)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Scores, splits and cell counts follow the brute-force model
        /// through any interleaving of evaluations and selections, for
        /// every β (β ≤ 1 scores straight off the locals, β ≥ 2 off the
        /// enumerated incident elements).
        #[test]
        fn kernel_matches_the_brute_force_model(
            n in 1u32..9,
            alpha in 0u32..4,
            beta in 0u32..4,
            steps in proptest::collection::vec(
                (proptest::collection::vec(0u32..8, 0..4), 0u32..3),
                1..24,
            ),
        ) {
            let links: Vec<LinkId> = (0..n).map(LinkId).collect();
            let mut st = SelectionState::new(&links, &cfg(alpha, beta)).unwrap();
            let mut model = Naive::new(n, alpha, beta);
            for (id, (raw, select)) in steps.iter().enumerate() {
                let p = path(id as u32, &raw.iter().map(|l| l % n).collect::<Vec<_>>());
                let ls: Vec<u32> = p.links().iter().map(|l| l.0).collect();
                assert_eq!(st.evaluate(&p).unwrap(), model.evaluate(&ls), "step {id}");
                if *select == 0 {
                    st.select(&p).unwrap();
                    model.select(&ls);
                }
                assert_eq!(st.cells(), model.cells(), "step {id}");
                assert_eq!(st.min_coverage(), *model.w.iter().min().unwrap());
                let covered = model.w.iter().all(|&w| w >= alpha);
                let discrete = beta == 0 || model.cells().0 == model.cells().1;
                assert_eq!(st.targets_met(), covered && discrete, "step {id}");
            }
            assert_eq!(st.selected().len() as u32, model.selected);
        }
    }
}
