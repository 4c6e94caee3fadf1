//! The strawman greedy: every remaining candidate is re-scored in every
//! iteration (the O(m²) baseline of Table 2).

use std::time::Instant;

use super::index::{CellPool, Pool};
use super::state::SelectionState;
use super::{check_deadline, PmcConfig, PmcError, SubSolution};
use crate::types::PathRef;

/// Runs the strawman greedy from `state` over the candidates of `pool`.
///
/// A `state` that already holds a selection makes this the completion half
/// of a seeded repair (`Subproblem::resolve_seeded` pre-selects the
/// surviving previous solution, then repairs from here), so the work is
/// sized by what is still missing, not by the pool: a state that already
/// meets the targets returns before the pool is looked at, and otherwise
/// only candidates crossing a *deficient* link
/// ([`SelectionState::deficient_links`]) enter `alive` — no other
/// candidate can be `useful`, now or later, so the selection is the one a
/// scan of the whole pool makes (`reference.rs` keeps that scan and the
/// proptest comparing the two). `selected` says whether a candidate is
/// already in the selection as a seed path; it is asked only about a
/// candidate that is about to lead a round — in candidate order among
/// equals, so of several copies of a route the earliest stand for the
/// seeds — and a candidate it claims is dropped for good.
pub(crate) fn run(
    mut pool: CellPool<'_>,
    mut state: SelectionState,
    cfg: &PmcConfig,
    deadline: Option<Instant>,
    mut selected: impl FnMut(PathRef<'_>) -> bool,
) -> Result<SubSolution, PmcError> {
    // detlint::allow(determinism, reason = "PMC solver timeout clock; deadlines only abort, never alter a completed plan")
    let start = Instant::now();
    if state.targets_met() {
        return Ok(state.into_solution());
    }
    // Indices of the candidates still in play, in candidate order.
    let mut alive = pool.crossing(&state.deficient_links());

    while !state.targets_met() {
        check_deadline(deadline, start)?;
        // (score, position in `alive`) of the first best candidate.
        let mut best: Option<(i64, usize)> = None;
        let mut kept = 0;
        for at in 0..alive.len() {
            let i = alive[at];
            let (locals, path) = pool.get(i);
            let e = state.evaluate_locals(locals);
            if (at + 1).is_multiple_of(4096) {
                check_deadline(deadline, start)?;
            }
            if !e.useful(cfg.beta) {
                // A useless path can never become useful again (its links
                // are fully covered and its incident link sets can no
                // longer split); drop it permanently.
                continue;
            }
            if best.is_none_or(|(s, _)| e.score < s) {
                if selected(path) {
                    continue;
                }
                best = Some((e.score, kept));
            }
            alive[kept] = i;
            kept += 1;
        }
        alive.truncate(kept);
        match best {
            Some((_, at)) => {
                let (locals, path) = pool.get(alive.remove(at));
                state.select_locals(locals, path);
            }
            None => break,
        }
    }

    Ok(state.into_solution())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmc::Subproblem;
    use crate::types::{LinkId, ProbePath};

    /// Solves a materialized subproblem with `cfg`'s strategy.
    fn run(
        universe: Vec<LinkId>,
        candidates: Vec<ProbePath>,
        cfg: &PmcConfig,
        deadline: Option<Instant>,
    ) -> Result<SubSolution, PmcError> {
        Subproblem::new(universe, candidates)?.solve(cfg, deadline)
    }

    fn links(n: u32) -> Vec<LinkId> {
        (0..n).map(LinkId).collect()
    }

    fn path(id: u32, ls: &[u32]) -> ProbePath {
        ProbePath::from_links(id, ls.iter().map(|&l| LinkId(l)).collect())
    }

    #[test]
    fn selects_minimal_cover_for_disjoint_links() {
        // Four links; two disjoint 2-link paths suffice for 1-coverage and
        // are preferred over four 1-link paths.
        let candidates = vec![
            path(0, &[0, 1]),
            path(1, &[2, 3]),
            path(2, &[0]),
            path(3, &[1]),
            path(4, &[2]),
            path(5, &[3]),
        ];
        let sol = run(
            links(4),
            candidates,
            &PmcConfig::coverage(1).strawman(),
            None,
        )
        .unwrap();
        assert!(sol.targets_met);
        assert_eq!(sol.paths.len(), 2);
    }

    #[test]
    fn identifiability_forces_extra_splits() {
        // Links 0,1 can only be told apart with a path covering exactly
        // one of them.
        let candidates = vec![path(0, &[0, 1]), path(1, &[0])];
        let sol = run(
            links(2),
            candidates,
            &PmcConfig::identifiable(1).strawman(),
            None,
        )
        .unwrap();
        assert!(sol.targets_met);
        assert_eq!(sol.paths.len(), 2);
    }

    #[test]
    fn stops_when_no_useful_candidate_remains() {
        // Identifiability of links 0 and 1 is impossible: they always
        // appear together.
        let candidates = vec![path(0, &[0, 1]), path(1, &[0, 1])];
        let sol = run(
            links(2),
            candidates,
            &PmcConfig::identifiable(1).strawman(),
            None,
        )
        .unwrap();
        assert!(!sol.targets_met);
        // One path gives coverage; the duplicate adds nothing once α = 1.
        assert_eq!(sol.paths.len(), 1);
    }
}
