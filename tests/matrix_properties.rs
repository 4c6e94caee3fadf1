//! Property-based tests of the core invariants: what PMC certifies must
//! hold under independent verification, and β-identifiability must imply
//! exact recovery of ≤β full-loss failures by PLL in the noiseless case.

use detector::prelude::*;
use proptest::prelude::*;

/// Random small candidate sets: up to 24 links, up to 60 paths of 1..5
/// links each.
fn candidate_sets() -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    (4usize..24).prop_flat_map(|n| {
        let paths =
            proptest::collection::vec(proptest::collection::btree_set(0u32..n as u32, 1..5), 1..60)
                .prop_map(|ps| ps.into_iter().map(|s| s.into_iter().collect()).collect());
        (Just(n), paths)
    })
}

fn build(raw: &[Vec<u32>]) -> Vec<ProbePath> {
    raw.iter()
        .enumerate()
        .map(|(i, ls)| ProbePath::from_links(i as u32, ls.iter().map(|&l| LinkId(l)).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever construction claims, the independent verifier agrees.
    #[test]
    fn construction_claims_are_verified((n, raw) in candidate_sets()) {
        for beta in 0..=2u32 {
            let cfg = PmcConfig::new(1, beta);
            let m = construct(n, build(&raw), &cfg).unwrap();
            if m.achieved.targets_met {
                prop_assert!(min_coverage(&m) >= 1);
                prop_assert!(
                    max_identifiability(&m, beta) >= beta,
                    "claimed beta={} not verified (got {})",
                    beta,
                    max_identifiability(&m, beta)
                );
            }
        }
    }

    /// The lazy greedy and the strawman agree on target attainability.
    #[test]
    fn lazy_and_strawman_agree((n, raw) in candidate_sets()) {
        let lazy = construct(n, build(&raw), &PmcConfig::identifiable(1)).unwrap();
        let straw = construct(n, build(&raw), &PmcConfig::identifiable(1).strawman()).unwrap();
        prop_assert_eq!(lazy.achieved.targets_met, straw.achieved.targets_met);
    }

    /// On a verified 1-identifiable matrix, a single full-loss failure is
    /// recovered *exactly* from noiseless observations: the bad link's
    /// paths are the whole lossy set, so its explanation score strictly
    /// dominates every competitor (whose path sets are strict subsets, by
    /// identifiability).
    #[test]
    fn single_failure_is_exactly_recovered((n, raw) in candidate_sets(), pick in 0usize..1000) {
        let m = construct(n, build(&raw), &PmcConfig::identifiable(1)).unwrap();
        prop_assume!(m.achieved.targets_met);
        let bad = LinkId((pick % n) as u32);

        let observations: Vec<PathObservation> = m
            .paths
            .iter()
            .map(|p| {
                PathObservation::new(p.id, 100, if p.covers(bad) { 100 } else { 0 })
            })
            .collect();
        let d = localize(&m, &observations, &PllConfig::default());
        prop_assert_eq!(d.suspect_links(), vec![bad]);
    }

    /// For ≤β simultaneous full-loss failures on a β-identifiable matrix,
    /// the greedy explains *every* loss and blames only links that meet
    /// the hit-ratio threshold. It may blame wrong links — the greedy is a
    /// minimum-hitting-set heuristic that ranks by explained losses with
    /// hit ratio only as a filter, which is where the paper's residual
    /// false positives come from (§5.3) — so exact recovery is only
    /// guaranteed in one sharp case: when every suspect is fully
    /// consistent (hit ratio 1) and there are at most β of them,
    /// β-identifiability forces the suspect set to equal the true failure
    /// set (both are ≤β failure hypotheses producing the same lossy set).
    #[test]
    fn pair_failures_are_consistently_explained(
        (n, raw) in candidate_sets(),
        p1 in 0usize..1000,
        p2 in 0usize..1000,
    ) {
        let m = construct(n, build(&raw), &PmcConfig::identifiable(2)).unwrap();
        prop_assume!(m.achieved.targets_met);
        let mut bad = vec![LinkId((p1 % n) as u32), LinkId((p2 % n) as u32)];
        bad.sort_unstable();
        bad.dedup();

        let observations: Vec<PathObservation> = m
            .paths
            .iter()
            .map(|p| {
                let lossy = bad.iter().any(|b| p.covers(*b));
                PathObservation::new(p.id, 100, if lossy { 100 } else { 0 })
            })
            .collect();
        let cfg = PllConfig::default();
        let d = localize(&m, &observations, &cfg);
        // The true links have hit ratio 1 and cover every lossy path, so
        // the greedy can always make progress: nothing stays unexplained.
        prop_assert!(d.unexplained_paths.is_empty(), "losses left unexplained");
        prop_assert!(!d.suspects.is_empty());
        // Every suspect passed the hit-ratio filter and explained
        // something.
        for s in &d.suspects {
            prop_assert!(
                s.hit_ratio >= cfg.hit_ratio_threshold,
                "suspect {} below threshold ({})",
                s.link,
                s.hit_ratio
            );
            prop_assert!(s.explained_paths > 0);
        }
        // The sharp identifiability consequence.
        let fully_consistent = d
            .suspects
            .iter()
            .all(|s| (s.hit_ratio - 1.0).abs() < 1e-12);
        if fully_consistent && d.suspects.len() <= 2 {
            prop_assert_eq!(
                d.suspect_links(),
                bad.clone(),
                "≤2 fully-consistent suspects must be exactly the failed links"
            );
        }
    }

    /// Structural sanity of constructed matrices: selection never keeps a
    /// path covering zero links (an empty routing-matrix row can neither
    /// cover nor identify anything and would only inflate probe cost),
    /// and row ids come out densely renumbered so observations index
    /// correctly.
    #[test]
    fn constructed_matrices_have_no_empty_paths(
        (n, raw) in candidate_sets(),
        empties in 0usize..4,
        alpha in 1u32..3,
        beta in 0u32..3,
    ) {
        // Splice some explicitly empty candidate paths in as well — the
        // generator above never produces them, but callers might.
        let mut candidates = build(&raw);
        for e in 0..empties {
            candidates.push(ProbePath::from_links((raw.len() + e) as u32, vec![]));
        }
        let m = construct(n, candidates, &PmcConfig::new(alpha, beta)).unwrap();
        for (i, p) in m.paths.iter().enumerate() {
            prop_assert!(!p.is_empty(), "selected path {} covers no links", i);
            prop_assert_eq!(p.id, PathId(i as u32), "path ids must be dense");
        }
    }

    /// `PathObservation::new` upholds `lost <= sent` for arbitrary counter
    /// values (pinger counters can disagree transiently — e.g. a reply
    /// arriving after its window closed — and the diagnoser's loss ratios
    /// must still land in [0, 1]).
    #[test]
    fn observation_lost_never_exceeds_sent(sent in 0u64..2_000_000, lost in 0u64..4_000_000) {
        let o = PathObservation::new(PathId(0), sent, lost);
        prop_assert!(o.lost <= o.sent, "lost {} > sent {}", o.lost, o.sent);
        let r = o.loss_ratio();
        prop_assert!((0.0..=1.0).contains(&r), "loss ratio {} out of [0,1]", r);
    }

    /// PLL never blames a link all of whose paths are clean.
    #[test]
    fn pll_never_blames_exonerated_links((n, raw) in candidate_sets(), bad in 0u32..24) {
        let m = construct(n, build(&raw), &PmcConfig::coverage(1)).unwrap();
        let bad = LinkId(bad % n as u32);
        let observations: Vec<PathObservation> = m
            .paths
            .iter()
            .map(|p| {
                let lossy = p.covers(bad);
                PathObservation::new(p.id, 100, if lossy { 60 } else { 0 })
            })
            .collect();
        let d = localize(&m, &observations, &PllConfig::default());
        for s in &d.suspects {
            let clean = m
                .paths.iter().filter(|p| p.covers(s.link))
                .all(|p| !observations[p.id.index()].is_lossy());
            prop_assert!(!clean, "blamed fully-clean link {}", s.link);
        }
    }
}
