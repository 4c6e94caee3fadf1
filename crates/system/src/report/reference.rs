//! Test-only oracles for the report store.
//!
//! **The store as it was.** [`MapStore`] keeps every report whole in a
//! `HashMap<u64, Vec<PingerReport>>` and answers the three queries the
//! way `ReportStore` did before a window became a log of columns.
//! [`store_answers_as_the_map_of_reports_did`] drives both with the same
//! arbitrary sequence of ingests and prunes — windows interleaved and out
//! of order, prunes at arbitrary points with re-ingest after them, empty
//! reports, `flows_probed` shorter than `paths` — and after every step
//! compares all three queries on every window under random exclusion and
//! path predicates. Each mutation below was applied to `report.rs` by
//! hand and the property failed on it:
//!
//! 1. a row range off by one between adjacent reports (`from` set one
//!    row short of, or one past, the previous `rows_end` in
//!    `WindowLog::reports`) — observations differ;
//! 2. a recycled log that is not cleared (`log.clear()` dropped from
//!    `Logs::prune_before`) — a reused window reports the pruned one's
//!    reports;
//! 3. the `probed()` zero padding dropped (`WindowLog::push` zipping
//!    `paths` with `flows_probed` itself) — the paths past the short
//!    run vanish;
//! 4. a report's flow range starting at the log's start instead of at
//!    the previous report's end — another pinger's records on the same
//!    path turn into this pinger's samples.
//!
//! **Reports as they were when a report carried a record for every flow
//! it probed.** [`run_window_full_records`] is the pinger's merge before
//! the clean records were dropped and [`ReportStore::flow_samples_full`]
//! the store's aggregation over such reports.
//! [`lossy_only_reports_classify_as_full_records_do`] runs both
//! generations side by side on the same fabric: the lossy-only
//! report must be the full one with its records counted and its clean
//! records, and every record of a path that lost every probe, removed;
//! and `classify_suspect` must not be able to tell which store it reads.
//!
//! **The window as a hash-and-sort aggregation.**
//! [`one_walk_sums_as_the_store_aggregation_does`] holds
//! [`ReportStore::window_sums`] — the walk before it emitted only the
//! lossy paths: one walk of the log's rows into a dense
//! per-matrix-row accumulator, every observed path read out in ascending
//! path id — against `window_observations` with its `(0, 0)` paths
//! removed, whole `Vec`s compared, and its report count against the map
//! of reports', over segmented matrices whose rows are not in id order
//! and whose ids split the row table into several runs, reports naming
//! ids neither matrix resolves, empty reports, random exclusion masks,
//! prunes and re-files, and matrix swaps between windows — one
//! accumulator throughout. Each mutation below was applied by hand to
//! the walk, when it lived in `report.rs`, and the property failed on it:
//!
//! a. excluded pingers not skipped (the walk's `filter` dropped) — a
//!    masked pinger's rows are summed;
//! b. emission in row order (`0..rows.len()` with each row's path id
//!    instead of the `(id, row)` pairs sorted by id) — a re-based cell's
//!    paths come out ahead of lower ids;
//! c. side-list ids dropped (`add` returning where the matrix has no row)
//!    — stray and other-matrix ids vanish;
//! d. the accumulator not reset between windows (`*slot` read instead of
//!    `std::mem::take(slot)`) — a window reports an earlier walk's sums.
//!
//! **The lossy walk as the whole window, filtered and counted.**
//! [`lossy_walk_emits_the_lossy_sums_and_counts_what_each_link_observed`]
//! holds [`ReportStore::window_lossy`] — the walk that emits only the
//! lossy paths and keeps, per link, the rows it left without a probe
//! sent — against `window_sums`: the emitted observations against its
//! paths with `lost.min(sent) > 0`, the observed-path and report counts
//! against its own, and every link's `RowSums::observed_through` against
//! a naive count of its rows with `sent != 0` through the link. It runs
//! over the same segmented matrices with paths of one to three links,
//! some beyond `num_links`, counters that wrap (a path's losses summing
//! to exactly 2⁶⁴, or more losses than probes), strays, exclusions,
//! prunes and matrix swaps with one accumulator refitted at each swap.
//! Each mutation below was applied to `report.rs` by hand and the
//! property failed on it:
//!
//! e. the per-link counts not reset before the unobserved rows are
//!    taken off them (the read-out's `observed.clone_from(&through)`
//!    dropped) — a link's denominator shrinks again each time the
//!    unobserved rows move;
//! f. a row that sent nothing but lost something counted as observed
//!    (`sums == (0, 0)` instead of `sums.0 == 0` where the read-out
//!    lists it unobserved) — a link's denominator counts a path
//!    `localize` drops;
//! g. the read-out in row order (the matrix's rows, each with its path
//!    id, instead of the id table) — a re-based cell's lossy paths come
//!    out ahead of lower ids;
//! h. a clean stray emitted (`read` also emitting every path the matrix
//!    has no row for, `|| matrix.row_of(path).is_none()`) — an
//!    unresolvable clean id reaches PLL.
//!
//! **A path that lost every probe as its flow count.** Such a path ships
//! no flow record: the pinger keeps none, the decoder refuses any, and
//! the store rebuilds its flows at loss rate 1. Each mutation below was
//! applied by hand, on the layer named, and the tests named failed on it:
//!
//! i. an all-lost row's rebuilt flows sampled at `lost = 0`
//!    (`ReportStore::flow_samples`' `all_lost` branch dropped) —
//!    `lossy_only_reports_classify_as_full_records_do` classifies a full
//!    loss differently, and `store_answers_as_the_map_of_reports_did`
//!    disagrees with the map of reports;
//! j. the pinger keeping records on an all-lost path (`run_window`'s
//!    `any(|f| f.lost < f.sent)` test replaced by `true`) — the decoder
//!    refuses its reports, so `pinger_reports_round_trip`
//!    (`crates/agent/tests/frame_proptests.rs`) fails;
//! k. the decoder accepting such records (`decode_report`'s "records on
//!    a path that lost every probe" check dropped) — a record on a dead
//!    path decodes, and the canonicality test
//!    `a_report_breaking_its_invariants_does_not_decode`
//!    (`crates/system/src/wire.rs`) fails.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use detector_core::pll::{classify_loss, ClassifyConfig, FlowSample};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, NodeId, PathId, PathObservation, ProbePath};
use detector_simnet::{Fabric, LossDiscipline};
use detector_topology::{DcnTopology, Fattree};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{FlowRecord, PathCounters, PingerReport, ReportStore, RowSums};
use crate::controller::Controller;
use crate::diagnoser::Diagnoser;
use crate::pinger::{batch_seed, lossy_only, run_window_full_records, PingerBatch};
use crate::watchdog::Watchdog;
use crate::SystemConfig;

fn discipline(kind: u8, level: u8) -> LossDiscipline {
    match kind % 4 {
        0 => LossDiscipline::Full,
        1 => LossDiscipline::DeterministicPartial {
            fraction: 0.2 + f64::from(level % 6) / 10.0,
            salt: u64::from(level),
        },
        2 => LossDiscipline::RandomPartial {
            rate: 0.01 + f64::from(level % 30) / 100.0,
        },
        _ => LossDiscipline::DscpBlackhole { dscp: 46 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// New report ≡ reference report with its clean records counted and
    /// dropped, and `classify_suspect` over the lossy-only store ≡
    /// `classify_loss` over the full-record store — all five fields, on
    /// every failed link and on one healthy link, with some pingers'
    /// reports excluded by the watchdog.
    #[test]
    fn lossy_only_reports_classify_as_full_records_do(
        big in 0u8..2,
        failures in proptest::collection::vec((0u16..512, 0u8..4, 0u8..60), 1..4),
        sick in proptest::collection::vec(0usize..64, 0..3),
        windows in 1u64..5,
        seed in 0u64..1_000,
    ) {
        let ft = Arc::new(Fattree::new(if big == 1 { 6 } else { 4 }).unwrap());
        let cfg = SystemConfig::default();
        let dep = Controller::new(ft.clone(), cfg.clone())
            .build_deployment(&HashSet::new())
            .expect("deployment builds");
        // Background noise too: lossy flows on paths no failure touches.
        let mut fabric = Fabric::new(ft.as_ref(), seed ^ 0xFAB);
        let mut links = Vec::new();
        for &(link, kind, level) in &failures {
            let l = LinkId(u32::from(link) % ft.probe_links() as u32);
            fabric.set_discipline_both(l, discipline(kind, level));
            links.push(l);
        }
        let healthy = (0..ft.probe_links() as u32).map(LinkId).find(|l| !links.contains(l));
        links.extend(healthy);

        let mut watchdog = Watchdog::new();
        for &s in &sick {
            watchdog.mark_unhealthy(dep.pinglists[s % dep.pinglists.len()].pinger);
        }
        let excluded = |p: NodeId| !watchdog.is_healthy(p);

        let mut lossy = Diagnoser::new(dep.matrix.clone(), cfg.pll);
        let full = ReportStore::new();
        for w in 0..windows {
            for list in &dep.pinglists {
                let pinger = PingerBatch::bind(list.clone(), ft.graph());
                let got = pinger.run_window(&fabric, &cfg, w, seed ^ w);
                let mut rng = SmallRng::seed_from_u64(batch_seed(seed ^ w, list.pinger));
                let want = run_window_full_records(&pinger, &fabric, &cfg, w, &mut rng);
                prop_assert_eq!(&got, &lossy_only(want.clone()));
                prop_assert!(got.flows.iter().all(|f| f.lost > 0));
                lossy.ingest(got);
                full.ingest(want);
            }
        }
        for w in 0..windows {
            for &l in &links {
                let through = |pid| dep.matrix.path(pid).is_some_and(|p| p.covers(l));
                let samples = full.flow_samples_full(w, &excluded, &through);
                let want = classify_loss(&samples, &ClassifyConfig::default());
                prop_assert_eq!(lossy.classify_suspect(w, l, &watchdog), want, "window {} {}", w, l);
            }
        }
    }
}

impl ReportStore {
    /// [`flow_samples`](Self::flow_samples) as it was when reports carried
    /// a record for every flow, clean ones included — the oracle the
    /// lossy-only store is tested against, fed full-record reports.
    pub(crate) fn flow_samples_full(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
        keep_path: &dyn Fn(PathId) -> bool,
    ) -> Vec<FlowSample> {
        let inner = self.inner.read();
        let mut agg: HashMap<(NodeId, PathId, u64), (u64, u64)> = HashMap::new();
        for (pinger, _, flows) in inner.reports(window).filter(|(p, ..)| !excluded(*p)) {
            for f in flows.iter().filter(|f| keep_path(f.path)) {
                let flow = u64::from(f.sport) | (u64::from(f.dscp) << 16);
                let e = agg.entry((pinger, f.path, flow)).or_insert((0, 0));
                e.0 += f.sent;
                e.1 += f.lost;
            }
        }
        agg.into_iter()
            .map(|((pinger, pid, flow), (sent, lost))| {
                let id = ((pinger.0 as u64) << 48) ^ ((pid.0 as u64) << 24) ^ flow;
                FlowSample::new(id, sent, lost)
            })
            .collect()
    }

    /// The one walk before it emitted only the lossy paths: the reports
    /// of pingers not `excluded`, summed per path into `sums`' slot for
    /// the path's `matrix` row — ids the matrix cannot resolve on a short
    /// side list — then every path read out in ascending path id, paths
    /// summing to `(0, 0)` left out, and with them how many reports were
    /// summed. Filtered to its lossy paths, and counted per link, it is
    /// the oracle of [`window_lossy`](Self::window_lossy).
    pub(crate) fn window_sums(
        &self,
        window: u64,
        matrix: &ProbeMatrix,
        excluded: &dyn Fn(NodeId) -> bool,
        sums: &mut DenseSums,
    ) -> (Vec<PathObservation>, u64) {
        sums.fit(matrix);
        let inner = self.inner.read();
        let mut reports = 0u64;
        for (_, rows, _) in inner.reports(window).filter(|(p, ..)| !excluded(*p)) {
            reports += 1;
            for (r, (sent, lost)) in rows.iter() {
                sums.add(matrix.row_of(r.path), r.path, sent, lost);
            }
        }
        (sums.drain(matrix), reports)
    }
}

/// The recycled accumulator of [`ReportStore::window_sums`]: one
/// `(sent, lost)` slot per row of the matrix walked, all zero between
/// walks, and the side list of ids the matrix cannot resolve.
#[derive(Default)]
pub(crate) struct DenseSums {
    rows: Vec<(u64, u64)>,
    /// Ascending by path, one entry per id.
    strays: Vec<(PathId, (u64, u64))>,
}

impl DenseSums {
    fn fit(&mut self, matrix: &ProbeMatrix) {
        self.rows.resize(matrix.num_paths(), (0, 0));
    }

    fn add(&mut self, row: Option<usize>, path: PathId, sent: u64, lost: u64) {
        let slot = match row.and_then(|row| self.rows.get_mut(row)) {
            Some(slot) => slot,
            None => {
                let at = match self.strays.binary_search_by_key(&path, |&(p, _)| p) {
                    Ok(at) => at,
                    Err(at) => {
                        self.strays.insert(at, (path, (0, 0)));
                        at
                    }
                };
                &mut self.strays[at].1
            }
        };
        *slot = (slot.0.wrapping_add(sent), slot.1.wrapping_add(lost));
    }

    fn drain(&mut self, matrix: &ProbeMatrix) -> Vec<PathObservation> {
        let mut out = Vec::new();
        let observed = |(path, (sent, lost)): (PathId, (u64, u64))| {
            ((sent, lost) != (0, 0)).then(|| PathObservation::new(path, sent, lost))
        };
        let mut by_id: Vec<(PathId, usize)> = (matrix.paths.iter().enumerate())
            .map(|(row, p)| (p.id, row))
            .collect();
        by_id.sort_unstable();
        let mut strays = self.strays.drain(..).peekable();
        for (path, row) in by_id {
            let Some(o) = observed((path, std::mem::take(&mut self.rows[row]))) else {
                continue;
            };
            while let Some(stray) = strays.next_if(|&(p, _)| p < path) {
                out.extend(observed(stray));
            }
            out.push(o);
        }
        out.extend(strays.filter_map(observed));
        out
    }
}

/// The report store before the window log: every report kept whole.
#[derive(Default)]
pub(super) struct MapStore(HashMap<u64, Vec<PingerReport>>);

impl MapStore {
    pub(super) fn ingest(&mut self, report: PingerReport) {
        self.0.entry(report.window).or_default().push(report);
    }

    pub(super) fn window_observations(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
    ) -> Vec<PathObservation> {
        let mut agg: HashMap<PathId, PathCounters> = HashMap::new();
        if let Some(reports) = self.0.get(&window) {
            for r in reports {
                if excluded(r.pinger) {
                    continue;
                }
                for (pid, c) in &r.paths {
                    let e = agg.entry(*pid).or_default();
                    e.sent += c.sent;
                    e.lost += c.lost;
                }
            }
        }
        let mut out: Vec<PathObservation> = agg
            .into_iter()
            .map(|(pid, c)| PathObservation::new(pid, c.sent, c.lost))
            .collect();
        out.sort_unstable_by_key(|o| o.path);
        out
    }

    pub(super) fn flow_samples(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
        keep_path: &dyn Fn(PathId) -> bool,
    ) -> Vec<FlowSample> {
        let reports = self.0.get(&window).into_iter().flatten();
        let mut samples = Vec::new();
        for r in reports.filter(|r| !excluded(r.pinger)) {
            for ((pid, c), probed) in r.paths.iter().zip(r.probed()) {
                if !keep_path(*pid) {
                    continue;
                }
                let id = |flow| (u64::from(r.pinger.0) << 48) ^ (u64::from(pid.0) << 24) ^ flow;
                let lossy = r.flows_of(*pid);
                for f in lossy {
                    let flow = u64::from(f.sport) | (u64::from(f.dscp) << 16);
                    samples.push(FlowSample::new(id(flow), f.sent, f.lost));
                }
                let clean_flows = u64::from(probed).saturating_sub(lossy.len() as u64);
                let clean_sent = c.sent.saturating_sub(lossy.iter().map(|f| f.sent).sum());
                // A path that lost every probe lost all of each flow's.
                let dead = c.sent > 0 && c.lost == c.sent;
                for i in 0..clean_flows {
                    let rest = clean_sent.saturating_sub(clean_flows - 1);
                    let sent = if i == 0 { rest } else { 1 };
                    let lost = if dead { sent } else { 0 };
                    samples.push(FlowSample::new(id((i + 1) << 24), sent, lost));
                }
            }
        }
        samples
    }

    fn prune_before(&mut self, keep_from: u64) {
        self.0.retain(|w, _| *w >= keep_from);
    }

    fn reports_in_window(&self, window: u64) -> usize {
        self.0.get(&window).map_or(0, |v| v.len())
    }
}

/// Windows the ingest/prune sequences draw from; the queries also ask
/// for the one past them, which nothing is ever filed in.
const WINDOWS: u64 = 8;
/// Path ids a report draws from.
const PATHS: u32 = 12;

/// A report of `pinger` for `window`, its shape drawn from `seed`: zero
/// to five ascending paths (none: an empty report), a `flows_probed` run
/// of any length up to the paths', an in-rack total, and up to three
/// lossy flow records a path, ascending by key.
fn arbitrary_report(pinger: u32, window: u64, seed: u64) -> PingerReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ids: Vec<u32> = (0..rng.gen_range(0..6usize))
        .map(|_| rng.gen_range(0..PATHS))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let counters = |rng: &mut SmallRng| {
        let sent = rng.gen_range(0..40u64);
        PathCounters {
            sent,
            lost: rng.gen_range(0..sent + 1),
        }
    };
    let paths: Vec<(PathId, PathCounters)> = ids
        .iter()
        .map(|&p| (PathId(p), counters(&mut rng)))
        .collect();
    let probed_len = rng.gen_range(0..paths.len() + 1);
    let flows_probed = (0..probed_len).map(|_| rng.gen_range(0..5u32)).collect();
    let in_rack = counters(&mut rng);
    let mut flows = Vec::new();
    for &(path, _) in &paths {
        for sport in 33000..33000 + rng.gen_range(0..4u16) {
            let sent = rng.gen_range(1..10u64);
            let lost = rng.gen_range(1..sent + 1);
            let dscp = 0;
            flows.push(FlowRecord {
                path,
                sport,
                dscp,
                sent,
                lost,
            });
        }
    }
    PingerReport {
        pinger: NodeId(pinger),
        window,
        paths,
        flows_probed,
        in_rack,
        flows,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The window log ≡ the map of reports: all three queries, on every
    /// window, after every ingest and every prune (see the module doc
    /// for the mutations this kills).
    #[test]
    fn store_answers_as_the_map_of_reports_did(
        steps in proptest::collection::vec((0u8..6, 0u32..5, 0u64..WINDOWS, 0u64..u64::MAX), 1..40),
        masks in proptest::collection::vec((0u8..32, 0u16..4096), 1..4),
    ) {
        let store = ReportStore::new();
        let mut reference = MapStore::default();
        for (step, &(kind, pinger, window, seed)) in steps.iter().enumerate() {
            if kind == 0 {
                // `window` doubles as the cut: anywhere in the range,
                // everything or nothing included.
                store.prune_before(window);
                reference.prune_before(window);
            } else {
                let report = arbitrary_report(pinger, window, seed);
                store.ingest(report.clone());
                reference.ingest(report);
            }
            for w in 0..=WINDOWS {
                prop_assert_eq!(store.reports_in_window(w), reference.reports_in_window(w));
                for &(pingers, paths) in &masks {
                    let excluded = |p: NodeId| (pingers >> p.0) & 1 == 1;
                    let keep = |p: PathId| (paths >> p.0) & 1 == 1;
                    let at = format!("step {step}, window {w}, masks {pingers:#x}/{paths:#x}");
                    prop_assert_eq!(
                        store.window_observations(w, &excluded),
                        reference.window_observations(w, &excluded),
                        "{}", at
                    );
                    prop_assert_eq!(
                        store.flow_samples(w, &excluded, &keep),
                        reference.flow_samples(w, &excluded, &keep),
                        "{}", at
                    );
                }
            }
        }
    }
}

/// A segmented matrix of `cells`, rows in the order given. A cell is a
/// cluster (bases 1 000 ids apart, so the row table splits into one run
/// per cluster), an offset, and which of the next 8 ids it holds — so
/// a cell listed first may sort after a later one, as a re-based cell's
/// range does. A path crosses one to three of 13 links, of which the
/// matrix declares 7: the rest lie beyond its universe.
fn cells_matrix(cells: &[(u32, u32, u16)]) -> ProbeMatrix {
    let mut seen = HashSet::new();
    let ids = cells.iter().flat_map(|&(cluster, offset, held)| {
        let base = cluster * 1_000 + offset;
        (0..8u32)
            .filter(move |i| (held >> i) & 1 == 1)
            .map(move |i| base + i)
    });
    let paths = ids
        .filter(|id| seen.insert(*id))
        .map(|id| {
            let links = [id % 7, 3 + id % 10, id % 13];
            let links = links.iter().take(1 + id as usize % 3).map(|&l| LinkId(l));
            ProbePath::from_links(id, links.collect())
        })
        .collect::<Vec<_>>();
    ProbeMatrix::from_segmented(7, paths)
}

/// Both matrices' ids, and ids neither resolves: in a gap between
/// clusters and past all of them.
fn id_pool(matrices: &[ProbeMatrix]) -> Vec<u32> {
    let mut pool: Vec<u32> = (matrices.iter())
        .flat_map(|m| m.paths.iter().map(|p| p.id.0))
        .chain([500, 1_500, 4_999, 5_000])
        .collect();
    pool.sort_unstable();
    pool.dedup();
    pool
}

/// A report of `pinger` for `window` over a random subset of `pool`
/// (none: an empty report), counters drawn from `seed`, `(0, 0)` rows
/// included.
fn report_over(pinger: u32, window: u64, pool: &[u32], seed: u64) -> PingerReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut paths = Vec::new();
    for &id in pool {
        if rng.gen_range(0..3u8) == 0 {
            let sent = rng.gen_range(0..20u64);
            let lost = rng.gen_range(0..sent + 1);
            paths.push((PathId(id), PathCounters { sent, lost }));
        }
    }
    PingerReport {
        pinger: NodeId(pinger),
        window,
        paths,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one walk ≡ the hash-and-sort aggregation without its `(0, 0)`
    /// paths, order included, and its report count ≡ the reports not
    /// excluded — after every step, on every window, under every mask,
    /// with one accumulator throughout (see the module doc for the
    /// mutations this kills).
    #[test]
    fn one_walk_sums_as_the_store_aggregation_does(
        cells_a in proptest::collection::vec((0u32..4, 0u32..40, 1u16..256), 1..5),
        cells_b in proptest::collection::vec((0u32..4, 0u32..40, 1u16..256), 1..5),
        steps in proptest::collection::vec((0u8..8, 0u32..5, 0u64..WINDOWS, 0u64..u64::MAX), 1..30),
        masks in proptest::collection::vec(0u8..32, 1..4),
    ) {
        let matrices = [cells_matrix(&cells_a), cells_matrix(&cells_b)];
        let pool = id_pool(&matrices);

        let store = ReportStore::new();
        let mut reference = MapStore::default();
        let mut sums = DenseSums::default();
        let mut installed = 0;
        for (step, &(kind, pinger, window, seed)) in steps.iter().enumerate() {
            match kind {
                0 => {
                    store.prune_before(window);
                    reference.prune_before(window);
                }
                1 => installed ^= 1,
                _ => {
                    let report = report_over(pinger, window, &pool, seed);
                    store.ingest(report.clone());
                    reference.ingest(report);
                }
            }
            let matrix = &matrices[installed];
            for w in 0..=WINDOWS {
                for &mask in &masks {
                    let excluded = |p: NodeId| (mask >> p.0) & 1 == 1;
                    let mut want = store.window_observations(w, &excluded);
                    want.retain(|o| (o.sent, o.lost) != (0, 0));
                    let filed = reference.0.get(&w).into_iter().flatten();
                    let reports = filed.filter(|r| !excluded(r.pinger)).count() as u64;
                    prop_assert_eq!(
                        store.window_sums(w, matrix, &excluded, &mut sums),
                        (want, reports),
                        "step {}, window {}, mask {:#x}, matrix {}", step, w, mask, installed
                    );
                }
            }
        }
    }
}

/// [`report_over`] with counters a hostile wire could carry: 0, small,
/// 2⁶³ (two of which wrap a sum to exactly 0) or `u64::MAX`, drawn apart
/// for `sent` and `lost`, so a path may lose more than it sent.
fn wrapping_report_over(pinger: u32, window: u64, pool: &[u32], seed: u64) -> PingerReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let counter = |rng: &mut SmallRng| match rng.gen_range(0..6u8) {
        0 => 0,
        1 => 1 << 63,
        2 => u64::MAX,
        _ => rng.gen_range(1..20u64),
    };
    let mut paths = Vec::new();
    for &id in pool {
        if rng.gen_range(0..3u8) == 0 {
            let (sent, lost) = (counter(&mut rng), counter(&mut rng));
            paths.push((PathId(id), PathCounters { sent, lost }));
        }
    }
    PingerReport {
        pinger: NodeId(pinger),
        window,
        paths,
        ..Default::default()
    }
}

/// Links a [`cells_matrix`] path may name, and two past them.
const LINKS: u32 = 15;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lossy walk ≡ the whole window's sums filtered to the lossy
    /// paths, in order, with the observed-path and report counts — and
    /// every link's denominator ≡ the summed rows through it that had a
    /// probe sent, counted naively — after every step, on every window,
    /// under every mask, with one accumulator refitted at each matrix
    /// swap (see the module doc for the mutations this kills).
    #[test]
    fn lossy_walk_emits_the_lossy_sums_and_counts_what_each_link_observed(
        cells_a in proptest::collection::vec((0u32..4, 0u32..40, 1u16..256), 1..5),
        cells_b in proptest::collection::vec((0u32..4, 0u32..40, 1u16..256), 1..5),
        steps in proptest::collection::vec((0u8..8, 0u32..5, 0u64..WINDOWS, 0u64..u64::MAX), 1..30),
        masks in proptest::collection::vec(0u8..32, 1..4),
    ) {
        let matrices = [cells_matrix(&cells_a), cells_matrix(&cells_b)];
        let pool = id_pool(&matrices);
        let store = ReportStore::new();
        let mut whole = DenseSums::default();
        let mut sums = RowSums::new(&matrices[0]);
        let mut installed = 0;
        for (step, &(kind, pinger, window, seed)) in steps.iter().enumerate() {
            match kind {
                0 => store.prune_before(window),
                1 => {
                    installed ^= 1;
                    sums.fit(&matrices[installed]);
                }
                _ => store.ingest(wrapping_report_over(pinger, window, &pool, seed)),
            }
            let matrix = &matrices[installed];
            for w in 0..=WINDOWS {
                for &mask in &masks {
                    let excluded = |p: NodeId| (mask >> p.0) & 1 == 1;
                    let at = format!("step {step}, window {w}, mask {mask:#x}, matrix {installed}");
                    let (observed, reports) = store.window_sums(w, matrix, &excluded, &mut whole);
                    let lossy: Vec<PathObservation> = (observed.iter())
                        .filter(|o| o.lost.min(o.sent) > 0)
                        .copied()
                        .collect();
                    prop_assert_eq!(
                        store.window_lossy(w, matrix, &excluded, &mut sums),
                        (lossy, observed.len(), reports),
                        "{}", &at
                    );
                    for l in (0..LINKS).map(LinkId) {
                        let through = (observed.iter())
                            .filter(|o| o.sent != 0)
                            .filter_map(|o| matrix.path(o.path))
                            .map(|p| p.links().iter().filter(|&&x| x == l).count())
                            .sum::<usize>();
                        prop_assert_eq!(sums.observed_through(l), through, "{}, {}", &at, l);
                    }
                }
            }
        }
    }
}
