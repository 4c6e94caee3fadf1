//! Pinger reports and the diagnoser-side report store (§6.1).
//!
//! Every 30 seconds each pinger aggregates per-path counters into a report
//! and POSTs it to the diagnoser, which stores them for real-time analysis
//! and later queries. A report is two sorted runs — paths and per-flow
//! records — and an in-rack total, built once by the pinger, shipped
//! delta-coded in that order, and iterated (never re-keyed) by the
//! watchdog and the store. It carries only what the controller reads:
//! `(sent, lost)` counters and no RTTs, and its in-rack probes as one
//! total — server–ToR links are outside every probe universe, so the
//! close half's probe count and the watchdog's "all lost" are all that
//! reads them.
//!
//! A report costs what was lost, not what was probed: for every path it
//! carries the number of distinct flows probed on it, and a flow record
//! only where flows can differ — for a flow that lost a probe, on a path
//! that kept one. The flows without a record are fixed by the path's
//! counters: `flows_probed − records` of them share the path's remaining
//! probes, at loss rate 0 on a path that kept a probe (they are clean by
//! construction) and at rate 1 on a path that lost every probe (every
//! flow lost everything). That is all loss classification reads of them,
//! so [`ReportStore::flow_samples`] rebuilds them exactly, and 21
//! retained windows hold no record of a quiet fabric's flows, nor of a
//! dead link's.
//!
//! The store keeps what its queries read and nothing else. A window is
//! one log of columns in ingest order — per report its pinger and where
//! its rows and records end, in 16 bytes, per path `(path, sent, lost,
//! flows_probed)` in 8, and the flow records — so filing a report copies
//! its columns and drops it while its three heap blocks are still hot
//! for the next decode. A row's three counts are bytes: a pinger sends a
//! few probes a path a window (a Fattree(32) storm's counters top out
//! near 21), and it probes no flow without sending a probe on it, so a
//! flow count never outgrows the path's `sent`. Whether a report fits
//! is decided once, in the pass that copies its rows, and one with any
//! count past 255 also files each path's exact `(sent, lost,
//! flows_probed)` on a side column, which the store's readers take for
//! that report only. The in-rack total is read before a report is
//! filed (the close half's probe count) and is not kept. A pruned
//! window's log is cleared and handed to the next window, so once the
//! retained windows have sized their logs, filing allocates nothing and
//! nothing is freed a retention period late.
//!
//! The log is also where a window is aggregated, once:
//! [`ReportStore::window_lossy`] walks its rows, skips excluded pingers,
//! and sums the rest into [`RowSums`], one slot per slot of the matrix's
//! id table ([`RowTable`]): a row is added at its id less its run's
//! first id, the run found once per report and kept as a cursor while
//! the report's ascending ids stay in it. A gap id sums in its own slot.
//! The read-out scans the slots in ascending path id, emits only the
//! lossy paths — PLL blames only links on them — and keeps each one's
//! matrix row beside it ([`LossyIncidence::STRAY`] for a gap id). Of
//! the clean paths PLL reads one number a link, the hit ratio's
//! denominator, and the walk keeps it without emitting them: the rows
//! through the link, minus the rows the window left without a probe
//! sent. It redoes those counts, and moves a generation, only when the
//! rows left unobserved differ from the last walk's.
//! [`RowSums::incidence`] hands PLL those rows, the matrix's row → links
//! incidence — the matrix's own link runs, a [`Runs`] read in place — and
//! the denominators under that generation, so PLL resolves nothing in the
//! matrix and, under a repeated generation, solves again only the
//! components whose lossy paths changed. Diagnosis costs what was lost,
//! as a report does. The slots and the per-link counts are built once per
//! matrix and recycled from one window to the next.
//!
//! Every driver owns its diagnoser, and the diagnoser owns its store:
//! it files through [`ReportStore::file`], which takes `&mut self` and
//! reaches the logs without taking the lock. The `RwLock` is there
//! because [`ReportStore::ingest`] takes `&self`: the benchmark's replay
//! input generator files reports through a shared binding. Both go when
//! that generator stops building a store (ROADMAP item 1(a)).

#[cfg(test)]
mod reference;

use std::collections::HashMap;

use detector_core::dense::Runs;
use detector_core::pll::{FlowSample, LossyIncidence};
use detector_core::pmc::{IdRun, ProbeMatrix, RowTable, NO_ROW};
use detector_core::types::{LinkId, NodeId, PathId, PathObservation};
use parking_lot::RwLock;

/// Per-path counters over one window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PathCounters {
    /// Probes sent.
    pub sent: u64,
    /// Probes lost (timeout or drop).
    pub lost: u64,
}

/// The counters of one flow that lost at least one probe on one path over
/// one window: the raw material for loss-type classification (§7). A flow
/// is the probe header the fabric hashes on — source port and DSCP class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// The probed path.
    pub path: PathId,
    /// The probes' UDP source port.
    pub sport: u16,
    /// The probes' DSCP class.
    pub dscp: u8,
    /// Probes sent on this flow (confirmation re-probes and the flow's
    /// delivered probes included).
    pub sent: u64,
    /// Probes lost on this flow; never zero in a report.
    pub lost: u64,
}

impl FlowRecord {
    /// The record's position in [`PingerReport::flows`].
    pub fn key(&self) -> (PathId, u16, u8) {
        (self.path, self.sport, self.dscp)
    }
}

/// One pinger's report for one window.
///
/// The two runs are strictly ascending by key, every flow record's
/// path has an entry in `paths`, and a path's records add up to its
/// counters: at most `flows_probed` of them, their losses summing to the
/// path's, their probes leaving at least one for every flow without a
/// record; a path that lost every probe has none.
/// [`PingerBatch::run_window`] builds reports that way, the frame decoder
/// rejects anything else, and a record breaking it is not representable
/// on the wire.
///
/// [`PingerBatch::run_window`]: crate::PingerBatch::run_window
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PingerReport {
    /// Reporting pinger.
    pub pinger: NodeId,
    /// Window index (window start / window length).
    pub window: u64,
    /// Counters per probe-matrix path, ascending by path id.
    pub paths: Vec<(PathId, PathCounters)>,
    /// Distinct flows probed on each path this window, parallel to
    /// `paths`. An entry missing at the tail reads as zero: a path
    /// reported without per-flow information, which classification skips.
    pub flows_probed: Vec<u32>,
    /// Counters of the in-rack probes (server–ToR links), summed over
    /// responders.
    pub in_rack: PathCounters,
    /// The flows that lost a probe on a path that kept one, ascending by
    /// [`FlowRecord::key`].
    pub flows: Vec<FlowRecord>,
}

impl PingerReport {
    /// The counters of `path`, if the report covers it.
    pub fn path(&self, path: PathId) -> Option<&PathCounters> {
        let at = self.paths.binary_search_by_key(&path, |(p, _)| *p).ok()?;
        self.paths.get(at).map(|(_, c)| c)
    }

    /// The flows probed on each entry of `paths`, in order: `flows_probed`,
    /// zero where it falls short of `paths`.
    pub fn probed(&self) -> impl Iterator<Item = u32> + '_ {
        let padded = self
            .flows_probed
            .iter()
            .copied()
            .chain(std::iter::repeat(0));
        padded.take(self.paths.len())
    }

    /// The flow records of `path`: its flows that lost a probe, none if
    /// it lost every probe.
    pub fn flows_of(&self, path: PathId) -> &[FlowRecord] {
        flows_of(&self.flows, path)
    }

    fn counters(&self) -> impl Iterator<Item = &PathCounters> {
        let paths = self.paths.iter().map(|(_, c)| c);
        paths.chain(std::iter::once(&self.in_rack))
    }

    /// Total probes sent in this report (paths + in-rack).
    pub fn total_sent(&self) -> u64 {
        self.counters().map(|c| c.sent).sum()
    }

    /// True when every probe of the report was lost.
    pub fn all_lost(&self) -> bool {
        let sent = self.total_sent();
        sent > 0 && self.counters().map(|c| c.lost).sum::<u64>() == sent
    }
}

/// The records of `path` in a run of flow records ascending by key.
fn flows_of(flows: &[FlowRecord], path: PathId) -> &[FlowRecord] {
    let from = flows.partition_point(|f| f.path < path);
    let rest = flows.get(from..).unwrap_or_default();
    let own = rest.partition_point(|f| f.path == path);
    rest.get(..own).unwrap_or_default()
}

/// Where one filed report ends in its window's columns, in 16 bytes: a
/// window's columns hold fewer than 2³² entries each (that many rows
/// would take 32 GiB).
struct Head {
    pinger: NodeId,
    rows_end: u32,
    wide_end: u32,
    flows_end: u32,
}

/// What the store keeps of one path of one report, in 8 bytes: its
/// counters and flow count as bytes, which fit every report the
/// benchmark's workloads build. A report with any of them past 255 also
/// keeps every path's exact counts beside its rows ([`Rows::wide`]),
/// decided once when it is filed; the fourth byte is padding.
struct Row {
    path: PathId,
    /// Truncated in a wide report, as are the two below.
    sent: u8,
    lost: u8,
    /// Zero where the report's `flows_probed` fell short of its paths.
    flows_probed: u8,
}

const _: () = assert!(std::mem::size_of::<Row>() == 8 && std::mem::size_of::<Head>() == 16);

/// One path of one report, exact: what a narrow row reads back as, and
/// what a wide report files beside its rows.
#[derive(Clone, Copy, Default)]
struct Exact {
    sent: u64,
    lost: u64,
    flows_probed: u32,
}

impl Row {
    /// The row's own `(sent, lost)`: exact in a narrow report.
    fn counters(&self) -> (u64, u64) {
        (u64::from(self.sent), u64::from(self.lost))
    }

    /// The row's own counts: exact in a narrow report.
    fn exact(&self) -> Exact {
        Exact {
            sent: self.sent.into(),
            lost: self.lost.into(),
            flows_probed: self.flows_probed.into(),
        }
    }
}

/// One filed report's rows.
#[derive(Clone, Copy)]
struct Rows<'a> {
    narrow: &'a [Row],
    /// Every row's exact counts, parallel to `narrow`, for a report with
    /// a count past 255; empty for any other.
    wide: &'a [Exact],
}

impl<'a> Rows<'a> {
    /// Each row's path with its exact counts.
    fn iter(self) -> impl Iterator<Item = (PathId, Exact)> + 'a {
        self.narrow.iter().enumerate().map(move |(i, r)| {
            let exact = self.wide.get(i).copied();
            (r.path, exact.unwrap_or_else(|| r.exact()))
        })
    }
}

/// One window's reports as columns, in ingest order: report `i` owns the
/// rows, wide counters and flow records between the ends of heads
/// `i − 1` and `i`.
#[derive(Default)]
struct WindowLog {
    window: u64,
    heads: Vec<Head>,
    rows: Vec<Row>,
    wide: Vec<Exact>,
    flows: Vec<FlowRecord>,
}

impl WindowLog {
    /// Copies `report`'s rows, finding in the same pass whether any
    /// count is past a byte, and if one is, files the exact counts
    /// beside them. The rows are copied in two loops over slices, the
    /// paths with a flow count and then any past the end of
    /// `flows_probed`: zipped with [`PingerReport::probed`]'s padded
    /// run instead, a Fattree(32) storm window cost ~5 % more CPU (one
    /// core of a 2-vCPU Xeon VM).
    fn push(&mut self, report: &PingerReport) {
        let mut widest = 0;
        let mut row = |&(path, c): &(PathId, PathCounters), flows_probed: u32| {
            widest |= c.sent | c.lost | u64::from(flows_probed);
            Row {
                path,
                sent: c.sent as u8,
                lost: c.lost as u8,
                flows_probed: flows_probed as u8,
            }
        };
        let counted = report.paths.iter().zip(report.flows_probed.iter().copied());
        self.rows.extend(counted.map(|(p, flows)| row(p, flows)));
        let uncounted = report.paths.get(report.flows_probed.len()..);
        self.rows
            .extend(uncounted.unwrap_or_default().iter().map(|p| row(p, 0)));
        if widest > u64::from(u8::MAX) {
            let exact = report.paths.iter().zip(report.probed());
            self.wide.extend(exact.map(|(&(_, c), flows_probed)| Exact {
                sent: c.sent,
                lost: c.lost,
                flows_probed,
            }));
        }
        self.flows.extend_from_slice(&report.flows);
        self.heads.push(Head {
            pinger: report.pinger,
            rows_end: self.rows.len() as u32,
            wide_end: self.wide.len() as u32,
            flows_end: self.flows.len() as u32,
        });
    }

    /// Every filed report as `(pinger, rows, flow records)`, in ingest
    /// order.
    fn reports(&self) -> impl Iterator<Item = (NodeId, Rows<'_>, &[FlowRecord])> {
        let mut from = (0, 0, 0);
        self.heads.iter().map(move |h| {
            let to = (
                h.rows_end as usize,
                h.wide_end as usize,
                h.flows_end as usize,
            );
            let rows = Rows {
                narrow: self.rows.get(from.0..to.0).unwrap_or_default(),
                wide: self.wide.get(from.1..to.1).unwrap_or_default(),
            };
            let flows = self.flows.get(from.2..to.2).unwrap_or_default();
            from = to;
            (h.pinger, rows, flows)
        })
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.rows.clear();
        self.wide.clear();
        self.flows.clear();
    }
}

/// The retained windows' logs, ascending by window, and the cleared logs
/// of pruned windows waiting for the next ones.
#[derive(Default)]
struct Logs {
    live: Vec<WindowLog>,
    spare: Vec<WindowLog>,
}

impl Logs {
    /// Cleared logs kept for the windows to come. A driver prunes one
    /// window per window it closes, so one is enough; the second covers
    /// a driver that files the next window before pruning.
    const SPARE: usize = 2;

    fn reports(&self, window: u64) -> impl Iterator<Item = (NodeId, Rows<'_>, &[FlowRecord])> {
        let at = self.live.binary_search_by_key(&window, |l| l.window);
        let log = at.ok().and_then(|at| self.live.get(at));
        log.into_iter().flat_map(WindowLog::reports)
    }

    fn file(&mut self, report: &PingerReport) {
        let at = match self.live.binary_search_by_key(&report.window, |l| l.window) {
            Ok(at) => at,
            Err(at) => {
                let mut log = self.spare.pop().unwrap_or_default();
                log.window = report.window;
                self.live.insert(at, log);
                at
            }
        };
        if let Some(log) = self.live.get_mut(at) {
            log.push(report);
        }
    }

    fn prune_before(&mut self, keep_from: u64) {
        let pruned = self.live.partition_point(|l| l.window < keep_from);
        for mut log in self.live.drain(..pruned) {
            if self.spare.len() < Self::SPARE {
                log.clear();
                self.spare.push(log);
            }
        }
    }
}

/// The recycled state of [`ReportStore::window_lossy`], fitted to one
/// probe matrix: one `(sent, lost)` slot per slot of the matrix's id
/// table ([`RowTable`]), gaps included, the side list of ids outside
/// every run of the table, each link's row count, and what the latest
/// walk leaves for PLL ([`incidence`](Self::incidence)): its lossy
/// paths' rows, each link's observed rows and their generation.
/// [`new`](Self::new) and [`fit`](Self::fit) size the slots and count
/// the rows through each link — once per matrix, never per window — and
/// between walks every slot is clear. The row → links incidence is the
/// matrix's own link runs ([`PathStore::link_runs`]), read in place.
///
/// [`PathStore::link_runs`]: detector_core::types::PathStore::link_runs
pub struct RowSums {
    /// Per id-table slot: the walk's sums, `(0, 0)` between walks.
    slots: Vec<(u64, u64)>,
    /// Ascending by path, one entry per id.
    strays: Vec<(PathId, (u64, u64))>,
    /// Per link: the rows through it, once per naming.
    through: Vec<u32>,
    /// The rows that summed to no probe sent in the latest walk, in the
    /// id table's order.
    unobserved: Vec<u32>,
    /// Per link: `through` less the unobserved rows through it — the hit
    /// ratio's denominator.
    observed: Vec<u32>,
    /// Moves whenever the unobserved rows do, and at a refit.
    generation: u64,
    /// The latest walk's lossy observations, copied out at its end.
    lossy: Vec<PathObservation>,
    /// Their rows, parallel; [`LossyIncidence::STRAY`] for a stray.
    lossy_rows: Vec<u32>,
}

impl RowSums {
    /// State fitted to `matrix`.
    pub fn new(matrix: &ProbeMatrix) -> Self {
        let mut sums = Self {
            slots: Vec::new(),
            strays: Vec::new(),
            through: Vec::new(),
            unobserved: Vec::new(),
            observed: Vec::new(),
            generation: 0,
            lossy: Vec::new(),
            lossy_rows: Vec::new(),
        };
        sums.fit(matrix);
        sums
    }

    /// Refits to a new matrix: counts the rows through each of its links
    /// and resizes the slots to its id table, keeping their memory. Every
    /// row starts out observed.
    pub fn fit(&mut self, matrix: &ProbeMatrix) {
        self.slots.resize(matrix.row_table().slots().len(), (0, 0));
        self.through.clear();
        self.through.resize(matrix.num_links, 0);
        for &l in matrix.paths.link_runs().items() {
            if l.index() >= self.through.len() {
                self.through.resize(l.index() + 1, 0);
            }
            if let Some(n) = self.through.get_mut(l.index()) {
                *n += 1;
            }
        }
        self.unobserved.clear();
        self.observed.clone_from(&self.through);
        self.generation += 1;
        self.lossy_rows.clear();
    }

    /// The hit-ratio denominator of `link` for the latest walk: the rows
    /// through it (once per naming) whose paths had a probe sent — what
    /// `localize` indexes through the link over the whole window.
    pub fn observed_through(&self, link: LinkId) -> usize {
        self.observed.get(link.index()).copied().unwrap_or(0) as usize
    }

    /// What the latest walk hands PLL beside its lossy observations: their
    /// rows, the row → links incidence of `matrix` (the one the walk
    /// summed over) and every link's denominator, whose generation moves
    /// only when the set of rows the walk left unobserved does.
    pub fn incidence<'a>(&'a self, matrix: &'a ProbeMatrix) -> LossyIncidence<'a> {
        LossyIncidence {
            rows: &self.lossy_rows,
            row_links: matrix.paths.link_runs(),
            observed: &self.observed,
            generation: self.generation,
        }
    }

    /// Adds one report's rows, each at its id's slot: the id less the
    /// first id of the run that holds it. A report's ids ascend, so the
    /// run of its last row is checked first, and only an id off that run
    /// looks its own run up; an id outside every run goes on the side
    /// list. `counters` gives row `i`'s exact `(sent, lost)`.
    ///
    /// Out of line, once for narrow reports and once for wide ones, so
    /// that its loop is compiled the same whatever its caller inlines.
    /// The counters are read once the slot is found: read before, they
    /// stay live across the run lookup, and the loop spills them (a
    /// Fattree(32) storm's reuse `diagnose` read +38 %).
    #[inline(never)]
    fn add_report(
        &mut self,
        table: &RowTable,
        rows: &[Row],
        counters: impl Fn(usize, &Row) -> (u64, u64),
    ) {
        let mut run = IdRun::default();
        for (i, r) in rows.iter().enumerate() {
            let slot = run.slot_of(r.path).or_else(|| {
                run = table.run_of(r.path)?;
                run.slot_of(r.path)
            });
            let (sent, lost) = counters(i, r);
            match slot.and_then(|slot| self.slots.get_mut(slot)) {
                // Wrapping: a hostile wire counter must not panic a debug
                // build.
                Some(s) => *s = (s.0.wrapping_add(sent), s.1.wrapping_add(lost)),
                None => self.add_stray(r.path, sent, lost),
            }
        }
    }

    fn add_stray(&mut self, path: PathId, sent: u64, lost: u64) {
        let at = match self.strays.binary_search_by_key(&path, |&(p, _)| p) {
            Ok(at) => at,
            Err(at) => {
                self.strays.insert(at, (path, (0, 0)));
                at
            }
        };
        if let Some((_, s)) = self.strays.get_mut(at) {
            *s = (s.0.wrapping_add(sent), s.1.wrapping_add(lost));
        }
    }

    /// Reads the walk out in ascending path id — the table's slots run by
    /// run, the side list merged in — zeroing every slot: each path
    /// summing to anything but `(0, 0)` is counted, and emitted when
    /// lossy as its observation reads it (`lost` clamped to `sent`, and
    /// not wrapped back to zero), its row beside it, or
    /// [`LossyIncidence::STRAY`] for a gap slot or a side-list id. The
    /// rows summing to no probe sent are listed; only when that list
    /// differs from the last walk's are the per-link counts redone and
    /// the generation moved, reading each row's links in `row_links`. Out
    /// of line, as [`add_report`](Self::add_report) is.
    #[inline(never)]
    fn drain_lossy(
        &mut self,
        table: &RowTable,
        row_links: &Runs<LinkId>,
    ) -> (Vec<PathObservation>, usize) {
        let mut observed = 0;
        let (lossy, lossy_rows) = (&mut self.lossy, &mut self.lossy_rows);
        lossy_rows.clear();
        let mut emit = |path, row, (sent, lost): (u64, u64)| {
            if lost.min(sent) > 0 {
                lossy.push(PathObservation::new(path, sent, lost));
                lossy_rows.push(row);
            }
        };
        let mut strays = self.strays.drain(..).peekable();
        let (mut unobserved, mut moved) = (0, false);
        for run in table.runs() {
            while let Some((stray, sums)) = strays.next_if(|&(p, _)| p.0 < run.first()) {
                observed += usize::from(sums != (0, 0));
                emit(stray, LossyIncidence::STRAY, sums);
            }
            let (Some(slots), Some(rows)) = (
                self.slots.get_mut(run.slots()),
                table.slots().get(run.slots()),
            ) else {
                continue;
            };
            for (offset, (slot, &row)) in slots.iter_mut().zip(rows).enumerate() {
                let sums = std::mem::take(slot);
                observed += usize::from(sums != (0, 0));
                if sums.0 != 0 && sums.1 == 0 {
                    // Most slots: a clean path that had a probe sent.
                    continue;
                }
                let path = PathId(run.first() + offset as u32);
                if row == NO_ROW {
                    emit(path, LossyIncidence::STRAY, sums);
                    continue;
                }
                emit(path, row, sums);
                if sums.0 == 0 {
                    // Overwrites the last walk's list from its first change on.
                    match self.unobserved.get_mut(unobserved) {
                        Some(last) if *last == row => {}
                        Some(last) => {
                            *last = row;
                            moved = true;
                        }
                        None => {
                            self.unobserved.push(row);
                            moved = true;
                        }
                    }
                    unobserved += 1;
                }
            }
        }
        for (stray, sums) in strays {
            observed += usize::from(sums != (0, 0));
            emit(stray, LossyIncidence::STRAY, sums);
        }
        if moved || unobserved < self.unobserved.len() {
            self.unobserved.truncate(unobserved);
            self.generation += 1;
            self.observed.clone_from(&self.through);
            for &row in &self.unobserved {
                for l in row_links.run(row as usize) {
                    if let Some(n) = self.observed.get_mut(l.index()) {
                        *n = n.saturating_sub(1);
                    }
                }
            }
        }
        // One allocation, of the exact size; the buffer stays for the
        // next walk.
        let out = self.lossy.clone();
        self.lossy.clear();
        (out, observed)
    }
}

/// Diagnoser-side store of reports, per window (see the module doc for
/// what it keeps of a report).
pub struct ReportStore {
    inner: RwLock<Logs>,
}

impl Default for ReportStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportStore {
    /// Debug-build acquisition rank of the store's lock (see the
    /// parking_lot shim): any lock the diagnoser may take *while*
    /// aggregating reports must rank above this.
    const LOCK_RANK: u32 = 100;

    /// An empty store.
    pub fn new() -> Self {
        Self {
            inner: RwLock::with_rank(Logs::default(), Self::LOCK_RANK, "ReportStore.inner"),
        }
    }

    /// Ingests one report: files its columns in its window's log and
    /// drops it. Takes the lock; the store's one owner files through the
    /// crate's `file`, which does not.
    pub fn ingest(&self, report: PingerReport) {
        self.inner.write().file(&report);
    }

    /// [`ingest`](Self::ingest) for the store's one owner: reaches the
    /// logs through `&mut self`, without taking the lock.
    pub(crate) fn file(&mut self, report: PingerReport) {
        self.inner.get_mut().file(&report);
    }

    /// Aggregates one window's reports into per-path observations,
    /// skipping reports from `excluded` pingers (watchdog outliers) —
    /// the hash-and-sort aggregation the one walk
    /// ([`window_lossy`](Self::window_lossy)) is tested against.
    pub fn window_observations(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
    ) -> Vec<PathObservation> {
        let inner = self.inner.read();
        let mut agg: HashMap<PathId, (u64, u64)> = HashMap::new();
        for (_, rows, _) in inner.reports(window).filter(|(p, ..)| !excluded(*p)) {
            for (path, c) in rows.iter() {
                let e = agg.entry(path).or_insert((0, 0));
                e.0 += c.sent;
                e.1 += c.lost;
            }
        }
        let mut out: Vec<PathObservation> = agg
            .into_iter()
            .map(|(pid, (sent, lost))| PathObservation::new(pid, sent, lost))
            .collect();
        out.sort_unstable_by_key(|o| o.path);
        out
    }

    /// The diagnosis input of a window in one walk of its rows: the
    /// reports of pingers not `excluded`, summed per path into `sums`'
    /// slot for the path's id in `matrix`'s id table — ids outside every
    /// run of it (stale pre-re-base ids, strays) on a short side list.
    /// The read-out by ascending path id emits only the lossy paths,
    /// strays and gap ids included, and counts every path summing to
    /// anything but `(0, 0)`; `sums` keeps the lossy paths' rows and, for
    /// the clean paths, the one number a link PLL reads
    /// ([`RowSums::observed_through`]): the plan's rows through the link
    /// minus those the window saw no probe sent on
    /// ([`RowSums::incidence`] hands both over).
    ///
    /// Returns the lossy observations, the observed-path count and how
    /// many reports were summed: the whole window's sums filtered to
    /// `lost.min(sent) > 0`, without building that window. `sums` must be
    /// fitted to `matrix` ([`RowSums::new`], [`RowSums::fit`]); nothing
    /// hashes and nothing sorts, and the returned `Vec` is the walk's
    /// only allocation.
    pub fn window_lossy(
        &self,
        window: u64,
        matrix: &ProbeMatrix,
        excluded: &dyn Fn(NodeId) -> bool,
        sums: &mut RowSums,
    ) -> (Vec<PathObservation>, usize, u64) {
        let inner = self.inner.read();
        let table = matrix.row_table();
        let mut reports = 0u64;
        for (_, rows, _) in inner.reports(window).filter(|(p, ..)| !excluded(*p)) {
            reports += 1;
            match rows.wide {
                [] => sums.add_report(table, rows.narrow, |_, r| r.counters()),
                wide => sums.add_report(table, rows.narrow, |i, _| {
                    wide.get(i).map_or((0, 0), |c| (c.sent, c.lost))
                }),
            }
        }
        let (lossy, observed) = sums.drain_lossy(table, matrix.paths.link_runs());
        (lossy, observed, reports)
    }

    /// The per-flow samples of a window over the paths selected by
    /// `keep_path`, excluding flagged pingers (classification input): one
    /// sample per flow record, and for each `(pinger, path)` the flows
    /// probed without a record as samples sharing the path's remaining
    /// probes — at loss rate 1 when the path lost every probe, at rate 0
    /// otherwise. How those probes split among the rebuilt flows is not
    /// recorded and does not matter — `classify_loss` reads a flow's
    /// rate, the flow count and the two sums — so every rebuilt flow gets
    /// one and the first takes the rest.
    ///
    /// Samples stay apart per pinger: two pingers probing the same path
    /// use different source addresses, so a header-matching blackhole can
    /// treat their otherwise-identical flows differently — merging them
    /// would fake intermediate loss rates and hide bimodality.
    pub fn flow_samples(
        &self,
        window: u64,
        excluded: &dyn Fn(NodeId) -> bool,
        keep_path: &dyn Fn(PathId) -> bool,
    ) -> Vec<FlowSample> {
        let inner = self.inner.read();
        let mut samples = Vec::new();
        for (pinger, rows, flows) in inner.reports(window).filter(|(p, ..)| !excluded(*p)) {
            for (path, c) in rows.iter().filter(|&(path, _)| keep_path(path)) {
                let id = |flow| (u64::from(pinger.0) << 48) ^ (u64::from(path.0) << 24) ^ flow;
                let lossy = flows_of(flows, path);
                for f in lossy {
                    let flow = u64::from(f.sport) | (u64::from(f.dscp) << 16);
                    samples.push(FlowSample::new(id(flow), f.sent, f.lost));
                }
                let rebuilt = u64::from(c.flows_probed).saturating_sub(lossy.len() as u64);
                let rest = c.sent.saturating_sub(lossy.iter().map(|f| f.sent).sum());
                let all_lost = c.sent > 0 && c.lost == c.sent;
                for i in 0..rebuilt {
                    let sent = if i == 0 {
                        rest.saturating_sub(rebuilt - 1)
                    } else {
                        1
                    };
                    let lost = if all_lost { sent } else { 0 };
                    // Past the 24 bits a record's port and class take.
                    samples.push(FlowSample::new(id((i + 1) << 24), sent, lost));
                }
            }
        }
        samples
    }

    /// Drops windows older than `keep_from` (the paper keeps a database
    /// for later queries; the simulator prunes to bound memory). Their
    /// logs are cleared and reused by the windows to come.
    pub fn prune_before(&self, keep_from: u64) {
        self.inner.write().prune_before(keep_from);
    }

    /// Number of stored reports for a window.
    pub fn reports_in_window(&self, window: u64) -> usize {
        self.inner.read().reports(window).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::types::ProbePath;

    fn report(pinger: u32, window: u64, path: u32, sent: u64, lost: u64) -> PingerReport {
        PingerReport {
            pinger: NodeId(pinger),
            window,
            paths: vec![(PathId(path), PathCounters { sent, lost })],
            ..Default::default()
        }
    }

    #[test]
    fn aggregation_merges_pingers() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 2));
        store.ingest(report(2, 0, 7, 10, 3));
        let obs = store.window_observations(0, &|_| false);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].sent, 20);
        assert_eq!(obs[0].lost, 5);
    }

    #[test]
    fn excluded_pingers_are_ignored() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 0));
        store.ingest(report(2, 0, 7, 10, 10));
        let obs = store.window_observations(0, &|p| p == NodeId(2));
        assert_eq!(obs[0].lost, 0);
    }

    #[test]
    fn windows_are_separate() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 1));
        store.ingest(report(1, 1, 7, 10, 2));
        assert_eq!(store.window_observations(0, &|_| false)[0].lost, 1);
        assert_eq!(store.window_observations(1, &|_| false)[0].lost, 2);
    }

    #[test]
    fn clean_flows_are_rebuilt_from_the_count_and_the_remaining_probes() {
        // 300 probes over 4 flows; two lost a probe and have a record,
        // so two clean flows share the other 300 − 150 − 75 = 75.
        let flow = |sport, sent, lost| FlowRecord {
            path: PathId(7),
            sport,
            dscp: 0,
            sent,
            lost,
        };
        let mut r = report(1, 0, 7, 300, 3);
        r.flows_probed = vec![4];
        r.flows = vec![flow(33000, 150, 2), flow(33001, 75, 1)];
        assert_eq!(r.flows_of(PathId(7)).len(), 2);
        assert!(r.flows_of(PathId(6)).is_empty() && r.flows_of(PathId(8)).is_empty());
        let store = ReportStore::new();
        store.ingest(r);
        // A second pinger reports the path without per-flow information.
        store.ingest(report(2, 0, 7, 100, 0));
        let samples = store.flow_samples(0, &|_| false, &|p| p == PathId(7));
        let mut counters: Vec<(u64, u64)> = samples.iter().map(|s| (s.sent, s.lost)).collect();
        counters.sort_unstable();
        assert_eq!(counters, vec![(1, 0), (74, 0), (75, 1), (150, 2)]);
        let ids: std::collections::HashSet<u64> = samples.iter().map(|s| s.flow).collect();
        assert_eq!(ids.len(), 4, "every sample is its own flow");
        // Excluded pingers and unselected paths contribute nothing, clean
        // flows included.
        assert!(store.flow_samples(0, &|_| true, &|_| true).is_empty());
        assert!(store.flow_samples(0, &|_| false, &|_| false).is_empty());
    }

    #[test]
    fn a_path_that_lost_every_probe_rebuilds_its_flows_at_rate_one() {
        // 30 probes over 4 flows, every one lost, and no record: the
        // flows share the probes, each losing all it sent.
        let mut r = report(1, 0, 7, 30, 30);
        r.flows_probed = vec![4];
        let store = ReportStore::new();
        store.ingest(r);
        let samples = store.flow_samples(0, &|_| false, &|_| true);
        let mut counters: Vec<(u64, u64)> = samples.iter().map(|s| (s.sent, s.lost)).collect();
        counters.sort_unstable();
        assert_eq!(counters, vec![(1, 1), (1, 1), (1, 1), (27, 27)]);
    }

    #[test]
    fn the_generation_moves_only_with_the_unobserved_rows() {
        // Paths 0 and 1 cross link 0; path 1 goes unreported in window 1
        // and back in window 3, and its counters change in between.
        let paths = (0..2).map(|id| ProbePath::from_links(id, vec![LinkId(0)]));
        let matrix = ProbeMatrix::from_paths(1, paths.collect::<Vec<_>>());
        let mut sums = RowSums::new(&matrix);
        let store = ReportStore::new();
        let rows = [
            &[(0, 10), (1, 10)][..],
            &[(0, 10)],
            &[(0, 20)],
            &[(0, 10), (1, 5)],
        ];
        for (w, rows) in (0..).zip(rows) {
            for &(path, lost) in rows {
                store.ingest(report(1, w, path, 20, lost));
            }
        }
        let mut walk = |w| {
            let (lossy, ..) = store.window_lossy(w, &matrix, &|_| false, &mut sums);
            let view = sums.incidence(&matrix);
            assert_eq!(view.rows.len(), lossy.len());
            (view.generation, sums.observed_through(LinkId(0)))
        };
        let seen = [walk(0), walk(1), walk(2), walk(3)];
        let (g, through): (Vec<u64>, Vec<usize>) = seen.into_iter().unzip();
        assert_eq!(through, [2, 1, 1, 2]);
        assert!(
            g[0] == g[1] - 1 && g[1] == g[2] && g[2] == g[3] - 1,
            "{g:?}"
        );
        // A refit moves it too: rows are renumbered.
        sums.fit(&matrix);
        assert!(sums.incidence(&matrix).generation > g[3]);
    }

    #[test]
    fn gap_and_outlying_ids_read_out_as_strays_in_id_order_whatever_the_report_order() {
        // Rows in cell order, ids in two runs: 10..=14 (12 a gap) and
        // 1000..=1001. Ids 5 and 5000 lie outside both.
        let cells = [(1000, 2), (1001, 2), (10, 0), (11, 1), (13, 0), (14, 1)];
        let paths = cells.map(|(id, link)| ProbePath::from_links(id, vec![LinkId(link)]));
        let matrix = ProbeMatrix::from_segmented(3, paths.to_vec());
        assert_eq!(matrix.row_table().runs().len(), 2);
        // Everything lossy but 11; 14 and 1001 unreported.
        let ascending = [
            (5, 2),
            (10, 1),
            (11, 0),
            (12, 3),
            (13, 1),
            (1000, 2),
            (5000, 4),
        ];
        let store = ReportStore::new();
        for (window, ids) in [
            (0, ascending.to_vec()),
            (1, ascending.into_iter().rev().collect()),
        ] {
            store.ingest(PingerReport {
                pinger: NodeId(1),
                window,
                paths: (ids.iter())
                    .map(|&(id, lost)| (PathId(id), PathCounters { sent: 10, lost }))
                    .collect(),
                ..Default::default()
            });
        }
        let mut sums = RowSums::new(&matrix);
        let mut walk = |window| {
            let (lossy, observed, _) = store.window_lossy(window, &matrix, &|_| false, &mut sums);
            let ids: Vec<u32> = lossy.iter().map(|o| o.path.0).collect();
            let denominators = (0..3).map(|l| sums.observed_through(LinkId(l)));
            let denominators: Vec<usize> = denominators.collect();
            (
                ids,
                sums.incidence(&matrix).rows.to_vec(),
                observed,
                denominators,
            )
        };
        let stray = LossyIncidence::STRAY;
        let want = (
            vec![5, 10, 12, 13, 1000, 5000],
            vec![stray, 2, stray, 4, 0, stray],
            7,
            vec![2, 1, 1],
        );
        assert_eq!(walk(0), want, "ascending");
        // Descending ids leave the run cursor at every run change, and
        // the cursor looks the id's run up again.
        assert_eq!(walk(1), want, "descending");
    }

    #[test]
    fn wide_counters_are_filed_exact_beside_narrow_rows() {
        use reference::{DenseSums, MapStore};
        let (top, over) = (u64::from(u8::MAX), u64::from(u8::MAX) + 1);
        // Rows are `(path, sent, lost, flows_probed)`. Pingers 0 and 3
        // fit a byte, to its last value in each count; 1 is past it in
        // `sent`, 2 in `lost` (and `sent` near `u64::MAX`), 5 only in
        // `flows_probed`, and the excluded 4 in both counters. No two
        // pingers' sums on a path overflow.
        let reports = [
            (0, vec![(0, top, 1, 3), (1, top, top, top), (2, 9, 0, 3)]),
            (1, vec![(0, 4, 0, 3), (2, over, 2, 3), (3, 8, 8, 3)]),
            (2, vec![(4, u64::MAX - 1, over, 3), (5, 7, 1, 3)]),
            (3, vec![(3, 2, 1, 1), (5, top, 0, top)]),
            (4, vec![(0, over << 24, over << 24, 3), (1, 1, 1, 1)]),
            (5, vec![(1, 9, 0, over), (3, 2, 0, 1)]),
        ];
        // Pingers 1 and 2 each keep a record of a flow that lost probes.
        let flows = |pinger| {
            let (path, sent, lost) = match pinger {
                1 => (2, 200, 2),
                2 => (4, 5, 1),
                _ => return vec![],
            };
            vec![FlowRecord {
                path: PathId(path),
                sport: 33000,
                dscp: 0,
                sent,
                lost,
            }]
        };
        let (store, mut map) = (ReportStore::new(), MapStore::default());
        for (pinger, paths) in reports {
            let report = PingerReport {
                pinger: NodeId(pinger),
                window: 0,
                flows_probed: paths.iter().map(|&(.., f)| f as u32).collect(),
                paths: (paths.iter())
                    .map(|&(id, sent, lost, _)| (PathId(id), PathCounters { sent, lost }))
                    .collect(),
                flows: flows(pinger),
                ..Default::default()
            };
            store.ingest(report.clone());
            map.ingest(report);
        }
        // Only the four wide reports' paths are on the side column.
        assert_eq!(store.inner.read().live[0].wide.len(), 9);
        let excluded = |p: NodeId| p == NodeId(4);
        let want = map.window_observations(0, &excluded);
        assert_eq!(store.window_observations(0, &excluded), want);
        // No path sums to (0, 0), so the walks read out every one.
        let paths = (0..6).map(|id| ProbePath::from_links(id, vec![LinkId(id % 3)]));
        let matrix = ProbeMatrix::from_paths(3, paths.collect::<Vec<_>>());
        let mut whole = DenseSums::default();
        assert_eq!(
            store.window_sums(0, &matrix, &excluded, &mut whole),
            (want.clone(), 5)
        );
        let lossy = want.iter().filter(|o| o.lost.min(o.sent) > 0);
        assert_eq!(
            store.window_lossy(0, &matrix, &excluded, &mut RowSums::new(&matrix)),
            (lossy.copied().collect(), want.len(), 5)
        );
        assert_eq!(
            store.flow_samples(0, &excluded, &|_| true),
            map.flow_samples(0, &excluded, &|_| true)
        );
    }

    #[test]
    fn a_storm_window_files_no_wide_row() {
        use crate::{Controller, PingerBatch, SystemConfig};
        use detector_simnet::{Fabric, LossDiscipline};
        use detector_topology::{DcnTopology, Fattree};
        use std::collections::HashSet;
        use std::sync::Arc;

        // Default config, one dead uplink per edge switch: the storm the
        // benchmark replays, on a Fattree(8).
        let ft = Arc::new(Fattree::new(8).unwrap());
        let cfg = SystemConfig::default();
        let dep = (Controller::new(ft.clone(), cfg.clone()))
            .build_deployment(&HashSet::new())
            .unwrap();
        let mut fabric = Fabric::quiet(ft.as_ref());
        for pod in 0..ft.k() {
            for edge in 0..ft.half() {
                let uplink = ft.ea_link(pod, edge, (pod + edge) % ft.half());
                fabric.set_discipline_both(uplink, LossDiscipline::Full);
            }
        }
        let mut store = ReportStore::new();
        for list in &dep.pinglists {
            let batch = PingerBatch::bind(list.clone(), ft.graph());
            store.file(batch.run_window(&fabric, &cfg, 0, 7));
        }
        let logs = store.inner.get_mut();
        let log = &logs.live[0];
        assert_eq!(log.heads.len(), dep.pinglists.len());
        assert!(log.rows.iter().any(|r| r.lost > 0), "the storm lost probes");
        assert!(log.wide.is_empty(), "{} wide rows", log.wide.len());
    }

    #[test]
    fn prune_drops_old_windows() {
        let store = ReportStore::new();
        store.ingest(report(1, 0, 7, 10, 1));
        store.ingest(report(1, 5, 7, 10, 1));
        store.prune_before(3);
        assert_eq!(store.reports_in_window(0), 0);
        assert_eq!(store.reports_in_window(5), 1);
    }

    #[test]
    fn all_lost_detects_sick_pinger() {
        let r = report(1, 0, 7, 10, 10);
        assert!(r.all_lost());
        let r = report(1, 0, 7, 10, 9);
        assert!(!r.all_lost());
        // The in-rack total counts: a pinger whose in-rack probes got
        // through is not sick, and an empty report is not all lost.
        let mut r = report(1, 0, 7, 10, 10);
        r.in_rack = PathCounters { sent: 4, lost: 3 };
        assert_eq!((r.total_sent(), r.all_lost()), (14, false));
        r.in_rack.lost = 4;
        assert!(r.all_lost());
        assert!(!PingerReport::default().all_lost());
    }
}
