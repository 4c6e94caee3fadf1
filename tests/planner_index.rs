//! The index-driven repair, pinned by properties a timing cannot gate:
//! a link-down patch of a materialized plan allocates far less than once
//! per candidate (the solver walks the cell's candidate index; it used to
//! clone every surviving candidate) — and nothing sized by the pool when
//! the survivors already meet the targets — a link-up patch allocates in
//! proportion to the restored selection, and on the benchmark's own
//! instance — VL2(20,12,2), one 70 800-candidate cell — a patched plan
//! achieves what a from-scratch plan does, stays within two paths of its
//! size through overlapping link churn, and is the clean-boot plan bit for
//! bit whenever nothing is offline. A deployment built from a plan
//! allocates per list, not per entry, per path or per path lookup, a
//! re-plan clones no list it does not ship, a symmetric boot allocates
//! per batch and per cell and its base solve per pull, not per candidate,
//! a materialized boot — its candidates enumerated into one flat store —
//! allocates per cell, not per candidate, binding a list allocates per
//! list, not per entry, and a steady-state window over the simulated
//! fabric allocates per list, not per probe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use detector_core::pmc::{
    construct_with_provider, decompose, CandidateProvider, PmcConfig, ProbeMatrix,
};
use detector_core::types::{LinkId, PathStore};
use detector_simnet::Fabric;
use detector_system::dispatch::rebase_and_diff;
use detector_system::{
    Controller, Detector, ListUpdate, PingerBatch, ProbePlan, SharedTopology, SystemConfig,
};
use detector_topology::{DcnTopology, Fattree, TopologyEvent, Vl2};
use rand::rngs::SmallRng;
use rand::SeedableRng;

thread_local! {
    /// Allocations (and growths) this thread has made so far.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocation calls, so
/// a test can count what one `ProbePlan::apply` does while other tests
/// run on other threads.
struct Count;

fn count() {
    // Ignoring the error is right: it only occurs while the thread is
    // being torn down, after every measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract is this allocator's contract. The count is a
// const-initialised `Cell<usize>` without a destructor: bumping it never
// allocates, so the allocator does not re-enter itself.
unsafe impl GlobalAlloc for Count {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Count = Count;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn link_down_allocates_less_than_once_per_candidate_and_link_up_per_selected_path() {
    let ft = Arc::new(Fattree::new(8).unwrap());
    let dead = ft.ea_link(1, 1, 0);
    // Sequential: the patch runs on this thread, where it is counted.
    let cfg = PmcConfig::identifiable(1);
    let mut plan = ProbePlan::new(ft.clone() as SharedTopology, &cfg, &HashSet::new()).unwrap();
    assert!(plan.num_cells() > 1, "Fattree(8) must decompose");

    let touched = plan.cells_touching(&[dead]);
    assert_eq!(touched.len(), 1);
    let candidates = decompose(ft.enumerate_candidates())
        .iter()
        .find(|sp| sp.universe().contains(&dead))
        .expect("the dead link lies in a cell")
        .candidates()
        .len();
    let range = plan.cell_ranges()[touched[0]];
    let selected = plan
        .matrix()
        .paths
        .iter()
        .filter(|p| range.contains(p.id))
        .count();
    assert!(selected * 8 < candidates, "{selected} of {candidates}");

    let offline: HashSet<LinkId> = [dead].into_iter().collect();
    let (stats, down) = allocations_of(|| plan.apply(&[dead], &offline).unwrap());
    assert_eq!(stats.cells_resolved, 1);
    assert!(
        down < candidates,
        "link-down made {down} allocations over {candidates} candidates"
    );

    let (stats, up) = allocations_of(|| plan.apply(&[dead], &HashSet::new()).unwrap());
    assert_eq!(stats.cells_restored, 1);
    assert!(
        up <= 3 * selected + 32,
        "link-up made {up} allocations restoring {selected} paths"
    );
}

#[test]
fn link_down_with_sufficient_survivors_allocates_no_alive_list() {
    // The plan over-covers this link's neighbours: the paths surviving
    // its death still cover and identify every other link, so the repair
    // returns straight from the seed.
    let ft = Arc::new(Fattree::new(8).unwrap());
    let cfg = PmcConfig::identifiable(1);
    let mut plan = ProbePlan::new(ft.clone() as SharedTopology, &cfg, &HashSet::new()).unwrap();
    let before = plan.matrix();
    let dead = LinkId(0);
    let through = before.paths.iter().filter(|p| p.covers(dead)).count();
    assert!(through > 0);
    let range = plan.cell_ranges()[plan.cells_touching(&[dead])[0]];
    let selected = before.paths.iter().filter(|p| range.contains(p.id)).count();

    let offline: HashSet<LinkId> = [dead].into_iter().collect();
    let (stats, down) = allocations_of(|| plan.apply(&[dead], &offline).unwrap());
    assert_eq!(stats.cells_resolved, 1);
    let after = plan.matrix();
    let scratch = ProbePlan::new(ft as SharedTopology, &cfg, &offline).unwrap();
    assert_eq!(after.achieved, scratch.matrix().achieved);
    // Nothing was added: every route is a route of the plan before (the
    // tail moved forward into the vacated slots, so ids may differ).
    assert_eq!(after.num_paths(), before.num_paths() - through);
    for p in &after.paths {
        let old = before.paths.iter().any(|q| q.route() == p.route());
        assert!(old, "{} is new", p.id);
    }

    // No `alive` list: the seeded path of PR 20 made 128 allocations on
    // this fixture, ten of them `alive` doubling its way through the
    // cell's 4 032 candidates before the survivors were looked at. What
    // is left (118) is sized by the selection — each survivor is cloned
    // into the solve — plus the solve's fixed set-up.
    assert!(
        down < 128 && down <= 3 * selected + 16,
        "link-down made {down} allocations repairing {selected} paths"
    );
}

/// What a patched plan owes a from-scratch plan over the same non-empty
/// offline set: the same achievement, no probe on an offline link, and a
/// size within a couple of paths per offline link (measured, not proven:
/// at most +4 with one link offline and +11 with up to four over 300
/// events on VL2(20,12,2) at (3, 1); the bound is what catches a repair
/// that piles up). Not the same rows: the repair keeps what survived.
fn assert_patched_matches_scratch(
    patched: &ProbeMatrix,
    scratch: &ProbeMatrix,
    offline: &HashSet<LinkId>,
) {
    assert_eq!(patched.achieved, scratch.achieved);
    assert_eq!(patched.uncoverable, scratch.uncoverable);
    for l in offline {
        assert!(patched.paths.iter().all(|p| !p.covers(*l)), "{l} probed");
    }
    assert!(
        patched.num_paths() <= scratch.num_paths() + 2 * offline.len() + 2,
        "patched {} paths, from scratch {}, {} links offline",
        patched.num_paths(),
        scratch.num_paths(),
        offline.len()
    );
}

#[test]
fn vl2_patches_equal_from_scratch_plans_and_heal_bit_for_bit() {
    let vl: SharedTopology = Arc::new(Vl2::new(20, 12, 2).unwrap());
    let cfg = PmcConfig::identifiable(1);
    let mut plan = ProbePlan::new(vl.clone(), &cfg, &HashSet::new()).unwrap();
    assert_eq!(plan.num_cells(), 1, "VL2 does not decompose");
    let pristine = plan.matrix();
    assert!(pristine.achieved.targets_met);

    // A ToR–aggregation link, one mid-fabric, and the last probe link.
    let links = plan.num_links() as u32;
    for dead in [LinkId(0), LinkId(links / 2), LinkId(links - 1)] {
        assert!(pristine.paths.iter().any(|p| p.covers(dead)));
        let offline: HashSet<LinkId> = [dead].into_iter().collect();
        let stats = plan.apply(&[dead], &offline).unwrap();
        assert_eq!(stats.cells_resolved, 1);
        let scratch = ProbePlan::new(vl.clone(), &cfg, &offline).unwrap();
        let patched = plan.matrix();
        assert_patched_matches_scratch(&patched, &scratch.matrix(), &offline);
        // Every path the dead link spared is where it was: same id, same
        // route (the cell did not shrink below them).
        for p in pristine.paths.iter().filter(|p| !p.covers(dead)) {
            if let Some(q) = patched.path(p.id) {
                assert_eq!(p, q, "surviving path {} moved", p.id);
            }
        }

        let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
        assert_eq!(stats.cells_restored, 1);
        assert_eq!(plan.matrix().paths, pristine.paths);
    }
}

/// SplitMix64 as a generator: the churn below must not depend on a
/// `rand` shim detail.
fn splitmix64(x: &mut u64) -> u64 {
    let z = detector_core::splitmix64(*x);
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

#[test]
fn overlapping_churn_never_drifts_from_the_from_scratch_plan() {
    // 120 overlapping link-down/up events with one to three links
    // offline at a time: repairs seed repairs, so this is where a plan
    // that degraded a little per event shows (seeded with the current
    // solution alone, this walk gets to 7 paths over the from-scratch
    // plan with a single link offline).
    // VL2(8,6,2) is the benchmark's family — one cell, nothing
    // decomposes — at a size a debug build plans from scratch a hundred
    // times in a second.
    let vl: SharedTopology = Arc::new(Vl2::new(8, 6, 2).unwrap());
    let cfg = PmcConfig::new(3, 1);
    let mut plan = ProbePlan::new(vl.clone(), &cfg, &HashSet::new()).unwrap();
    assert_eq!(plan.num_cells(), 1);
    let pristine = plan.matrix();
    assert!(pristine.achieved.targets_met);

    let links = plan.num_links() as u64;
    let mut rng = 0x000D_21F7_u64;
    let mut offline: Vec<LinkId> = Vec::new();
    let mut repaired = 0;
    for _ in 0..120 {
        let up =
            offline.len() == 3 || (!offline.is_empty() && splitmix64(&mut rng).is_multiple_of(3));
        let link = if up {
            offline.swap_remove((splitmix64(&mut rng) % offline.len() as u64) as usize)
        } else {
            let mut l = LinkId((splitmix64(&mut rng) % links) as u32);
            while offline.contains(&l) {
                l = LinkId((l.0 + 1) % links as u32);
            }
            offline.push(l);
            l
        };
        let set: HashSet<LinkId> = offline.iter().copied().collect();
        let stats = plan.apply(&[link], &set).unwrap();
        if set.is_empty() {
            assert_eq!(stats.cells_restored, 1);
            assert_eq!(
                plan.matrix().paths,
                pristine.paths,
                "all-up must be pristine"
            );
        } else {
            assert_eq!(stats.cells_resolved, 1);
            let scratch = ProbePlan::new(vl.clone(), &cfg, &set).unwrap();
            assert_patched_matches_scratch(&plan.matrix(), &scratch.matrix(), &set);
            repaired += 1;
        }
    }
    assert!(
        repaired >= 80,
        "the walk must mostly sit in degraded states"
    );
}

/// `Controller::assign` looks each switch's usable servers up once, not
/// per path, and counts every list before filling it, and the plan
/// assembles the matrix the `Deployment` owns as one run copy per cell:
/// a deployment allocates a few arrays per list (its entries and its one
/// run array of routes), a few for the matrix, and nothing per entry or
/// per path. On this symmetric Fattree(16) (5 052 entries in 180 lists
/// over 1 896 paths, 8 cells) it makes 555 allocations against a bound
/// of 1 040. A `ProbePath` cloned per path into the matrix, as
/// `ProbePlan::matrix` cloned until the matrix kept its paths flat, makes
/// about 3 800 more; with a route `Vec` per entry `assign` made about
/// 5 200 more, and looking a path's servers up per path (two filtered
/// `servers_under` `Vec`s each) costs about 7 400 more.
#[test]
fn a_deployment_allocates_per_list_not_per_entry_or_path_lookup() {
    let ft = Arc::new(Fattree::new(16).unwrap());
    let switches = ft.graph().num_switches();
    let mut ctl = Controller::new(ft as SharedTopology, SystemConfig::default());
    // The plan is built here, outside the count.
    ctl.compute_matrix().unwrap();
    let (d, allocations) = allocations_of(|| ctl.build_deployment(&HashSet::new()).unwrap());
    let paths = d.matrix.num_paths();
    let lists = d.pinglists.len();
    let entries: usize = d.pinglists.iter().map(|l| l.entries.len()).sum();
    assert!(
        allocations <= 4 * lists + switches,
        "a deployment of {entries} entries in {lists} lists over {paths} paths \
         made {allocations} allocations"
    );
}

/// A steady-state window probes without allocating: a pinger's counters
/// and its report are arrays per list, and the simulated fabric's echo
/// walks each probe's route backwards in place. On this symmetric
/// Fattree(16) (180 bound lists, ~54 000 probes a window) a `step`
/// window after warm-up makes 926 allocations against a bound of 1 440;
/// a reversed copy of the route, collected per probe into two `Vec`s,
/// makes about 108 000 more.
#[test]
fn a_step_window_over_a_quiet_fabric_allocates_per_list_not_per_probe() {
    let ft = Arc::new(Fattree::new(16).unwrap());
    let fabric = Fabric::quiet(&*ft);
    let mut run = Detector::new(ft.clone() as SharedTopology, SystemConfig::default()).unwrap();
    let mut rng = SmallRng::seed_from_u64(22);
    // The first windows bind every list and fill the report store.
    for _ in 0..5 {
        run.step(&fabric, &mut rng);
    }
    let lists = run.pinglists().len();
    let (window, allocations) = allocations_of(|| run.step(&fabric, &mut rng));
    assert_eq!((lists, window.probes_sent), (180, 54_000));
    assert!(
        allocations <= 8 * lists,
        "a window of {} probes over {lists} lists made {allocations} allocations",
        window.probes_sent
    );
}

/// Binding a pinglist moves its node runs into the batch and resolves
/// every entry's links into one run array: a bind allocates five arrays
/// per list (the links' offsets and items, the resolution mask, the path
/// keys and the counter slots), whatever the list's length. The 180
/// lists of this symmetric Fattree(16) deployment hold 5 052 entries and
/// bind in 901 allocations; one copy of each entry's node run makes
/// 5 953, and the owned `Route` each entry kept made two `Vec`s.
#[test]
fn binding_a_deployment_allocates_per_list_not_per_entry() {
    let ft = Arc::new(Fattree::new(16).unwrap());
    let graph = ft.graph().clone();
    let mut ctl = Controller::new(ft as SharedTopology, SystemConfig::default());
    ctl.compute_matrix().unwrap();
    let d = ctl.build_deployment(&HashSet::new()).unwrap();
    let lists = d.pinglists.len();
    let entries: usize = d.pinglists.iter().map(|l| l.entries.len()).sum();
    let (batches, allocations) = allocations_of(|| {
        (d.pinglists.into_iter())
            .map(|l| PingerBatch::bind(l, &graph))
            .collect::<Vec<_>>()
    });
    let bound: usize = batches.iter().map(PingerBatch::num_entries).sum();
    assert_eq!((lists, bound), (180, entries));
    assert!(
        allocations <= 5 * lists + 1,
        "binding {entries} entries in {lists} lists made {allocations} allocations"
    );
}

/// A re-plan moves its deployment's matrix into the diagnoser and clones
/// only the lists it ships whole. On Fattree(16) a link-up re-plan ships
/// 8 edit scripts in 696 allocations, 135 of them the diff's. Cloning
/// every changed list into a `Replace` only to measure it (about 300
/// more, in the diff), each edit script into a frame of its own only to
/// measure it (46 more) or anything per deployed path (1 896 of them)
/// crosses a bound. A clone of the matrix, five array copies since the
/// matrix keeps its paths flat, no longer shows in the count.
#[test]
fn a_link_up_replan_copies_no_matrix_and_no_list_it_does_not_ship() {
    let ft = Arc::new(Fattree::new(16).unwrap());
    let link = ft.ea_link(0, 0, 0);
    let mut run = Detector::new(ft.clone() as SharedTopology, SystemConfig::default()).unwrap();
    run.apply(&TopologyEvent::LinkDown { link }).unwrap();
    let (update, replan) = allocations_of(|| run.apply(&TopologyEvent::LinkUp { link }).unwrap());

    // The same install, counted alone: boot pristine, then patch.
    let mut ctl = Controller::new(ft as SharedTopology, SystemConfig::default());
    ctl.compute_matrix().unwrap();
    ctl.apply_event(&TopologyEvent::LinkDown { link }).unwrap();
    let old = ctl.build_deployment(&HashSet::new()).unwrap();
    ctl.apply_event(&TopologyEvent::LinkUp { link }).unwrap();
    let mut new = ctl.build_deployment(&HashSet::new()).unwrap();
    let ((updates, stats), diff) = allocations_of(|| rebase_and_diff(&old, &mut new, &[]));
    assert_eq!(stats, update.dispatch);
    assert_eq!((updates.len(), stats.entries_diffed), (8, 16));
    assert!(updates.iter().all(|u| matches!(u, ListUpdate::Diff { .. })));
    assert!(diff <= 160, "the install's diff made {diff} allocations");
    assert!(
        replan <= 1_200,
        "the link-up re-plan made {replan} allocations"
    );
}

/// A symmetric boot keeps the candidates it pulls flat and copies only
/// a selected one. Fattree(16) at (3, 1) pulls 19 200 candidates in its
/// one base solve to select 237 paths, which it replicates to 1 896,
/// each replica written into one store of its cell: 436 allocations, per
/// batch and per cell. Building a `ProbePath` per pulled candidate, as
/// providers did when they returned `Vec<ProbePath>`, made 46 836, and a
/// `ProbePath` per replicated path about 4 600.
#[test]
fn a_symmetric_boot_allocates_per_selected_path_and_batch_not_per_candidate() {
    let ft: SharedTopology = Arc::new(Fattree::new(16).unwrap());
    assert!(ft.original_path_count() > detector_system::EXHAUSTIVE_LIMIT);
    let cfg = PmcConfig::new(3, 1);
    let (plan, allocations) = allocations_of(|| ProbePlan::new(ft, &cfg, &HashSet::new()).unwrap());
    let paths = plan.num_paths();
    assert_eq!((plan.num_cells(), paths), (8, 1896));
    assert!(
        allocations <= 3 * paths + 1_024,
        "a symmetric boot of {paths} paths made {allocations} allocations"
    );
}

/// A materialized boot keeps its candidates in one flat batch — the
/// enumeration writes it, `decompose` copies each component's runs into
/// a batch of its own (a single component keeps it whole) and the
/// solve reads candidates out of it — and copies only a selected one
/// into its cell's store. VL2(20,12,2) at (3, 1), one 70 800-candidate
/// cell, boots to 241 paths in 237 allocations; Fattree(8), whose four
/// cells solve on the job pool's threads (uncounted) once this thread
/// has enumerated and decomposed, in about 90. Enumerating into a
/// `ProbePath` per candidate made 142 313 and 15 986.
#[test]
fn a_materialized_boot_allocates_per_selected_path_and_cell_not_per_candidate() {
    let cfg = PmcConfig::new(3, 1);
    let topos: [(SharedTopology, usize, usize); 2] = [
        (Arc::new(Vl2::new(20, 12, 2).unwrap()), 1, 241),
        (Arc::new(Fattree::new(8).unwrap()), 4, 320),
    ];
    for (topo, cells, paths) in topos {
        assert!(topo.original_path_count() <= detector_system::EXHAUSTIVE_LIMIT);
        let name = topo.name();
        let (plan, allocations) =
            allocations_of(|| ProbePlan::new(topo, &cfg, &HashSet::new()).unwrap());
        assert_eq!(
            (plan.num_cells(), plan.num_paths()),
            (cells, paths),
            "{name}"
        );
        assert!(
            allocations <= 3 * paths + 1_024,
            "a materialized boot of {name}, {paths} paths in {cells} cells, \
             made {allocations} allocations"
        );
    }
}

/// A provider that counts its pulls.
struct Pulls<'a, P>(P, &'a Cell<usize>);

impl<P: CandidateProvider> CandidateProvider for Pulls<'_, P> {
    fn universe(&self) -> &[LinkId] {
        self.0.universe()
    }

    fn next_batch(&mut self, batch: &mut PathStore) {
        self.1.set(self.1.get() + 1);
        self.0.next_batch(batch);
    }
}

/// A symmetric base solve keeps each pull's batch whole, with the
/// positions of the candidates the greedy admits, and copies a
/// candidate only into the selection's one store when it selects it.
/// Fattree(16)'s group solve at (3, 1) makes 371 allocations over 23
/// pulls to select 237 of 19 200 candidates; a `ProbePath` built per
/// kept candidate, as the pool built before it kept batches flat, makes
/// two more allocations per kept candidate and crosses the bound.
#[test]
fn a_symmetric_base_solve_allocates_per_pull_not_per_kept_candidate() {
    let ft = Fattree::new(16).unwrap();
    let cfg = PmcConfig::new(3, 1);
    let pulls = Cell::new(0);
    let provider = Pulls(ft.group_provider(0), &pulls);
    let (sol, allocations) = allocations_of(|| construct_with_provider(provider, &cfg).unwrap());
    assert_eq!((pulls.get(), sol.paths.len()), (23, 237));
    assert!(
        allocations <= 16 * pulls.get() + 128,
        "a base solve of {} pulls made {allocations} allocations",
        pulls.get()
    );
}
