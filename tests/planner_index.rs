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
//! allocates per entry and per list, not per path lookup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use detector_core::pmc::{decompose, PmcConfig, ProbeMatrix};
use detector_core::types::LinkId;
use detector_system::{Controller, ProbePlan, SharedTopology, SystemConfig};
use detector_topology::{DcnTopology, Fattree, Vl2};

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
    let through = before.paths_through(dead).count();
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
        assert!(pristine.paths_through(dead).next().is_some());
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
/// per path: a deployment allocates each entry's route, each list's
/// entry growth, and the copy of the matrix the `Deployment` owns (two
/// `Vec`s a path), and nothing per path beyond those. Looking a path's
/// servers up per path (two filtered `servers_under` `Vec`s each) makes
/// about 17 000 allocations here, over the bound of about 10 600; the
/// table makes about 9 600.
#[test]
fn a_deployment_allocates_per_entry_and_list_not_per_path_lookup() {
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
        allocations <= entries + 2 * paths + 8 * lists + switches,
        "a deployment of {entries} entries in {lists} lists over {paths} paths \
         made {allocations} allocations"
    );
}
