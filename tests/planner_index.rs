//! The index-driven re-plan, pinned by properties a timing cannot gate:
//! a link-down patch of a materialized plan allocates far less than once
//! per candidate (the solver walks the cell's candidate index; it used to
//! clone every surviving candidate), a link-up patch allocates in
//! proportion to the restored selection, and on the benchmark's own
//! instance — VL2(20,12,2), one 70 800-candidate cell — patching is
//! content-equal to planning from scratch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use detector_core::pmc::{decompose, PmcConfig, ProbeMatrix};
use detector_core::types::LinkId;
use detector_system::{ProbePlan, SharedTopology};
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
    // One worker: the patch runs on this thread, where it is counted.
    let cfg = PmcConfig::identifiable(1).with_workers(1);
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

/// Same rows, row for row (ids may differ: a patched plan keeps its birth
/// ranges, a fresh one derives its own).
fn assert_content_equal(a: &ProbeMatrix, b: &ProbeMatrix) {
    assert_eq!(a.achieved, b.achieved);
    assert_eq!(a.uncoverable, b.uncoverable);
    assert_eq!(a.paths.len(), b.paths.len());
    for (i, (pa, pb)) in a.paths.iter().zip(&b.paths).enumerate() {
        assert_eq!(pa.links(), pb.links(), "row {i} links");
        assert_eq!(pa.nodes(), pb.nodes(), "row {i} nodes");
    }
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
        assert_content_equal(&plan.matrix(), &scratch.matrix());
        assert!(plan.matrix().paths.iter().all(|p| !p.covers(dead)));

        let stats = plan.apply(&[dead], &HashSet::new()).unwrap();
        assert_eq!(stats.cells_restored, 1);
        assert_eq!(plan.matrix().paths, pristine.paths);
    }
}
