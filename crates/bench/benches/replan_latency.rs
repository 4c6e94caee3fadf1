//! Re-plan latency: full recompute vs incremental patch (the tentpole
//! claim of the live-topology API).
//!
//! For a single-link delta on Fattree(16) (symmetric planner: one base
//! component, k/2 = 8 isomorphic groups) and VL2(20,12,2) (materialized
//! planner: one 70,800-candidate component), compare:
//!
//! * `full_*` — a from-scratch [`ProbePlan`] build for the mutated
//!   topology state, the way a stateless controller must re-plan: it
//!   re-derives candidates/providers and re-solves every affected
//!   subproblem plus a pristine base where replicas need it;
//! * `incremental_*` — [`ProbePlan::apply`] on the standing plan: only
//!   the subproblem the delta touches is repaired, seeded with the paths
//!   it already has (`_down`), and a repaired link restores the cached
//!   pristine solution without solving at all (`_up`).
//!
//! Both arms end with `ProbePlan::matrix()` so the cost of assembling the
//! deployable matrix is included on both sides. The shim's criterion
//! reports min/median/mean/max ± std-dev; compare medians.
//!
//! The run also prints a **`lists_redispatched`** accounting block: with
//! segmented per-cell `PathId` ranges, a single-cell delta re-dispatches
//! only the pinglists carrying the touched cell's paths (and a no-op
//! cycle refresh re-dispatches nothing), where the former dense-id
//! assembly shifted every later cell's ids and re-dispatched the whole
//! fabric on any path-count change.
//!
//! Run with: `cargo bench --bench replan_latency`

use std::collections::HashSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use detector_core::pmc::PmcConfig;
use detector_core::types::LinkId;
use detector_system::{Detector, ProbePlan, SharedTopology, SystemConfig};
use detector_topology::{Fattree, TopologyEvent, Vl2};

/// Forces the symmetric path regardless of instance size.
const FORCE_SYMMETRIC: u128 = 0;
/// Forces candidate materialization regardless of instance size.
const FORCE_MATERIALIZED: u128 = u128::MAX;

fn bench_case(
    c: &mut Criterion,
    label: &str,
    topo: SharedTopology,
    victim: LinkId,
    cfg: &PmcConfig,
    limit: u128,
) {
    let offline: HashSet<LinkId> = [victim].into_iter().collect();
    let none: HashSet<LinkId> = HashSet::new();

    let pristine =
        ProbePlan::with_exhaustive_limit(topo.clone(), cfg, &none, limit).expect("pristine plan");
    let degraded = {
        let mut p = pristine.clone();
        p.apply(&[victim], &offline).expect("degrade plan");
        p
    };

    let mut g = c.benchmark_group(format!("replan_latency/{label}"));
    g.sample_size(10);

    // Link goes down: full rebuild vs single-subproblem patch.
    g.bench_function("full_down", |b| {
        b.iter(|| {
            ProbePlan::with_exhaustive_limit(topo.clone(), cfg, &offline, limit)
                .expect("full replan")
                .matrix()
                .num_paths()
        })
    });
    g.bench_function("incremental_down", |b| {
        b.iter_batched(
            || pristine.clone(),
            |mut p| {
                p.apply(&[victim], &offline).expect("incremental replan");
                p.matrix().num_paths()
            },
            BatchSize::LargeInput,
        )
    });

    // Link comes back: full rebuild vs pristine-cache restore.
    g.bench_function("full_up", |b| {
        b.iter(|| {
            ProbePlan::with_exhaustive_limit(topo.clone(), cfg, &none, limit)
                .expect("full replan")
                .matrix()
                .num_paths()
        })
    });
    g.bench_function("incremental_up", |b| {
        b.iter_batched(
            || degraded.clone(),
            |mut p| {
                p.apply(&[victim], &none).expect("incremental replan");
                p.matrix().num_paths()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn fattree16(c: &mut Criterion) {
    let ft = Arc::new(Fattree::new(16).expect("fattree"));
    let victim = ft.ea_link(3, 2, 1);
    bench_case(
        c,
        "fattree16",
        ft as SharedTopology,
        victim,
        &PmcConfig::identifiable(1),
        FORCE_SYMMETRIC,
    );
}

fn vl2(c: &mut Criterion) {
    // PMC ignores servers-per-ToR, so 2 keeps graph construction cheap;
    // the probe problem is the paper's VL2(20,12) with one 70,800-path
    // candidate component that does not decompose.
    let vl = Arc::new(Vl2::new(20, 12, 2).expect("vl2"));
    let victim = LinkId(0); // A ToR–aggregation link.
    bench_case(
        c,
        "vl2_20_12",
        vl as SharedTopology,
        victim,
        &PmcConfig::identifiable(1),
        FORCE_MATERIALIZED,
    );
}

/// Reports the dispatch-stability metric: pinglists re-dispatched by a
/// single-link delta (down, then up) and by a no-op re-apply, on
/// Fattree(16) with a (1, 1) matrix. Not a timing benchmark — one run
/// each, printed alongside the latency groups.
fn lists_redispatched(_c: &mut Criterion) {
    let ft = Arc::new(Fattree::new(16).expect("fattree"));
    let dead = ft.ea_link(3, 2, 1);
    let cfg = SystemConfig::default().with_pmc(PmcConfig::identifiable(1));
    let mut run =
        Detector::new(ft.clone() as SharedTopology, cfg).expect("boot Fattree(16) detector");

    println!("\nlists_redispatched (Fattree(16), (1,1), single ea-link delta):");
    let total = run.pinglists().len();
    let down = run
        .apply(&TopologyEvent::LinkDown { link: dead })
        .expect("down delta");
    println!(
        "  link down: {:3} / {} lists re-dispatched ({} cell(s) re-solved, {} µs)",
        down.lists_redispatched,
        run.pinglists().len(),
        down.stats.cells_resolved,
        down.replan_micros
    );
    let noop = run
        .apply(&TopologyEvent::LinkDown { link: dead })
        .expect("no-op delta");
    println!(
        "  no-op:     {:3} / {} lists re-dispatched ({} µs)",
        noop.lists_redispatched,
        run.pinglists().len(),
        noop.replan_micros
    );
    let up = run
        .apply(&TopologyEvent::LinkUp { link: dead })
        .expect("up delta");
    println!(
        "  link up:   {:3} / {} lists re-dispatched (restored from cache, {} µs)",
        up.lists_redispatched,
        run.pinglists().len(),
        up.replan_micros
    );
    println!("  (boot deployment had {total} lists)");
}

criterion_group!(benches, fattree16, vl2, lists_redispatched);
criterion_main!(benches);
