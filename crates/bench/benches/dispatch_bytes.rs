//! Dispatch bytes: whole-list redispatch vs per-entry diffs on a
//! Fattree(16) single-link delta — the wire-cost claim of the
//! distributed control plane (`detector-agent`).
//!
//! The planner repairs the cell the link went down in: the solve is
//! seeded with the previous solution, so only the paths the dead link
//! actually broke change ids or entries. Two arms time the wire encoding
//! of the same delta under the two protocols:
//!
//! * `whole_list` — the pre-diff protocol: every changed pinglist ships
//!   whole (one `ListReplace` frame per list);
//! * `per_entry_diff` — the `detector-agent` protocol: `EntryRemove` /
//!   `EntryAdd` / `ListSeal` frames per changed list, `RangeRebase`
//!   broadcasts for moved id ranges.
//!
//! Timings land in the usual `CRITERION_JSON` feed. The byte accounting
//! itself is machine-independent, so it is persisted separately: set
//! `DISPATCH_JSON=$PWD/BENCH_dispatch.json` and the run appends one
//! JSON-lines record per arm (`bytes`, `entries`, `updates`, `lists`,
//! `paths`) plus a `ratio_x100` summary record. The committed
//! `BENCH_dispatch.json` snapshot is schema-checked — including the
//! ≥10× diff-vs-whole ratio — by `tests/bench_artifacts.rs`:
//!
//! ```text
//! rm -f BENCH_dispatch.json
//! DISPATCH_JSON=$PWD/BENCH_dispatch.json cargo bench -p detector-bench --bench dispatch_bytes
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use detector_system::dispatch::{
    encoded_list_len, rebase_and_diff, rebase_pairs, DeploymentDiff, ListUpdate, FRAME_OVERHEAD,
};
use detector_system::{Controller, Deployment, SharedTopology, SystemConfig};
use detector_topology::{Fattree, TopologyEvent};

/// The single-link delta under measurement: the old deployment, the new
/// deployment, and the diff between them.
struct Delta {
    old: Deployment,
    new: Deployment,
    diff: DeploymentDiff,
}

fn single_link_delta() -> Delta {
    let ft = Arc::new(Fattree::new(16).expect("fattree"));
    let mut ctl = Controller::new(ft.clone() as SharedTopology, SystemConfig::default());
    let healthy = HashSet::new();
    let old = ctl.build_deployment(&healthy).expect("initial deployment");
    let ranges_before = ctl.probe_plan().map(|p| p.cell_ranges());
    ctl.apply_event(&TopologyEvent::LinkDown {
        link: ft.ea_link(0, 0, 0),
    })
    .expect("re-plan");
    let mut new = ctl.build_deployment(&healthy).expect("patched deployment");
    let ranges_after = ctl.probe_plan().map(|p| p.cell_ranges());
    let rebases = rebase_pairs(ranges_before.as_deref(), ranges_after.as_deref());
    let (diff, _stats) = rebase_and_diff(&old, &mut new, &rebases);
    Delta { old, new, diff }
}

/// Wire bytes of the pre-diff protocol: every update travels as a whole
/// list (`ListReplace`), removals as `ListRemove`.
fn whole_list_bytes(d: &Delta) -> usize {
    d.diff
        .updates
        .iter()
        .map(|u| match u {
            ListUpdate::Remove(_) => FRAME_OVERHEAD + 4,
            ListUpdate::Replace(list) => encoded_list_len(list),
            ListUpdate::Diff { pinger, .. } => d
                .new
                .pinglists
                .iter()
                .find(|l| l.pinger == *pinger)
                .map(encoded_list_len)
                .expect("diffed list exists in the new deployment"),
        })
        .sum()
}

fn append_record(path: &str, record: &str) {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("DISPATCH_JSON file must be writable");
    writeln!(f, "{record}").expect("DISPATCH_JSON write");
}

fn bench_dispatch_bytes(c: &mut Criterion) {
    let delta = single_link_delta();
    let diff_bytes = delta.diff.wire_bytes();
    let whole_bytes = whole_list_bytes(&delta);
    let entries = delta.diff.entries_diffed();
    let updates = delta.diff.updates.len();
    let lists = delta.old.pinglists.len();
    let paths = delta.old.matrix.num_paths();
    println!(
        "dispatch_bytes/fattree16: diff {diff_bytes} B vs whole-list {whole_bytes} B \
         ({entries} entries over {updates}/{lists} lists, {paths} paths) — {:.2}x",
        whole_bytes as f64 / diff_bytes as f64
    );

    if let Ok(path) = std::env::var("DISPATCH_JSON") {
        for (bench, bytes) in [("per_entry_diff", diff_bytes), ("whole_list", whole_bytes)] {
            append_record(
                &path,
                &format!(
                    "{{\"group\":\"dispatch_bytes/fattree16\",\"bench\":\"{bench}\",\
                     \"bytes\":{bytes},\"entries\":{entries},\"updates\":{updates},\
                     \"lists\":{lists},\"paths\":{paths}}}"
                ),
            );
        }
        append_record(
            &path,
            &format!(
                "{{\"group\":\"dispatch_bytes/fattree16\",\"bench\":\"ratio\",\
                 \"ratio_x100\":{}}}",
                whole_bytes * 100 / diff_bytes
            ),
        );
    }

    let mut group = c.benchmark_group("dispatch_bytes/fattree16");
    group.sample_size(10);
    group.bench_function("per_entry_diff", |b| {
        b.iter(|| {
            // Re-derive the edit script and its frame bytes from the two
            // deployments — the work the controller does per delta.
            let mut new = delta.new.clone();
            let (diff, _) = rebase_and_diff(&delta.old, &mut new, &delta.diff.rebases);
            criterion::black_box(diff.wire_bytes())
        })
    });
    group.bench_function("whole_list", |b| {
        b.iter(|| criterion::black_box(whole_list_bytes(&delta)))
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch_bytes);
criterion_main!(benches);
