//! The storm's stage split, timed from outside the diagnoser: a
//! Fattree(`--k`, default 32) loses one uplink of every edge switch, and
//! 7 more variants each move one. Each variant's reports, produced once
//! by `PingerBatch::run_window` and encoded once, are offered for 4
//! windows (an onset, then 3 reuses), 20 times over. It
//! prints one JSON line: the quartiles in µs of `Frame::decode`,
//! `Diagnoser::ingest` and `Diagnoser::diagnose` over onset and over
//! reuse windows, the first round's `components_solved` per onset, the
//! quartiles over 10 cold starts of each step of the storm workload's
//! cold start (the topology, the plan, and `build_deployment`'s matrix
//! and `assign`, then `Diagnoser::new`, the fresh diagnoser's first
//! window, and dropping all of it: the steps the workload's `setup_s`
//! bills), the process's peak RSS after the replay (`peak_rss_mb`), the
//! CPU model and the codegen units; and exits non-zero if a
//! window's suspects differ from `localize`'s. `crates/bench/README.md`
//! has the protocol for comparing two builds.

use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use detector_core::pll::localize;
use detector_core::types::LinkId;
use detector_simnet::{Fabric, LossDiscipline};
use detector_system::wire::Frame;
use detector_system::{
    Controller, Diagnoser, PingerBatch, Pinglist, ProbePlan, ReportStore, SystemConfig, Watchdog,
};
use detector_topology::{DcnTopology, Fattree};

const VARIANTS: u64 = 8;
const WINDOWS: u64 = 4;
const ROUNDS: u64 = 20;
const COLD_STARTS: usize = 10;
const COLD_STEPS: [&str; 7] = [
    "topology",
    "plan",
    "matrix",
    "assign",
    "diagnoser",
    "first_window",
    "teardown",
];

/// What a cold start builds: the topology, its plan, its pinglists and
/// its diagnoser (which owns the matrix).
type Session = (Arc<Fattree>, ProbePlan, Vec<Pinglist>, Diagnoser);

/// `{"p25":…,"p50":…,"p75":…}` of `samples`.
fn quartiles(mut samples: Vec<f64>) -> String {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let i = (samples.len().saturating_sub(1) as f64 * q).round() as usize;
        samples.get(i).copied().unwrap_or(0.0)
    };
    let [p25, p50, p75] = [0.25, 0.5, 0.75].map(at);
    format!(r#"{{"p25":{p25:.1},"p50":{p50:.1},"p75":{p75:.1}}}"#)
}

/// One cold start as the storm workload makes it (`build_deployment`'s
/// plan, matrix and `assign`, then `Diagnoser::new`), and the µs of each
/// of [`COLD_STEPS`] but the teardown.
fn cold_start(k: u32, cfg: &SystemConfig) -> (Session, [f64; 5]) {
    let mut at = vec![Instant::now()];
    let ft = Arc::new(Fattree::new(k).expect("a valid radix"));
    at.push(Instant::now());
    let plan = ProbePlan::new(ft.clone(), &cfg.pmc, &HashSet::new()).expect("the plan builds");
    at.push(Instant::now());
    let matrix = plan.matrix();
    at.push(Instant::now());
    let pinglists = Controller::new(ft.clone(), cfg.clone()).assign(&matrix, &HashSet::new());
    at.push(Instant::now());
    let diagnoser = Diagnoser::new(matrix, cfg.pll);
    at.push(Instant::now());
    let split = std::array::from_fn(|i| (at[i + 1] - at[i]).as_secs_f64() * 1e6);
    ((ft, plan, pinglists, diagnoser), split)
}

/// Replays window `w` of `frames` on `diagnoser` as the storm workload
/// does — decode, ingest, `diagnose`, prune — and returns its suspects.
fn window(
    diagnoser: &mut Diagnoser,
    watchdog: &Watchdog,
    frames: &[Vec<u8>],
    w: u64,
) -> Option<Vec<LinkId>> {
    let mut decoded = true;
    for f in frames {
        match Frame::decode(f) {
            Ok(Frame::Report(mut r)) => {
                r.window = w;
                diagnoser.ingest(r);
            }
            _ => decoded = false,
        }
    }
    let suspects = diagnoser.diagnose(w, watchdog).diagnosis.suspect_links();
    diagnoser.prune_before(w.saturating_sub(20));
    decoded.then_some(suspects)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let k = match args.as_slice() {
        [] => 32,
        [flag, k] if flag == "--k" => k.parse().unwrap_or(0),
        _ => 0,
    };
    if Fattree::new(k).is_err() {
        eprintln!("usage: storm_stages [--k <even radix, default 32>]");
        return ExitCode::FAILURE;
    }
    let cfg = SystemConfig::default();
    let ((ft, plan, pinglists, diagnoser), _) = cold_start(k, &cfg);
    let batches: Vec<PingerBatch> = (pinglists.iter())
        .map(|l| PingerBatch::bind(l.clone(), ft.graph()))
        .collect();
    // Per variant: its encoded reports and the oracle's suspects.
    let variants: Vec<_> = (0..VARIANTS as u32)
        .map(|v| {
            let mut fabric = Fabric::quiet(ft.as_ref());
            let half = ft.half();
            for pod in 0..ft.k() {
                for edge in 0..half {
                    let moved = u32::from(pod * half + edge + 1 == v);
                    let uplink = ft.ea_link(pod, edge, (pod + edge + moved) % half);
                    fabric.set_discipline_both(uplink, LossDiscipline::Full);
                }
            }
            let store = ReportStore::new();
            let frames: Vec<Vec<u8>> = (batches.iter())
                .map(|b| {
                    let report = b.run_window(&fabric, &cfg, 0, u64::from(v));
                    store.ingest(report.clone());
                    Frame::Report(report).encode()
                })
                .collect();
            let obs = store.window_observations(0, &|_| false);
            let expected = localize(diagnoser.matrix(), &obs, &cfg.pll).suspect_links();
            (frames, expected)
        })
        .collect();
    drop((ft, plan, pinglists, diagnoser, batches));

    // Cold starts the way the storm workload makes them, its first
    // window included, then the session the storm replays on.
    let watchdog = Watchdog::new();
    let (mut cold, mut wrong): ([Vec<f64>; 7], u64) = Default::default();
    for _ in 0..COLD_STARTS {
        let (mut session, split) = cold_start(k, &cfg);
        let start = Instant::now();
        let (frames, expected) = &variants[0];
        let first = window(&mut session.3, &watchdog, frames, 0);
        wrong += u64::from(first.as_ref() != Some(expected));
        let first = start.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        drop(session);
        let teardown = start.elapsed().as_secs_f64() * 1e6;
        for (samples, us) in cold
            .iter_mut()
            .zip(split.into_iter().chain([first, teardown]))
        {
            samples.push(us);
        }
    }
    let ((_, _, _, mut diagnoser), _) = cold_start(k, &cfg);
    // Onset and reuse windows' µs per stage.
    let mut stages: [[Vec<f64>; 3]; 2] = Default::default();
    let mut solved = Vec::new();
    for w in 0..ROUNDS * VARIANTS * WINDOWS {
        let (frames, expected) = &variants[(w / WINDOWS % VARIANTS) as usize];
        let start = Instant::now();
        let reports: Vec<_> = frames.iter().map(|f| Frame::decode(f)).collect();
        let decoded = Instant::now();
        for report in reports {
            let Ok(Frame::Report(mut r)) = report else {
                wrong += 1;
                continue;
            };
            r.window = w;
            diagnoser.ingest(r);
        }
        let ingested = Instant::now();
        let event = diagnoser.diagnose(w, &watchdog);
        let times = [start, decoded, ingested, Instant::now()];
        diagnoser.prune_before(w.saturating_sub(20));
        let onset = w % WINDOWS == 0;
        for (stage, pair) in stages[usize::from(!onset)].iter_mut().zip(times.windows(2)) {
            stage.push((pair[1] - pair[0]).as_secs_f64() * 1e6);
        }
        if onset && w < VARIANTS * WINDOWS {
            solved.push(event.components_solved);
        }
        wrong += u64::from(event.diagnosis.suspect_links() != *expected);
    }

    // The process's peak resident set (`VmHWM`, MiB as the benchmark
    // reads it), taken once the replay's windows have filled its logs.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak_rss_mb = (status.lines())
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .map_or(0.0, |kb: f64| kb / 1024.0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = (cpu.lines())
        .find_map(|l| Some(l.strip_prefix("model name")?.split_once(':')?.1.trim()))
        .unwrap_or("unknown")
        .replace('"', "'");
    let units = option_env!("CARGO_PROFILE_RELEASE_CODEGEN_UNITS").unwrap_or("default");
    let [onset, reuse] = stages.map(|s| {
        let [d, i, g] = s.map(quartiles);
        format!(r#"{{"decode_us":{d},"ingest_us":{i},"diagnose_us":{g}}}"#)
    });
    let cold = (COLD_STEPS.iter().zip(cold))
        .map(|(step, samples)| format!(r#""{step}_us":{}"#, quartiles(samples)))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        r#"{{"k":{k},"windows_wrong":{wrong},"onset":{onset},"reuse":{reuse},"onset_components_solved":{solved:?},"cold_start":{{{cold}}},"peak_rss_mb":{peak_rss_mb:.2},"cpu":"{cpu}","codegen_units":"{units}"}}"#
    );
    if wrong > 0 {
        eprintln!("storm_stages: {wrong} windows differ from the localize oracle");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
