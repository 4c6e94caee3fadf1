//! `e2e_window`: the repository's benchmark — how long from a link going
//! bad to a correct `DiagnosisReady`, and what a window costs, on four
//! workloads, in host-calibrated units. See `benchmark/README.md`.
//!
//! Two modes:
//!
//! * **single run** (`--workload W --trace 0|1`, what `BENCHMARK.json`'s
//!   command runs): measures one workload in this process and prints one
//!   JSON result object as the last line of stdout;
//! * **suite** (anything else): runs every selected workload, untraced
//!   then traced, each in a child process of its own, `--repeat N` times,
//!   writes `out/e2e_window.json` and — for `N > 1` — checks that the
//!   runs agree within the metrics' bounds.

mod calib;
mod host;
mod layers;
mod measure;
mod metrics;
mod plane;
mod stats;
mod suite;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use detector_core::json::Json;

use workloads::{Scale, Workload};

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 1;

pub struct Args {
    /// The CPUs this process confined itself to (single runs only).
    pub cpus: Option<Vec<usize>>,
    pub workload: Option<String>,
    pub seed: u64,
    /// Length of the measured phase. The benchmark driver passes
    /// `run_seconds` of `BENCHMARK.json` on every run, which is also the
    /// default here; a run of another length is not comparable.
    pub seconds: f64,
    pub trace: Option<bool>,
    pub repeat: usize,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cpus: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::tables().run_seconds,
        trace: None,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::by_name(name).is_none() {
            let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

/// What every record says about where its numbers come from.
fn record_head(w: &Workload, args: &Args, trace: bool) -> Vec<(&'static str, Json)> {
    vec![
        ("benchmark", Json::Str("e2e_window".into())),
        ("workload", Json::Str(w.name.into())),
        ("stresses", Json::Str(w.stresses.into())),
        ("block_windows", Json::uint(w.block)),
        ("trace", Json::Bool(trace)),
        ("calib_ref_ms", Json::Float(calib::CALIB_REF_MS)),
        ("host_exp", Json::Float(w.host_exp)),
        ("host", host::fingerprint(args.seed, args.cpus.as_deref())),
        (
            "network",
            Json::Str("in-process; UDP datagrams cross the host loopback, not a link".into()),
        ),
    ]
}

/// One measured (untraced) run of `w` in this process.
fn run_measured(w: &Workload, args: &Args) -> Result<Json, String> {
    let mut h = measure::Harness::new(args.seconds, w.host_exp, args.seed);
    (w.run)(&mut h, Scale::Full);
    let r = h.finish();
    let values = [
        ("setup_s", r.setup_s),
        ("windows_per_s", r.windows_per_s),
        ("detect_ms_p50", r.detect_ms_p50),
        ("cpu_ms_per_window", r.cpu_ms_per_window),
        ("peak_rss_mb", r.peak_rss_mb),
    ];
    let table: Vec<(String, String)> = metrics::tables()
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let result = metrics::result_object(w.name, &table, &values, r.attempted, r.failed)?;
    let mut record = record_head(w, args, false);
    record.extend([
        ("seconds", Json::Float(args.seconds)),
        ("result", result.clone()),
        (
            "diagnostics",
            Json::Object(
                r.diagnostics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
    ]);
    suite::write_record(&args.out, &format!("{}.json", w.name), &Json::obj(record))?;
    Ok(result)
}

/// One traced run of `w` in this process: a fixed number of blocks
/// (`--seconds` does not apply), per-layer metrics, spans written to
/// `trace_<workload>.jsonl`.
fn run_traced(w: &Workload, args: &Args) -> Result<Json, String> {
    let outcome = (w.trace)(w, args.seed, Scale::Full);
    let result = metrics::result_object(
        w.name,
        &metrics::tables().per_layer,
        &outcome.metrics,
        outcome.attempted,
        outcome.failed,
    )?;
    let spans = args.out.join(format!("trace_{}.jsonl", w.name));
    outcome
        .tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    let mut record = record_head(w, args, true);
    record.extend([
        ("blocks", Json::uint(traced::BLOCKS)),
        ("spans", Json::Str(spans.display().to_string())),
        ("result", result.clone()),
        (
            "diagnostics",
            Json::Object(
                outcome
                    .diagnostics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Float(v)))
                    .collect(),
            ),
        ),
    ]);
    suite::write_record(
        &args.out,
        &format!("{}.trace.json", w.name),
        &Json::obj(record),
    )?;
    Ok(result)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_window: {e}");
            eprintln!(
                "usage: e2e_window [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                 [--repeat N] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.trace, args.repeat) {
        (Some(name), Some(trace), 1) => {
            let w = workloads::by_name(name).expect("validated by parse_args");
            // The whole run, threads of the system under test included,
            // keeps to two CPUs — one on a host that has only two.
            args.cpus = host::confine();
            let result = if trace {
                run_traced(w, &args)
            } else {
                run_measured(w, &args)
            };
            // The result object is the last line of stdout.
            result.map(|json| println!("{json}"))
        }
        _ => suite::run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e_window: {e}");
            ExitCode::FAILURE
        }
    }
}
