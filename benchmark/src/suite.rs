//! Suite mode: every workload in a child process of its own (so peak RSS
//! and allocator state never leak between workloads), untraced then
//! traced, `--repeat N` times, plus the repeatability check.

use std::path::Path;
use std::process::{Command, Stdio};

use detector_core::json::Json;

use crate::metrics::tables;
use crate::stats::{max_pairwise_rel_diff, median};
use crate::{workloads, Args};

pub fn write_record(dir: &Path, file: &str, record: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs one workload in a child process and returns its result object.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Everything but the result object is the child's metric listing.
    let (listing, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !listing.is_empty() {
        println!("{listing}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, out.status
        ));
    }
    Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run(args: &Args) -> Result<(), String> {
    let selected: Vec<&str> = workloads::ALL
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|only| only == *n))
        .collect();
    let modes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut runs = Vec::new();
    let mut any_failed = false;
    for rep in 0..args.repeat {
        if args.repeat > 1 {
            println!("# repeat {}/{}", rep + 1, args.repeat);
        }
        let mut results = Vec::new();
        for &trace in modes {
            for name in &selected {
                let result = child(args, name, trace)?;
                any_failed |= result.get("correct").and_then(Json::as_bool) != Some(true);
                results.push(Json::obj(vec![
                    ("workload", Json::Str(name.to_string())),
                    ("trace", Json::Bool(trace)),
                    ("result", result),
                ]));
            }
        }
        runs.push(Json::Array(results));
    }

    let mut excess = false;
    let mut table = Vec::new();
    if args.repeat > 1 && modes.contains(&false) {
        println!("# repeatability: max pairwise relative difference of the run medians vs bound");
        println!("# workload metric median max_rel_diff bound verdict");
        for name in &selected {
            for m in &tables().end_to_end {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(Json::as_array)
                    .flat_map(|results| results.iter())
                    .filter(|r| {
                        r.get("workload").and_then(Json::as_str) == Some(name)
                            && r.get("trace").and_then(Json::as_bool) == Some(false)
                    })
                    .filter_map(|r| metric_value(r.get("result")?, &m.name))
                    .collect();
                let diff = max_pairwise_rel_diff(&values);
                let ok = diff <= m.bound;
                excess |= !ok;
                println!(
                    "{name} {} {:.4} {:.4} {:.2} {}",
                    m.name,
                    median(&values),
                    diff,
                    m.bound,
                    if ok { "ok" } else { "EXCESS" }
                );
                table.push(Json::obj(vec![
                    ("workload", Json::Str(name.to_string())),
                    ("metric", Json::Str(m.name.clone())),
                    ("median", Json::Float(median(&values))),
                    ("max_rel_diff", Json::Float(diff)),
                    ("bound", Json::Float(m.bound)),
                ]));
            }
        }
    }

    let record = Json::obj(vec![
        ("benchmark", Json::Str("e2e_window".into())),
        ("host", crate::host::fingerprint(args.seed, None)),
        ("seconds", Json::Float(args.seconds)),
        ("calib_ref_ms", Json::Float(crate::calib::CALIB_REF_MS)),
        ("runs", Json::Array(runs)),
        ("repeatability", Json::Array(table)),
    ]);
    write_record(&args.out, "e2e_window.json", &record)?;
    if any_failed {
        return Err("a workload reported failed operations".into());
    }
    if excess {
        return Err("runs of the same code disagree by more than a metric's bound".into());
    }
    Ok(())
}
