//! The metric tables: names, units and regression bounds. They are stated
//! once, in `BENCHMARK.json` at the repository root — the file the
//! benchmark driver reads — and compiled into the program from there, so
//! what the program prints and what the driver expects cannot drift.

use std::sync::OnceLock;

use detector_core::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A metric a user of the system would see; `bound` is the share of the
/// parent commit's median by which it may get worse.
#[derive(Clone, Debug)]
pub struct EndToEndMetric {
    pub name: String,
    pub unit: String,
    pub bound: f64,
}

/// What `BENCHMARK.json` says.
pub struct Tables {
    /// Length of the measured phase of a run, seconds.
    pub run_seconds: f64,
    /// The same five on every workload. Timings are in host-calibrated
    /// units (see `calib.rs`); `peak_rss_mb` is as the kernel reports it.
    pub end_to_end: Vec<EndToEndMetric>,
    /// The metrics of single layers, from the traced run, as `(name,
    /// unit)`; layer = module name. They have no bound: they say where an
    /// end-to-end change came from, they do not gate one. Every traced
    /// run reports all of them; a metric of a layer the workload never
    /// enters reads 0. Timings are in host-calibrated units.
    pub per_layer: Vec<(String, String)>,
}

pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json states the metric tables"))
}

fn parse(text: &str) -> Result<Tables, String> {
    let json = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let list = |key: &str| {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("no list {key}"))
    };
    let text_of = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("an entry without {key}"))
    };
    Ok(Tables {
        run_seconds: json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no run_seconds")?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(EndToEndMetric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    bound: m.get("bound").and_then(Json::as_f64).ok_or("no bound")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Result<_, String>>()?,
    })
}

/// Prints every metric as `workload name value unit` and builds the
/// result object the benchmark contract asks for as the last line of
/// stdout. Every name of `table` must have a finite value.
pub fn result_object(
    workload: &str,
    table: &[(String, String)],
    values: &[(&str, f64)],
    attempted: u64,
    failed: u64,
) -> Result<Json, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        println!("{workload} {name} {value} {unit}");
        metrics.push((
            name.clone(),
            Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.clone())),
            ]),
        ));
    }
    println!("{workload} ops {attempted} count");
    println!("{workload} failed {failed} count");
    Ok(Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::uint(attempted)),
        ("failed", Json::uint(failed)),
        ("metrics", Json::Object(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_this_program() {
        let t = tables();
        let json = Json::parse(BENCHMARK_JSON).expect("JSON");
        let listed: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
        assert!(t.run_seconds >= 1.0);
        assert!(t.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(t
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(!t.per_layer.is_empty());
        assert!(parse("{}").is_err());
    }

    #[test]
    fn result_object_refuses_missing_and_non_finite_metrics() {
        let table = [("a", "ms"), ("b", "count")].map(|(n, u)| (n.to_string(), u.to_string()));
        assert!(result_object("w", &table, &[("a", 1.0)], 1, 0).is_err());
        assert!(result_object("w", &table, &[("a", 1.0), ("b", f64::NAN)], 1, 0).is_err());
        let ok = result_object("w", &table, &[("b", 2.0), ("a", 1.5)], 10, 1).expect("complete");
        assert_eq!(ok.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(ok.get("attempted").and_then(Json::as_u64), Some(10));
        let a = ok.get("metrics").and_then(|m| m.get("a")).expect("a");
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(1.5));
    }
}
