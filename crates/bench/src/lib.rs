//! # detector-bench
//!
//! The evaluation harness: one binary per table/figure of the paper
//! (§4.4, §6.3, §6.4). This library holds the shared experiment
//! machinery: matrix-level probing simulation, accuracy campaigns, and
//! plain-text table rendering.
//!
//! Binaries (run with `cargo run -p detector-bench --release --bin <name>`):
//!
//! | target        | reproduces                                            |
//! |---------------|--------------------------------------------------------|
//! | `table2`      | PMC running time per optimization (Table 2)             |
//! | `table3`      | # selected paths per (α, β) (Table 3)                   |
//! | `table4`      | localization accuracy vs (α, β), Fattree(18) (Table 4)  |
//! | `table5`      | accuracy/FP/FN with (1,2), Fattree(48) (Table 5)        |
//! | `fig4`        | probe-frequency sensitivity (Fig. 4a–d)                 |
//! | `fig5`        | deTector vs Pingmesh vs NetNORAD, single failure (Fig.5)|
//! | `fig6`        | same comparison, multiple failures (Fig. 6)             |
//! | `pll_compare` | PLL vs Tomo/SCORE/OMP (§5.3 / technical report)         |
//!
//! Every binary honours `DETECTOR_BENCH_SCALE` (`quick` | `paper`,
//! default `quick`): `quick` shrinks topology sizes and episode counts to
//! keep a full sweep under a few minutes; `paper` uses the paper's sizes
//! where they are feasible on one machine.

use detector_core::pll::{
    evaluate_diagnosis, LocalizationMetrics, Localizer, PllConfig, PllLocalizer,
};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::PathObservation;
use detector_simnet::{Fabric, FailureGenerator, FailureScenario, FlowKey};
use detector_topology::DcnTopology;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Bench scale selected via `DETECTOR_BENCH_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly sizes (default).
    Quick,
    /// The paper's sizes where feasible.
    Paper,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("DETECTOR_BENCH_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }
}

/// The PLL configuration the campaigns use: with loss-confirmation
/// re-probes in place (below), a path that lost only a single packet in a
/// window is background noise (1e-4..1e-5 per link, §5.1) — a real
/// failure always re-drops at least one confirmation. `min_loss_count: 2`
/// encodes exactly that, mirroring the paper's pre-processing threshold
/// "on the number of packet losses in a period of time".
pub fn bench_pll() -> PllConfig {
    PllConfig {
        min_loss_count: 2,
        ..PllConfig::default()
    }
}

/// The PLL localizer the campaigns use, as a trait object-compatible
/// value (see [`bench_pll`] for the configuration rationale).
pub fn bench_localizer() -> PllLocalizer {
    PllLocalizer::new(bench_pll())
}

/// Simulates one observation window directly over the probe matrix:
/// every path is probed `probes_per_path` times with a sweep of source
/// ports (packet entropy), both directions of every link exercised via
/// the echoed reply. Each loss is confirmed with two same-content
/// re-probes, as the pinger does (§3.1).
pub fn probe_matrix_window(
    topo: &(dyn DcnTopology + Sync),
    matrix: &ProbeMatrix,
    fabric: &Fabric<'_>,
    probes_per_path: u32,
    rng: &mut SmallRng,
) -> Vec<PathObservation> {
    let graph = topo.graph();
    let mut out = Vec::with_capacity(matrix.paths.len());
    for path in &matrix.paths {
        let Some(route) = graph.route_from_nodes(path.nodes().to_vec()) else {
            continue;
        };
        let src = route.nodes[0].0;
        let dst = route.nodes[route.nodes.len() - 1].0;
        let mut sent = 0u64;
        let mut lost = 0u64;
        for i in 0..probes_per_path {
            let flow = FlowKey::udp(src, dst, 33_000 + (i as u16 % 64), 53_533);
            let rt = fabric.round_trip(&route, flow, rng);
            sent += 1;
            if !rt.success {
                lost += 1;
                // Confirm the loss pattern (§3.1): same content, twice.
                for _ in 0..2 {
                    sent += 1;
                    if !fabric.round_trip(&route, flow, rng).success {
                        lost += 1;
                    }
                }
            }
        }
        out.push(PathObservation::new(path.id, sent, lost));
    }
    out
}

/// One accuracy episode: inject `scenario`, probe the matrix, localize
/// through the given [`Localizer`], compare against ground truth.
pub fn episode_metrics(
    topo: &(dyn DcnTopology + Sync),
    matrix: &ProbeMatrix,
    scenario: &FailureScenario,
    probes_per_path: u32,
    localizer: &dyn Localizer,
    noise_seed: Option<u64>,
    rng: &mut SmallRng,
) -> LocalizationMetrics {
    let mut fabric = match noise_seed {
        Some(s) => Fabric::new(topo, s),
        None => Fabric::quiet(topo),
    };
    fabric.apply_scenario(scenario);
    let obs = probe_matrix_window(topo, matrix, &fabric, probes_per_path, rng);
    let diagnosis = localizer.localize(matrix, &obs);
    evaluate_diagnosis(&diagnosis.suspect_links(), &scenario.ground_truth(topo))
}

/// Runs an accuracy campaign: `episodes` random scenarios with
/// `n_failures` simultaneous failures each, micro-averaged. Any
/// [`Localizer`] — PLL, a tomography baseline, or a baseline inference —
/// slots in through the same trait object.
#[allow(clippy::too_many_arguments)]
pub fn accuracy_campaign(
    topo: &(dyn DcnTopology + Sync),
    matrix: &ProbeMatrix,
    gen: &FailureGenerator,
    n_failures: usize,
    episodes: usize,
    probes_per_path: u32,
    localizer: &dyn Localizer,
    seed: u64,
) -> LocalizationMetrics {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut acc = LocalizationMetrics::zero();
    for e in 0..episodes {
        let scenario = gen.sample(topo, n_failures, &mut rng);
        let m = episode_metrics(
            topo,
            matrix,
            &scenario,
            probes_per_path,
            localizer,
            Some(seed ^ (e as u64) << 17),
            &mut rng,
        );
        acc.accumulate(&m);
    }
    acc
}

/// Minimal fixed-width table printer for bench output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", c, w = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

/// Formats a duration like the paper's Table 2 (seconds with millis).
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::pmc::{construct, PmcConfig};
    use detector_core::types::LinkId;
    use detector_topology::Fattree;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn probe_window_detects_injected_failure() {
        let ft = Fattree::new(4).unwrap();
        let matrix = construct(
            ft.probe_links(),
            ft.enumerate_candidates(),
            &PmcConfig::new(3, 1),
        )
        .unwrap();
        let scenario = FailureScenario::single_link(LinkId(0));
        let mut rng = SmallRng::seed_from_u64(1);
        let m = episode_metrics(
            &ft,
            &matrix,
            &scenario,
            10,
            &PllLocalizer::default(),
            None,
            &mut rng,
        );
        assert_eq!(m.true_positives, 1, "metrics: {m:?}");
    }

    #[test]
    fn campaign_accumulates() {
        let ft = Fattree::new(4).unwrap();
        let matrix = construct(
            ft.probe_links(),
            ft.enumerate_candidates(),
            &PmcConfig::new(3, 1),
        )
        .unwrap();
        let gen = FailureGenerator::links_only().with_min_rate(0.05);
        let m = accuracy_campaign(&ft, &matrix, &gen, 1, 5, 10, &PllLocalizer::default(), 42);
        assert!(m.true_positives + m.false_negatives == 5);
        assert!(m.accuracy > 0.5, "metrics: {m:?}");
    }
}
