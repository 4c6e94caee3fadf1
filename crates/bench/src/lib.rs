//! # detector-bench
//!
//! The evaluation harness: one binary per table/figure of the paper
//! (§4.4, §6.3, §6.4). This library holds the shared experiment
//! machinery: the episode drivers every accuracy number comes from, and
//! plain-text table rendering.
//!
//! Binaries (run with `cargo run -p detector-bench --release --bin <name>`):
//!
//! | target               | reproduces                                        |
//! |----------------------|---------------------------------------------------|
//! | `table2`             | PMC running time per optimization (Table 2)        |
//! | `table3`             | # selected paths per (α, β) (Table 3)              |
//! | `table4`             | localization accuracy vs (α, β), Fattree(18) (Table 4) |
//! | `table5`             | accuracy/FP/FN with (1,2), Fattree(48) (Table 5)   |
//! | `fig4`               | probe-frequency sensitivity (Fig. 4a–d)            |
//! | `fig5`               | deTector vs Pingmesh vs NetNORAD, single failure (Fig. 5) |
//! | `fig6`               | same comparison, multiple failures (Fig. 6)        |
//! | `pll_compare`        | PLL vs Tomo/SCORE/OMP (§5.3 / technical report)    |
//! | `latency`            | failure to named link, deTector vs Pingmesh (§6.3) |
//! | `ablation_hit_ratio` | PLL's hit-ratio threshold τ (§5.3 / technical report) |
//! | `storm_stages`       | a storm window's decode / ingest / diagnose split (see `README.md`) |
//!
//! Every binary honours `DETECTOR_BENCH_SCALE` (`quick` | `paper`,
//! default `quick`): `quick` shrinks topology sizes and episode counts to
//! keep a full sweep under a few minutes; `paper` uses the paper's sizes
//! where they are feasible on one machine.

use detector_baselines::{fbtracert_localize, netbouncer_localize, BaselineKind, BaselineSystem};
use detector_core::pll::{evaluate_diagnosis, LocalizationMetrics};
use detector_core::types::LinkId;
use detector_simnet::{Fabric, FailureGenerator, FailureScenario};
use detector_system::{Detector, SharedTopology, SystemConfig, WindowResult};
use detector_topology::DcnTopology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Fraction of failures that clear before a baseline's post-alarm
/// localization round can probe them (transient failures: bit errors,
/// non-atomic rule updates, in-progress upgrades — §2).
const TRANSIENT_FRACTION: f64 = 0.2;

/// What a run of episodes adds up to: the scored windows' metrics,
/// micro-averaged, and every probe the episodes sent.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    /// Accuracy, false positives and false negatives over the episodes.
    pub metrics: LocalizationMetrics,
    /// Probes sent across every window of every episode.
    pub probes_sent: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Self {
            metrics: LocalizationMetrics::zero(),
            probes_sent: 0,
        }
    }
}

impl Tally {
    fn score(&mut self, blamed: &[LinkId], truth: &[LinkId], probes_sent: u64) {
        self.metrics.accumulate(&evaluate_diagnosis(blamed, truth));
        self.probes_sent += probes_sent;
    }
}

/// A fabric with `scenario` injected over background loss seeded by
/// `noise_seed`, or over none.
fn fabric<'a>(
    topo: &'a (dyn DcnTopology + Sync),
    scenario: &FailureScenario,
    noise_seed: Option<u64>,
) -> Fabric<'a> {
    let mut fabric = noise_seed.map_or_else(|| Fabric::quiet(topo), |s| Fabric::new(topo, s));
    fabric.apply_scenario(scenario);
    fabric
}

/// The episode driver: a booted [`Detector`] stepped over a [`Fabric`],
/// one failure scenario at a time. Its deployment persists across
/// episodes, as a running system's does.
pub struct Episodes {
    topo: SharedTopology,
    /// The deployment every episode steps.
    pub run: Detector,
    /// What the episodes so far add up to.
    pub tally: Tally,
}

impl Episodes {
    /// Boots a detector at `cfg`.
    pub fn boot(topo: SharedTopology, cfg: SystemConfig) -> Self {
        let run = Detector::new(topo.clone(), cfg).expect("the bench configuration must boot");
        Self {
            topo,
            run,
            tally: Tally::default(),
        }
    }

    /// Boots at `cfg` with the probe rate that sends `probes_per_path`
    /// probes down each deployed path a window. The controller gives
    /// every path to `pingers_per_tor` pingers of its source ToR, so the
    /// longest pinglist must be swept `probes_per_path / pingers_per_tor`
    /// times.
    pub fn per_path(topo: SharedTopology, cfg: SystemConfig, probes_per_path: u32) -> Self {
        let sizing =
            Detector::new(topo.clone(), cfg.clone()).expect("the bench configuration must boot");
        let entries = sizing.pinglists().iter().map(|l| l.entries.len()).max();
        let window = (cfg.pingers_per_tor as u64 * cfg.window_s) as f64;
        let rate = f64::from(probes_per_path) * entries.unwrap_or(1) as f64 / window;
        Self::boot(topo, cfg.with_rate(rate))
    }

    /// One episode: injects `scenario` into a fabric with background
    /// loss from `noise_seed` (quiet without one), steps the detector
    /// `windows` times (at least once) over it, scores the last window's
    /// diagnosis and returns that window.
    pub fn episode(
        &mut self,
        scenario: &FailureScenario,
        noise_seed: Option<u64>,
        windows: usize,
        rng: &mut SmallRng,
    ) -> WindowResult {
        let fabric = fabric(&*self.topo, scenario, noise_seed);
        let mut last = self.run.step(&fabric, rng);
        let mut probes = last.probes_sent;
        for _ in 1..windows {
            last = self.run.step(&fabric, rng);
            probes += last.probes_sent;
        }
        let truth = scenario.ground_truth(self.topo.as_ref());
        self.tally
            .score(&last.diagnosis.suspect_links(), &truth, probes);
        last
    }

    /// Restarts the tally and runs `episodes` one-window episodes of
    /// `n_failures` failures drawn from `gen`; with `noisy`, each
    /// episode's background loss is seeded from `seed` and its index.
    /// Returns the campaign's metrics.
    pub fn campaign(
        &mut self,
        gen: &FailureGenerator,
        n_failures: usize,
        episodes: usize,
        seed: u64,
        noisy: bool,
    ) -> LocalizationMetrics {
        self.tally = Tally::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        for e in 0..episodes {
            let scenario = gen.sample(self.topo.as_ref(), n_failures, &mut rng);
            let noise = noisy.then_some(seed ^ (e as u64) << 17);
            self.episode(&scenario, noise, 1, &mut rng);
        }
        self.tally.metrics
    }
}

/// The baselines' episode driver: a Pingmesh or NetNORAD deployment
/// that detects, then localizes in an extra round.
pub struct BaselineEpisodes<'a> {
    topo: &'a (dyn DcnTopology + Sync),
    system: BaselineSystem<'a>,
    /// What the episodes so far add up to.
    pub tally: Tally,
}

impl<'a> BaselineEpisodes<'a> {
    /// Episodes of `system`, deployed over `topo`.
    pub fn new(topo: &'a (dyn DcnTopology + Sync), system: BaselineSystem<'a>) -> Self {
        Self {
            topo,
            system,
            tally: Tally::default(),
        }
    }

    /// One episode: injects `scenario` over background loss from
    /// `noise_seed`, runs `windows` detection windows of `budget` probes,
    /// clears the failure if it is transient, localizes the last
    /// window's suspects with half a window's budget in round trips
    /// (Netbouncer after Pingmesh, fbtracert after NetNORAD) and scores
    /// the links blamed.
    pub fn episode(
        &mut self,
        scenario: &FailureScenario,
        noise_seed: u64,
        windows: usize,
        budget: u64,
        rng: &mut SmallRng,
    ) {
        let mut fabric = fabric(self.topo, scenario, Some(noise_seed));
        let (mut probes, mut suspects) = (0, Vec::new());
        for _ in 0..windows {
            let detected = self.system.detect_window(&fabric, budget, rng);
            probes += detected.probes_used;
            if !detected.suspects.is_empty() {
                suspects = detected.suspects;
            }
        }
        // The localization round is one more window of wall-clock time,
        // by which a transient failure is gone.
        if rng.gen::<f64>() < TRANSIENT_FRACTION {
            fabric.clear_failures();
        }
        let (cfg, topo) = (self.system.config(), self.topo);
        let diag = match self.system.kind() {
            BaselineKind::Pingmesh => {
                netbouncer_localize(topo, &fabric, &suspects, cfg, budget / 2, rng)
            }
            BaselineKind::NetNorad { .. } => {
                fbtracert_localize(topo, &fabric, &suspects, cfg, budget / 2, rng)
            }
        };
        let truth = scenario.ground_truth(topo);
        self.tally
            .score(&diag.links, &truth, probes + diag.probes_used);
    }
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
    use detector_baselines::BaselineConfig;
    use detector_core::pmc::PmcConfig;
    use detector_topology::Fattree;
    use std::sync::Arc;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn quiet_window_at_the_per_path_rate_observes_every_path() {
        // A (1,2) plan sources Fattree(8)'s paths from three ToRs, so one
        // ToR's pingers hold 359 entries each: a rate that cannot sweep
        // them all leaves the same paths unprobed in every window.
        let cfg = SystemConfig::default().with_pmc(PmcConfig::new(1, 2));
        let mut ep = Episodes::per_path(Arc::new(Fattree::new(8).unwrap()), cfg, 30);
        let mut rng = SmallRng::seed_from_u64(7);
        let w = ep.episode(&FailureScenario::default(), None, 1, &mut rng);
        assert_eq!(w.num_observations, ep.run.matrix().num_paths());
        assert_eq!(ep.run.observations(w.window).len(), w.num_observations);
        assert!(w.diagnosis.suspect_links().is_empty());
        assert_eq!(ep.tally.probes_sent, w.probes_sent);
    }

    #[test]
    fn episode_names_an_injected_failure() {
        let cfg = SystemConfig::default().with_pmc(PmcConfig::new(3, 1));
        let mut ep = Episodes::per_path(Arc::new(Fattree::new(4).unwrap()), cfg, 10);
        let mut rng = SmallRng::seed_from_u64(1);
        let scenario = FailureScenario::single_link(LinkId(0));
        let w = ep.episode(&scenario, None, 2, &mut rng);
        assert_eq!(ep.tally.metrics.true_positives, 1, "{:?}", ep.tally);
        assert!(ep.tally.probes_sent > w.probes_sent, "both windows count");
    }

    #[test]
    fn campaign_restarts_the_tally_and_accumulates() {
        let cfg = SystemConfig::default().with_pmc(PmcConfig::new(3, 1));
        let mut ep = Episodes::per_path(Arc::new(Fattree::new(4).unwrap()), cfg, 10);
        let gen = FailureGenerator::links_only().with_min_rate(0.05);
        let first = ep.campaign(&gen, 1, 5, 42, true);
        assert_eq!(first.true_positives + first.false_negatives, 5);
        assert!(first.accuracy > 0.5, "metrics: {first:?}");
        assert_eq!(ep.campaign(&gen, 1, 5, 42, true), first);
    }

    #[test]
    fn baseline_episode_scores_detection_and_localization() {
        let ft = Fattree::new(4).unwrap();
        let system = BaselineSystem::pingmesh(&ft, BaselineConfig::default());
        let mut pm = BaselineEpisodes::new(&ft, system);
        let mut rng = SmallRng::seed_from_u64(3);
        let scenario = FailureScenario::single_link(ft.ea_link(0, 0, 0));
        pm.episode(&scenario, 9, 1, 4000, &mut rng);
        let m = pm.tally.metrics;
        assert_eq!(m.true_positives + m.false_negatives, 1);
        assert!(pm.tally.probes_sent >= 4000, "{:?}", pm.tally);
    }
}
