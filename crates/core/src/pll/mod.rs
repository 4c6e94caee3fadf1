//! Packet Loss Localization (PLL) — §5 of the paper — and the binary
//! network-tomography baselines it is compared against.
//!
//! Given the probe matrix and one window of end-to-end loss observations,
//! PLL finds the smallest set of faulty links that best explains the
//! observations, robustly to the two data-center loss patterns the paper
//! calls out: *full* packet loss and *partial* packet loss (where only a
//! subset of paths through a link see drops, e.g. packet blackholes). The
//! key device is a per-link **hit ratio** — the fraction of observed probe
//! paths through the link that were lossy — used to filter suspects before
//! the greedy cover, which classic tomography (Tomo) lacks.

mod classify;
pub mod components;
mod localizer;
mod metrics;
mod omp;
mod pll_impl;
mod preprocess;
mod rate;
mod score_alg;
mod tomo;

pub use classify::{classify_loss, ClassifyConfig, FlowSample, LossClassification, LossType};
pub use components::{ComponentPll, LossyIncidence};
pub use localizer::{Localizer, OmpLocalizer, PllLocalizer, ScoreLocalizer, TomoLocalizer};
pub use metrics::{evaluate_diagnosis, LocalizationMetrics};
pub use omp::{localize_omp, OmpConfig};
pub use pll_impl::{localize, Diagnosis, SuspectLink};
pub use preprocess::preprocess;
pub use score_alg::localize_score;
pub use tomo::localize_tomo;

/// Configuration of the PLL algorithm and its pre-processing stage.
#[derive(Clone, Copy, Debug)]
pub struct PllConfig {
    /// Minimum fraction of lossy paths through a link for the link to be a
    /// suspect (the paper's default is 0.6).
    pub hit_ratio_threshold: f64,
    /// Paths with a loss ratio below this are treated as clean — links have
    /// a normal background loss rate of 1e-4..1e-5 that must not raise
    /// alarms (§5.1; the paper filters at 1e-3).
    pub loss_ratio_filter: f64,
    /// Paths with fewer lost packets than this are treated as clean.
    pub min_loss_count: u64,
}

impl Default for PllConfig {
    fn default() -> Self {
        Self {
            hit_ratio_threshold: 0.6,
            loss_ratio_filter: 1e-3,
            min_loss_count: 1,
        }
    }
}

impl PllConfig {
    /// Overrides the hit-ratio threshold.
    pub fn with_hit_ratio(mut self, t: f64) -> Self {
        self.hit_ratio_threshold = t;
        self
    }
}
