//! Loss-type classification (§7, "Loss diagnosis").
//!
//! The paper points out that the four loss patterns — full loss,
//! deterministic partial loss (blackholes matching specific headers),
//! random partial loss (bit errors, buffer overflow) and congestion-level
//! noise — "exhibit different loss characteristics" and that telling them
//! apart narrows the operator's diagnosis scope. The distinguishing
//! statistic is the *per-flow* loss profile on the suspect link:
//!
//! * full loss — every flow loses everything;
//! * deterministic partial — **bimodal**: a flow is either entirely inside
//!   the blackhole (≈100 % loss) or entirely outside (≈0 %);
//! * random partial — every flow loses at a similar intermediate rate;
//! * congestion/noise — a uniformly low rate.

/// Per-flow probing counters on paths attributed to one suspect link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSample {
    /// Flow discriminator (e.g. the probe source port).
    pub flow: u64,
    /// Probes sent on this flow.
    pub sent: u64,
    /// Probes lost on this flow.
    pub lost: u64,
}

impl FlowSample {
    /// Creates a sample, clamping `lost` to `sent`.
    pub fn new(flow: u64, sent: u64, lost: u64) -> Self {
        Self {
            flow,
            sent,
            lost: lost.min(sent),
        }
    }

    fn rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }
}

/// The inferred loss pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossType {
    /// All flows lose (nearly) everything: link down, dead port.
    Full,
    /// Bimodal per-flow fates: packet blackhole / misconfigured rule.
    DeterministicPartial,
    /// Uniform intermediate per-flow loss: bit flips, CRC errors,
    /// overflow.
    RandomPartial,
    /// Uniformly low rate: transient congestion or background noise, not
    /// a failure.
    Congestion,
}

/// A classification with its supporting statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossClassification {
    /// The inferred pattern.
    pub loss_type: LossType,
    /// Pooled loss rate over all flows.
    pub overall_rate: f64,
    /// Fraction of flows losing ≥ 90 %.
    pub high_loss_flows: f64,
    /// Fraction of flows losing ≤ 10 %.
    pub low_loss_flows: f64,
    /// Number of flows observed.
    pub flows: usize,
}

/// Classification thresholds (documented defaults; tune from operator
/// experience like the hit-ratio threshold, §5.3).
#[derive(Clone, Copy, Debug)]
pub struct ClassifyConfig {
    /// Overall rate at or above which the loss is "full".
    pub full_rate: f64,
    /// Overall rate at or below which the loss is congestion/noise.
    pub congestion_rate: f64,
    /// A flow is "high loss" at or above this rate.
    pub high_flow_rate: f64,
    /// A flow is "low loss" at or below this rate.
    pub low_flow_rate: f64,
    /// Bimodality: high+low flow fractions needed to call a blackhole.
    pub bimodal_mass: f64,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        Self {
            full_rate: 0.95,
            congestion_rate: 0.01,
            high_flow_rate: 0.9,
            low_flow_rate: 0.1,
            bimodal_mass: 0.9,
        }
    }
}

/// Classifies the loss pattern behind a suspect link from per-flow
/// samples of the paths it explains.
///
/// Returns `None` when there is no evidence (no flows with sent > 0).
pub fn classify_loss(samples: &[FlowSample], cfg: &ClassifyConfig) -> Option<LossClassification> {
    let observed: Vec<&FlowSample> = samples.iter().filter(|s| s.sent > 0).collect();
    if observed.is_empty() {
        return None;
    }
    let sent: u64 = observed.iter().map(|s| s.sent).sum();
    let lost: u64 = observed.iter().map(|s| s.lost).sum();
    let overall = lost as f64 / sent as f64;

    let n = observed.len() as f64;
    let high = observed
        .iter()
        .filter(|s| s.rate() >= cfg.high_flow_rate)
        .count() as f64
        / n;
    let low = observed
        .iter()
        .filter(|s| s.rate() <= cfg.low_flow_rate)
        .count() as f64
        / n;

    let loss_type = if overall >= cfg.full_rate {
        LossType::Full
    } else if overall <= cfg.congestion_rate {
        LossType::Congestion
    } else if high > 0.0 && low > 0.0 && high + low >= cfg.bimodal_mass {
        LossType::DeterministicPartial
    } else {
        LossType::RandomPartial
    };
    Some(LossClassification {
        loss_type,
        overall_rate: overall,
        high_loss_flows: high,
        low_loss_flows: low,
        flows: observed.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClassifyConfig {
        ClassifyConfig::default()
    }

    #[test]
    fn full_loss_is_classified() {
        let samples: Vec<FlowSample> = (0..16).map(|f| FlowSample::new(f, 10, 10)).collect();
        let c = classify_loss(&samples, &cfg()).unwrap();
        assert_eq!(c.loss_type, LossType::Full);
        assert!((c.overall_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blackhole_is_bimodal() {
        // Half the flows fully blackholed, half clean.
        let mut samples = Vec::new();
        for f in 0..8 {
            samples.push(FlowSample::new(f, 10, 10));
        }
        for f in 8..16 {
            samples.push(FlowSample::new(f, 10, 0));
        }
        let c = classify_loss(&samples, &cfg()).unwrap();
        assert_eq!(c.loss_type, LossType::DeterministicPartial);
        assert!((c.high_loss_flows - 0.5).abs() < 1e-12);
        assert!((c.low_loss_flows - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_partial_is_uniform_intermediate() {
        // Every flow loses ~30%.
        let samples: Vec<FlowSample> = (0..16).map(|f| FlowSample::new(f, 20, 6)).collect();
        let c = classify_loss(&samples, &cfg()).unwrap();
        assert_eq!(c.loss_type, LossType::RandomPartial);
    }

    #[test]
    fn low_rate_is_congestion() {
        let mut samples: Vec<FlowSample> = (0..99).map(|f| FlowSample::new(f, 100, 0)).collect();
        samples.push(FlowSample::new(99, 100, 50));
        let c = classify_loss(&samples, &cfg()).unwrap();
        assert_eq!(c.loss_type, LossType::Congestion);
    }

    #[test]
    fn empty_evidence_is_none() {
        assert!(classify_loss(&[], &cfg()).is_none());
        assert!(classify_loss(&[FlowSample::new(0, 0, 0)], &cfg()).is_none());
    }

    #[test]
    fn lost_clamps_to_sent() {
        let s = FlowSample::new(0, 5, 50);
        assert_eq!(s.lost, 5);
    }
}
