//! Per-link loss-rate estimation.

/// Estimates the loss rate of a blamed link from the (sent, lost) counters
/// of the paths it explains.
///
/// Under the attribution made by the greedy — each explained path's losses
/// happened on this link — the maximum-likelihood estimate of a Bernoulli
/// drop probability is total lost over total sent.
pub(crate) fn estimate_rate(samples: &[(u64, u64)]) -> f64 {
    let sent: u64 = samples.iter().map(|&(s, _)| s).sum();
    let lost: u64 = samples.iter().map(|&(_, l)| l).sum();
    pooled_rate(sent, lost)
}

/// [`estimate_rate`] from the samples' summed counters.
pub(crate) fn pooled_rate(sent: u64, lost: u64) -> f64 {
    if sent == 0 {
        return 0.0;
    }
    (lost as f64 / sent as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_estimate() {
        let r = estimate_rate(&[(100, 10), (300, 50)]);
        assert!((r - 60.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_zero_sent_are_zero() {
        assert_eq!(estimate_rate(&[]), 0.0);
        assert_eq!(estimate_rate(&[(0, 0)]), 0.0);
    }

    #[test]
    fn full_loss_is_one() {
        assert_eq!(estimate_rate(&[(50, 50)]), 1.0);
    }
}
