//! End-to-end probing observations consumed by the localization algorithms.

use super::PathId;

/// Aggregated probing result for one probe path over one collection window.
///
/// Pingers aggregate per-path counters every 30 seconds (§6.1 of the paper)
/// and ship them to the diagnoser; this is the wire format of one row of
/// such a report after it has been keyed to a probe-matrix path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathObservation {
    /// The probe path the counters refer to.
    pub path: PathId,
    /// Number of probes sent on the path in the window.
    pub sent: u64,
    /// Number of probes lost (no response within the timeout).
    pub lost: u64,
}

impl PathObservation {
    /// Creates an observation, clamping `lost` to `sent`.
    pub fn new(path: PathId, sent: u64, lost: u64) -> Self {
        Self {
            path,
            sent,
            lost: lost.min(sent),
        }
    }

    /// Fraction of probes lost, or 0.0 when nothing was sent.
    #[inline]
    pub fn loss_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }

    /// Returns true if at least one probe was lost.
    #[inline]
    pub fn is_lossy(&self) -> bool {
        self.lost > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_is_clamped_to_sent() {
        let o = PathObservation::new(PathId(0), 10, 25);
        assert_eq!(o.lost, 10);
        assert!((o.loss_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn loss_ratio_of_clean_path_is_zero() {
        let o = PathObservation::new(PathId(0), 100, 0);
        assert_eq!(o.loss_ratio(), 0.0);
        assert!(!o.is_lossy());
    }

    #[test]
    fn loss_ratio_handles_zero_sent() {
        let o = PathObservation::new(PathId(0), 0, 0);
        assert_eq!(o.loss_ratio(), 0.0);
    }
}
