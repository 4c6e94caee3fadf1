//! Data pre-processing (§5.1): outlier removal and noise filtering.

use std::collections::HashSet;

use super::PllConfig;
use crate::types::{PathId, PathObservation};

/// Cleans one window of observations before localization.
///
/// * Observations from `excluded` paths (e.g. probes from servers the
///   watchdog flagged as down or rebooting) are dropped entirely — they
///   carry no evidence either way.
/// * Paths whose loss is below the noise thresholds are normalized to
///   zero losses: a regular 1e-4..1e-5 background loss rate is not a
///   failure and must not feed the localizer.
/// * Observations with `sent == 0` are dropped.
pub fn preprocess(
    observations: &[PathObservation],
    cfg: &PllConfig,
    excluded: &HashSet<PathId>,
) -> Vec<PathObservation> {
    let mut out = Vec::with_capacity(observations.len());
    for o in observations {
        if o.sent == 0 || excluded.contains(&o.path) {
            continue;
        }
        out.push(PathObservation {
            path: o.path,
            sent: o.sent,
            lost: if is_noise(o, cfg) { 0 } else { o.lost },
        });
    }
    out
}

/// Whether `o`'s loss is below the noise thresholds, which [`preprocess`]
/// normalizes to zero.
fn is_noise(o: &PathObservation, cfg: &PllConfig) -> bool {
    o.lost < cfg.min_loss_count || o.loss_ratio() < cfg.loss_ratio_filter
}

/// Whether `o` comes out of [`preprocess`] (without exclusions) lossy:
/// something was sent, something was lost, and the loss is not noise.
pub(super) fn stays_lossy(o: &PathObservation, cfg: &PllConfig) -> bool {
    o.sent != 0 && o.lost != 0 && !is_noise(o, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excluded_paths_are_dropped() {
        let obs = vec![
            PathObservation::new(PathId(0), 100, 50),
            PathObservation::new(PathId(1), 100, 50),
        ];
        let mut excl = HashSet::new();
        excl.insert(PathId(0));
        let got = preprocess(&obs, &PllConfig::default(), &excl);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].path, PathId(1));
    }

    #[test]
    fn background_noise_is_normalized_to_clean() {
        let obs = vec![PathObservation::new(PathId(0), 100_000, 5)];
        // 5e-5 loss ratio is background noise, below the 1e-3 filter.
        let got = preprocess(&obs, &PllConfig::default(), &HashSet::new());
        assert_eq!(got[0].lost, 0);
        assert_eq!(got[0].sent, 100_000);
    }

    #[test]
    fn real_loss_is_kept() {
        let obs = vec![PathObservation::new(PathId(0), 100, 30)];
        let got = preprocess(&obs, &PllConfig::default(), &HashSet::new());
        assert_eq!(got[0].lost, 30);
    }

    #[test]
    fn zero_sent_is_dropped() {
        let obs = vec![PathObservation::new(PathId(0), 0, 0)];
        let got = preprocess(&obs, &PllConfig::default(), &HashSet::new());
        assert!(got.is_empty());
    }

    #[test]
    fn min_loss_count_filters_single_losses() {
        let cfg = PllConfig {
            min_loss_count: 3,
            ..PllConfig::default()
        };
        let obs = vec![
            PathObservation::new(PathId(0), 10, 2),
            PathObservation::new(PathId(1), 10, 3),
        ];
        let got = preprocess(&obs, &cfg, &HashSet::new());
        assert_eq!(got[0].lost, 0);
        assert_eq!(got[1].lost, 3);
    }
}
