//! Localization quality metrics, with the paper's exact definitions (§5.3
//! and §6.4).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::json::{Json, ToJson};
use crate::types::LinkId;

/// Outcome of comparing a diagnosis against ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LocalizationMetrics {
    /// Truly bad links correctly blamed.
    pub true_positives: usize,
    /// Good links incorrectly blamed.
    pub false_positives: usize,
    /// Truly bad links not blamed.
    pub false_negatives: usize,
    /// Accuracy = TP / truly-bad (the paper's "true positive ratio").
    pub accuracy: f64,
    /// False-positive ratio = FP / (TP + FP): good links blamed over all
    /// links identified (good and bad).
    pub false_positive_ratio: f64,
    /// False-negative ratio = FN / truly-bad.
    pub false_negative_ratio: f64,
}

/// Compares blamed links against the ground-truth bad set.
///
/// With an empty truth set, accuracy is 1.0 (there was nothing to find)
/// and every blamed link is a false positive.
pub fn evaluate_diagnosis(suspects: &[LinkId], truth: &[LinkId]) -> LocalizationMetrics {
    let truth_set: HashSet<LinkId> = truth.iter().copied().collect();
    let suspect_set: HashSet<LinkId> = suspects.iter().copied().collect();

    let true_positives = suspect_set.intersection(&truth_set).count();
    let false_positives = suspect_set.len() - true_positives;
    let false_negatives = truth_set.len() - true_positives;

    let accuracy = if truth_set.is_empty() {
        1.0
    } else {
        true_positives as f64 / truth_set.len() as f64
    };
    let identified = true_positives + false_positives;
    let false_positive_ratio = if identified == 0 {
        0.0
    } else {
        false_positives as f64 / identified as f64
    };
    let false_negative_ratio = if truth_set.is_empty() {
        0.0
    } else {
        false_negatives as f64 / truth_set.len() as f64
    };

    LocalizationMetrics {
        true_positives,
        false_positives,
        false_negatives,
        accuracy,
        false_positive_ratio,
        false_negative_ratio,
    }
}

impl LocalizationMetrics {
    /// Accumulates another run's counts into self (micro-averaging), and
    /// recomputes the derived ratios.
    pub fn accumulate(&mut self, other: &LocalizationMetrics) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        let truly_bad = self.true_positives + self.false_negatives;
        self.accuracy = if truly_bad == 0 {
            1.0
        } else {
            self.true_positives as f64 / truly_bad as f64
        };
        let identified = self.true_positives + self.false_positives;
        self.false_positive_ratio = if identified == 0 {
            0.0
        } else {
            self.false_positives as f64 / identified as f64
        };
        self.false_negative_ratio = if truly_bad == 0 {
            0.0
        } else {
            self.false_negatives as f64 / truly_bad as f64
        };
    }

    /// An all-zero starting point for [`Self::accumulate`].
    pub fn zero() -> Self {
        Self {
            true_positives: 0,
            false_positives: 0,
            false_negatives: 0,
            accuracy: 1.0,
            false_positive_ratio: 0.0,
            false_negative_ratio: 0.0,
        }
    }
}

impl ToJson for LocalizationMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("true_positives", Json::uint(self.true_positives as u64)),
            ("false_positives", Json::uint(self.false_positives as u64)),
            ("false_negatives", Json::uint(self.false_negatives as u64)),
            ("accuracy", Json::Float(self.accuracy)),
            (
                "false_positive_ratio",
                Json::Float(self.false_positive_ratio),
            ),
            (
                "false_negative_ratio",
                Json::Float(self.false_negative_ratio),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(ids: &[u32]) -> Vec<LinkId> {
        ids.iter().map(|&i| LinkId(i)).collect()
    }

    #[test]
    fn perfect_diagnosis() {
        let m = evaluate_diagnosis(&links(&[1, 2]), &links(&[1, 2]));
        assert_eq!(m.true_positives, 2);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.false_positive_ratio, 0.0);
        assert_eq!(m.false_negative_ratio, 0.0);
    }

    #[test]
    fn partial_diagnosis() {
        let m = evaluate_diagnosis(&links(&[1, 3]), &links(&[1, 2]));
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.false_negatives, 1);
        assert!((m.accuracy - 0.5).abs() < 1e-12);
        assert!((m.false_positive_ratio - 0.5).abs() < 1e-12);
        assert!((m.false_negative_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_truth() {
        let m = evaluate_diagnosis(&links(&[5]), &links(&[]));
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.false_positive_ratio, 1.0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let m = evaluate_diagnosis(&links(&[1, 1, 2]), &links(&[2, 2]));
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 1);
    }

    #[test]
    fn accumulate_micro_averages() {
        let mut acc = LocalizationMetrics::zero();
        acc.accumulate(&evaluate_diagnosis(&links(&[1]), &links(&[1, 2])));
        acc.accumulate(&evaluate_diagnosis(&links(&[3]), &links(&[3])));
        assert_eq!(acc.true_positives, 2);
        assert_eq!(acc.false_negatives, 1);
        assert!((acc.accuracy - 2.0 / 3.0).abs() < 1e-12);
    }
}
