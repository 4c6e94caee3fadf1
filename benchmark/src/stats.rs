//! Reducers: every reported number is a median (or a stated quantile)
//! over per-block or per-window values, never a total divided by elapsed
//! time — one slow block moves a mean, not a median.

/// Quantile `q ∈ (0, 1)` of `values` by the method of Python's
/// `statistics.quantiles` (exclusive: position `q·(n + 1) − 1`, linear
/// interpolation, clamped to the sample) — the estimator the benchmark
/// driver applies to run sets. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (q * (v.len() + 1) as f64 - 1.0).clamp(0.0, (v.len() - 1) as f64);
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Inter-quartile range as a share of the median — the spread measure
/// of the repeatability check and of `host.calib_iqr_ratio`.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

/// Largest pairwise relative difference of `values`: `(max − min) / min`.
pub fn max_pairwise_rel_diff(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() || min <= 0.0 {
        return 0.0;
    }
    (max - min) / min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_blocks_ignores_one_slow_block() {
        // Nine blocks at 10 ms and one descheduled for 500 ms: the mean
        // says 59 ms, the median still says 10.
        let mut blocks = vec![10.0; 9];
        blocks.push(500.0);
        assert_eq!(median(&blocks), 10.0);
    }

    #[test]
    fn quantiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&v, 0.75) - 8.25).abs() < 1e-12);
        assert!((iqr_ratio(&v) - 1.0).abs() < 1e-12);
        // Far quantiles clamp to the sample instead of extrapolating.
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn pairwise_difference_is_relative_to_the_smallest() {
        assert!((max_pairwise_rel_diff(&[100.0, 104.0, 102.0]) - 0.04).abs() < 1e-12);
        assert_eq!(max_pairwise_rel_diff(&[7.0]), 0.0);
    }
}
