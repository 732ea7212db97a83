//! Order statistics over per-operation samples.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), taken as the sample at rank
/// `round((n − 1)·q)` of the sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 that leaves
/// at least ten samples above it, as `(percentile, value)`; `None` when
/// fewer than 20 samples exist. The value is the nearest-rank sample.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p: f64| {
            // Nearest rank: the smallest sample with at least p % of the
            // samples at or below it.
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_picks_the_nearest_rank() {
        let values: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), 0.0);
        assert_eq!(quantile(&values, 0.1), 1.0);
        assert_eq!(quantile(&values, 1.0), 10.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.1), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), Some((90.0, 90.0)));
        assert_eq!(tail(&values[..19]), None);
        assert_eq!(tail(&values[..20]), Some((50.0, 10.0)));
    }
}
