//! Summary statistics for benchmark samples.

/// Percentiles the tail rule considers, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples, in
/// integer arithmetic on tenths of a percent so that 99.9 % of 10 000 is
/// exactly rank 9 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1_000).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of `values` (need not be sorted).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// Median, averaging the two middle samples of an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that never ran).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_leaves_exactly_the_counted_samples_beyond() {
        for n in [20, 57, 200, 1_000, 4_321] {
            let p = tail_percentile(n).expect("n >= 20");
            let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let cut = percentile(&values, p);
            let beyond = values.iter().filter(|&&v| v > cut).count();
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn percentile_and_median_by_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
