//! Order statistics: medians, quartiles, and the percentile rule.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them, so
/// the spread this tool prints is the spread the acceptance check sees.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// The percentiles the benchmark may report, lowest first.
pub const PERCENTILE_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`PERCENTILE_LADDER`], at or below `wanted`,
/// that has at least ten samples beyond it in a sample of `n`; `None` when
/// not even the median qualifies.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| *p <= wanted && (n as f64) * (100.0 - p) / 100.0 >= 10.0)
}

/// The `p`-th percentile of an ascending-sorted sample (nearest rank).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 leaves 1% beyond: 1000 samples give exactly ten.
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(999, 99.0), Some(90.0));
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(99, 99.0), Some(50.0));
        assert_eq!(supported_percentile(20, 99.0), Some(50.0));
        assert_eq!(supported_percentile(19, 99.0), None);
        // Never above what was asked for, however large the sample.
        assert_eq!(supported_percentile(1_000_000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(1_000_000, 99.9), Some(99.9));
        assert_eq!(supported_percentile(9_999, 99.9), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
