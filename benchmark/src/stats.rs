//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is an exact order statistic of
//! the samples themselves, never a histogram bucket edge: the runtime's
//! bucketed latency histogram is ~9 % wide at 100 ms, which hides any
//! change smaller than that.

/// The nearest-rank `q`-quantile of ascending `sorted`: the smallest sample
/// with at least a share `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// A percentile is only worth reporting while at least this many samples
/// lie beyond it; below that it is the position of a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether `n` samples support reporting their `q`-quantile.
pub fn supports_quantile(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_SAMPLES_BEYOND
}

/// Sorts a copy of `values` ascending. Panics on NaN: a NaN measurement is
/// a benchmark bug, not a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN among samples"));
    v
}

/// Median of `values` (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads printed here match the ones the benchmark's driver
/// computes. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of one metric over the measured passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassStat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl PassStat {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self { median: median(values), q1, q3, n: values.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        // Never interpolates: the answer is always one of the samples.
        let odd = [1.0, 10.0, 100.0];
        assert_eq!(quantile_sorted(&odd, 0.5), 10.0);
        assert_eq!(quantile_sorted(&odd, 0.67), 100.0);
    }

    #[test]
    fn samples_beyond_cut_off() {
        // p99 of 1000 samples sits at rank 990: exactly ten lie beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports_quantile(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!supports_quantile(999, 0.99));
        assert!(supports_quantile(20, 0.50));
        assert!(!supports_quantile(19, 0.50));
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn pass_stat_carries_the_count() {
        let s = PassStat::of(&[2.0, 1.0, 3.0]);
        assert_eq!((s.median, s.n), (2.0, 3));
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }
}
