//! Exact-sample order statistics.
//!
//! Every latency and wall time the benchmark reports is computed from the
//! full list of samples, sorted at the end of the run. The repo's
//! `LatencyHistogram` is deliberately not used: its power-of-two buckets
//! turn a 5 % shift into either 0 % or 100 %.

/// The median, first and third quartile of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile (equal to the median when `n < 2`).
    pub q1: f64,
    /// The median.
    pub median: f64,
    /// Third quartile (equal to the median when `n < 2`).
    pub q3: f64,
}

/// Sorts samples ascending; NaN never occurs (all samples are clock reads).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it. With fewer than
/// `100 / (100 - p)` samples this is the maximum.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The cut points Python's `statistics.quantiles(values, n=4)` returns (its
/// default "exclusive" method), so spreads computed here equal the ones the
/// driver computes from the same values.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    assert!(!sorted.is_empty(), "quartiles of an empty sample");
    if sorted.len() == 1 {
        return [sorted[0]; 3];
    }
    let len = sorted.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Median and quartiles of an unsorted sample.
pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted(values.to_vec());
    let [q1, median, q3] = quartiles(&sorted);
    Summary {
        n: sorted.len(),
        q1,
        median,
        q3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Fewer than twenty samples: p95 is the maximum.
        let few = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&few, 95.0), 3.0);
        assert_eq!(percentile(&few, 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // A 5 % shift of every sample shifts the percentile by 5 %.
        let shifted: Vec<f64> = v.iter().map(|x| x * 1.05).collect();
        assert!((percentile(&shifted, 95.0) / percentile(&v, 95.0) - 1.05).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), [1.5, 6.0, 10.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn summary_reports_median_and_quartiles() {
        let s = summarize(&[10.0, 2.0, 6.0, 4.0, 8.0]);
        assert_eq!((s.n, s.median), (5, 6.0));
        assert_eq!((s.q1, s.q3), (3.0, 9.0));
    }
}
