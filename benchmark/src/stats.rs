//! Order statistics for timing samples.
//!
//! One quantile rule everywhere: the *exclusive* method (`h = (n + 1)·q`,
//! linear interpolation, clamped to the sample range) — the rule Python's
//! `statistics.quantiles(values, n=4)` applies by default, so the quartiles
//! printed here are the quartiles the acceptance tooling computes over runs.

/// The `q`-quantile (`0 < q < 1`) of an ascending-sorted, non-empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let h = (n as f64 + 1.0) * q;
    if h <= 1.0 {
        return sorted[0];
    }
    if h >= n as f64 {
        return sorted[n - 1];
    }
    let lo = h.floor() as usize; // 1-based rank of the lower neighbour
    let frac = h - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// The highest of the conventional tail percentiles (90, 95, 99, 99.9) that
/// still has **at least ten samples beyond it** in a sample of `n` — a tail
/// read off fewer than ten points is an anecdote, not a percentile. `None`
/// below 100 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples per thousand beyond it) — integers, so the
    // threshold is exact.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// What the benchmark reports for one sampled quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of [`highest_supported_percentile`], if any.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes a non-empty sample (sorted internally; NaN-free by contract).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        p50: quantile(&v, 0.5),
        q1: quantile(&v, 0.25),
        q3: quantile(&v, 0.75),
        tail: highest_supported_percentile(v.len()).map(|p| (p, quantile(&v, p / 100.0))),
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// The `p`-th percentile (`0 < p < 100`) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, p / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.p50, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.p50, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let s = summarize(&[4.25]);
        assert_eq!(
            (s.n, s.q1, s.p50, s.q3, s.tail),
            (1, 4.25, 4.25, 4.25, None)
        );
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_p50_and_the_supported_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.p50, 100.5);
        let (p, value) = s.tail.expect("200 samples support p95");
        assert_eq!(p, 95.0);
        assert!((value - 190.95).abs() < 1e-9, "{value}");
        assert_eq!(percentile(&v, 95.0), value);
    }
}
