//! Order statistics for the ledger: median, a percentile that is only
//! reported when enough samples lie beyond it, and the min/median/max
//! summary every timing is published as.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// caller, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1): p99 therefore needs at least 1000 samples.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (nearest rank, `0 < p < 1`), or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile outside (0, 1)");
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < TAIL_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// that a spread printed here can be held beside one the benchmark driver
/// computes. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// How one metric is published: median, quartiles, extremes and sample
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// The distance between the quartiles as a share of the median: the
    /// run-to-run spread `--compare` holds against a metric's bound. Zero
    /// for a constant (or zero) metric.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // Five repetitions support nothing beyond the median.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), None);
        // 30,000 per-program samples support p99 comfortably.
        let v: Vec<f64> = (1..=30_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(29_700.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_and_spread() {
        let s = Summary::of(&[10.0, 9.0, 11.0, 8.0, 12.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (10.0, 8.0, 12.0, 5));
        assert_eq!((s.q1, s.q3), (8.5, 11.5));
        assert!((s.spread() - 0.3).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
        // One wild sample in five: the quartile spread takes half of it,
        // where max - min would take all of it.
        let wild = Summary::of(&[5.3, 5.3, 5.4, 5.5, 9.0]);
        assert!((wild.spread() - (7.25 - 5.3) / 5.4).abs() < 1e-12);
    }
}
