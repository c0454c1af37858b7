//! Exact order statistics: percentiles of one phase's latencies (from
//! sorted `OpRecord` nanoseconds, never the log₂ `Histogram`), and the
//! median, quartiles and *best decile* of a metric across the samples of a
//! run.

/// Fewer than this many samples beyond a percentile and it is refused:
/// the value would be set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Clone, Debug, PartialEq)]
pub struct TooFewSamples {
    /// The requested quantile in `(0, 1)`.
    pub q: f64,
    /// Samples offered.
    pub n: usize,
}

/// The `q`-quantile of `sorted` (ascending integer nanoseconds): the
/// sample of rank `⌈q·n⌉`, the nearest-rank order statistic — always a
/// value that was measured.
///
/// # Errors
///
/// [`TooFewSamples`] unless at least [`MIN_BEYOND`] samples lie beyond the
/// quantile on either side (`n·q ≥ 10` and `n·(1 − q) ≥ 10`).
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted input");
    let n = sorted.len() as f64;
    // The tolerance keeps 0.99 · 1000 = 989.999… from failing by rounding.
    if n * q.min(1.0 - q) + 1e-9 < MIN_BEYOND as f64 {
        return Err(TooFewSamples { q, n: sorted.len() });
    }
    let rank = (q * n - 1e-9).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` and takes their median.
///
/// # Errors
///
/// [`TooFewSamples`] with fewer than 20 samples.
pub fn p50(mut samples: Vec<u64>) -> Result<u64, TooFewSamples> {
    samples.sort_unstable();
    percentile(&samples, 0.50)
}

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `value` is than `base`, as a share of `base`:
    /// positive when worse, negative when better.
    pub fn worsening(self, base: f64, value: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - value) / base.abs(),
            Better::Lower => (value - base) / base.abs(),
        }
    }
}

/// Median, quartiles and outer deciles of one metric across the samples of
/// a run (or across the runs of a set).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// First decile.
    pub d1: f64,
    /// Ninth decile.
    pub d9: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Median, quartiles and deciles exactly as Python's
    /// `statistics.median` and `statistics.quantiles(values, n=4)` (or
    /// `n=10`) give them (the "exclusive" method), so a spread computed
    /// here matches the one the driver computes. One value is its own
    /// quantiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite input.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no values");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite value");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let len = v.len();
        let median = if len % 2 == 1 {
            v[len / 2]
        } else {
            (v[len / 2 - 1] + v[len / 2]) / 2.0
        };
        if len == 1 {
            return Summary {
                median,
                q1: median,
                q3: median,
                d1: median,
                d9: median,
                n: 1,
            };
        }
        // The `i`-th of the `parts − 1` cut points.
        let quantile = |i: usize, parts: usize| {
            let m = len + 1;
            let j = (i * m / parts).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * parts) as f64;
            (v[j - 1] * (parts as f64 - delta) + v[j] * delta) / parts as f64
        };
        // With fewer than nine samples the exclusive method places the
        // outer deciles beyond the outermost samples; a decile is never
        // taken further out than a value that was measured.
        Summary {
            median,
            q1: quantile(1, 4),
            q3: quantile(3, 4),
            d1: quantile(1, 10).max(v[0]),
            d9: quantile(9, 10).min(v[len - 1]),
            n: len,
        }
    }

    /// The best decile: the value a tenth of the way, by rank, from the
    /// best sample to the worst — `d9` when higher is better, `d1` when
    /// lower is. A run does a fixed amount of work per sample, so there is
    /// a floor under how little time a sample can take, and everything the
    /// host does to the guest only adds to it; the best decile of many
    /// short samples reads that floor as long as a tenth of the run went
    /// undisturbed, where the median reads how disturbed the run was.
    pub fn best_decile(&self, better: Better) -> f64 {
        match better {
            Better::Higher => self.d9,
            Better::Lower => self.d1,
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// bounds are judged against.
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
    fn percentile_is_the_nearest_rank_order_statistic() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), Ok(500));
        assert_eq!(percentile(&v, 0.99), Ok(990));
        assert_eq!(percentile(&v, 0.25), Ok(250));
        // 40 samples: ten 5s, twenty 7s, ten 9s.
        let mut v = vec![5u64; 10];
        v.extend([7u64; 20]);
        v.extend([9u64; 10]);
        assert_eq!(percentile(&v, 0.25), Ok(5));
        assert_eq!(percentile(&v, 0.50), Ok(7));
        assert_eq!(percentile(&v, 0.75), Ok(7));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&v, 0.99), Err(TooFewSamples { q: 0.99, n: 999 }));
        assert_eq!(percentile(&v, 0.01), Err(TooFewSamples { q: 0.01, n: 999 }));
        let v: Vec<u64> = (0..1000).collect();
        assert!(percentile(&v, 0.99).is_ok());
        assert!(percentile(&v, 0.999).is_err());
        assert!(percentile(&[1; 19], 0.5).is_err());
        assert!(percentile(&[1; 20], 0.5).is_ok());
        assert_eq!(p50((0..19).collect()), Err(TooFewSamples { q: 0.5, n: 19 }));
        assert_eq!(p50((0..21).rev().collect()), Ok(10));
    }

    #[test]
    fn summary_matches_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = Summary::of(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 7.0));
    }

    #[test]
    fn best_decile_sits_a_tenth_in_from_the_best_sample() {
        // statistics.quantiles(range(1, 20), n=10) == [2.0, 4.0, …, 18.0]
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.d1, s.d9), (2.0, 18.0));
        assert_eq!(s.best_decile(Better::Higher), 18.0);
        assert_eq!(s.best_decile(Better::Lower), 2.0);
        // statistics.quantiles([1,2,3,4,5,6,7,8], n=10)[0] == 0.9 and
        // [8] == 8.1: past the ends of a small sample, where the summary
        // stops at the outermost values.
        let s = Summary::of(&[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.d1, s.d9), (1.0, 8.0));
        // statistics.quantiles(range(1, 11), n=10)[0] == 1.1, [8] == 9.9
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!((s.d1 - 1.1).abs() < 1e-12 && (s.d9 - 9.9).abs() < 1e-12);
        let flat = Summary::of(&[1.25]);
        assert_eq!(flat.best_decile(Better::Higher), 1.25);
        assert_eq!((flat.q1, flat.q3, flat.spread()), (1.25, 1.25, 0.0));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(Better::Higher.worsening(100.0, 90.0), 0.1);
        assert_eq!(Better::Higher.worsening(100.0, 110.0), -0.1);
        assert_eq!(Better::Lower.worsening(100.0, 110.0), 0.1);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), 0.0);
    }
}
