//! Order statistics for the report: medians, quartiles and the
//! highest percentile a sample can support.

/// Median and quartiles of a sample, the way Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive
/// method), so the spreads printed here are the ones the acceptance
/// pipeline will compute from the same values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of `values` (any order). A single value is its own
/// quartiles; an empty sample has none.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some(Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        }),
        _ => {
            // Exclusive method: the i-th of m cut points sits at rank
            // i * (n + 1) / m (1-based), interpolated, clamped to the
            // sample.
            let cut = |i: usize| {
                let pos = i * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            Some(Quartiles {
                q1: cut(1),
                median: cut(2),
                q3: cut(3),
            })
        }
    }
}

/// Nearest-rank position (1-based) of the `permille`-th per-mille point
/// in a sample of `n`. Integer arithmetic: 99.9% of 10 000 must be rank
/// 9 990 exactly, which `f64` does not promise.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The value at the `permille`-th per-mille point (990 = p99) of an
/// ascending-sorted sample of whole nanoseconds, together with how many
/// samples lie beyond that rank. The clock truncates, so the samples
/// equal to the value at the rank are taken to lie evenly across that
/// nanosecond (the grouped-data percentile): the result moves smoothly
/// as the distribution shifts instead of jumping from one integer to
/// the next.
pub fn percentile_sorted(sorted: &[u32], permille: usize) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(permille, sorted.len());
    let v = sorted[r - 1];
    let below = sorted.partition_point(|&x| x < v);
    let upto = sorted.partition_point(|&x| x <= v);
    let within = (r - below) as f64 - 0.5;
    Some((
        f64::from(v) + within / (upto - below) as f64,
        sorted.len() - r,
    ))
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of the usual tail points (p99.9, p99, p95, p90, p75, in
/// per mille) that still has at least [`MIN_BEYOND`] samples beyond it;
/// `None` when even p75 does not (fewer than 40 samples).
pub fn highest_supported_permille(n: usize) -> Option<usize> {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&pm| n >= rank(pm, n) + MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[10.0, 20.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_value_and_empty_sample() {
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert_eq!(q.spread(), 0.0);
        assert!(quartiles(&[]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = quartiles(&[90.0, 100.0, 110.0, 95.0, 105.0]).unwrap();
        assert_eq!(q.median, 100.0);
        assert!((q.spread() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&sorted, 500), Some((500.5, 500)));
        assert_eq!(percentile_sorted(&sorted, 990), Some((990.5, 10)));
        assert_eq!(percentile_sorted(&sorted, 1000), Some((1000.5, 0)));
        assert_eq!(percentile_sorted(&[], 500), None);
        // Ties share their nanosecond evenly: the median of eight 7s sits
        // at 7 + 3.5/8, and one more 6 below pulls it down by 1/8.
        assert_eq!(percentile_sorted(&[7; 8], 500), Some((7.4375, 4)));
        assert_eq!(
            percentile_sorted(&[6, 7, 7, 7, 7, 7, 7, 7], 500),
            Some((7.357142857142857, 4))
        );
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(highest_supported_permille(10_000), Some(999));
        assert_eq!(highest_supported_permille(9_999), Some(990));
        assert_eq!(highest_supported_permille(1_000), Some(990));
        assert_eq!(highest_supported_permille(999), Some(950));
        assert_eq!(highest_supported_permille(200), Some(950));
        assert_eq!(highest_supported_permille(199), Some(900));
        assert_eq!(highest_supported_permille(40), Some(750));
        assert_eq!(highest_supported_permille(39), None);
        assert_eq!(highest_supported_permille(0), None);
    }
}
