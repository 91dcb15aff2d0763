//! Sample statistics the harness reports: median, quartiles, nearest-rank
//! percentiles.

/// Sort ascending; every caller feeds finite timings or counts.
fn sort(v: &mut [f64]) {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Median (mean of the two middle values for an even count).
pub fn median_of(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First quartile, median, third quartile, as Python's
/// `statistics.quantiles(v, n=4)` gives them (exclusive method: the
/// quantile at rank `p·(n+1)`, linearly interpolated, clamped to the
/// sample). One sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(!v.is_empty(), "quartiles of no samples");
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn iqr_share(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p·n)` (1-based), so `p = 0.5` of 1..=100 is 50.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Count, quartiles — what every host metric prints beside its value.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(v: &[f64]) -> Self {
        let [q1, median, q3] = quartiles(v);
        Summary {
            n: v.len(),
            q1,
            median,
            q3,
        }
    }

    /// A metric measured once (deterministic counters, ratios).
    pub fn single(x: f64) -> Self {
        Summary {
            n: 1,
            q1: x,
            median: x,
            q3: x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_of(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0, 9.0, 9.0]);
    }

    #[test]
    fn iqr_share_of_ten() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.90), 90.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }
}
