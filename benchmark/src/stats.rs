//! Order statistics for the per-run summaries.
//!
//! Quartiles use the same rule as Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive"
//! method), so the spreads printed here are the ones a reader computes
//! from the same samples.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v)?;
        Some(Self {
            n: v.len(),
            q1,
            median,
            q3,
        })
    }
}

/// `(q1, median, q3)` of sorted, non-empty `data`. The median is the
/// middle sample (the mean of the two middle ones for even `n`); the
/// quartiles interpolate between order statistics at positions
/// `i·(n+1)/4`, extrapolating at the ends for `n` < 3 exactly as
/// Python does.
fn quartiles(data: &[f64]) -> Option<(f64, f64, f64)> {
    let n = data.len();
    match n {
        0 => return None,
        1 => return Some((data[0], data[0], data[0])),
        _ => {}
    }
    let median = if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    };
    let m = n as i64 + 1;
    let quantile = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((quantile(1), median, quantile(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(values: &[f64], q1: f64, median: f64, q3: f64) {
        let s = Summary::of(values).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (values.len(), q1, median, q3));
    }

    // Expected values from Python 3: statistics.median(d) and
    // statistics.quantiles(d, n=4).
    #[test]
    fn odd_n_matches_python() {
        check(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.5, 3.0, 4.5);
        check(&[7.0], 7.0, 7.0, 7.0);
    }

    #[test]
    fn even_n_matches_python() {
        check(&[4.0, 1.0, 3.0, 2.0], 1.25, 2.5, 3.75);
        check(&[2.5, 7.0, 1.0, 9.0, 4.0, 6.0], 2.125, 5.0, 7.5);
        check(&[5.0, 3.0], 2.5, 4.0, 5.5);
    }

    #[test]
    fn empty_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
    }
}
