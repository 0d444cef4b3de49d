//! Order statistics over small sample sets.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller holds at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile by the exclusive method — the same arithmetic
/// as Python's `statistics.quantiles(xs, n=4)`, which the acceptance run
/// uses, so `--compare` and the driver agree on what "spread" means.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    (python_quartile(&s, 1), python_quartile(&s, 3))
}

/// Cut point `i` of 4 over sorted `s`, as CPython computes it (including
/// its linear extrapolation when the rank is clamped on tiny inputs).
fn python_quartile(s: &[f64], i: usize) -> f64 {
    let ld = s.len();
    assert!(ld > 0, "quantile of no samples");
    if ld == 1 {
        return s[0];
    }
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

/// The highest percentile that still has at least ten samples beyond it
/// (choosing-metrics §1), as `(value, percentile)`. With fewer than twelve
/// samples no percentile above the median qualifies; the maximum is
/// returned and labelled as the 100th so the reader can tell.
pub fn high_percentile(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "percentile of no samples");
    if n < 12 {
        return (s[n - 1], 100.0);
    }
    let idx = n - 11;
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Smallest sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn high_percentile_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=24).map(f64::from).collect();
        let (v, p) = high_percentile(&xs);
        assert_eq!(v, 14.0);
        assert!((p - 100.0 * 14.0 / 24.0).abs() < 1e-12);
        assert_eq!(high_percentile(&[1.0, 5.0, 2.0]), (5.0, 100.0));
    }
}
