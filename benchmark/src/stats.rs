//! Medians, quartiles and spreads over repetition samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; NaN for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so the spreads printed here
/// are the ones a Python reader computes from the same samples. One
/// sample gives that sample twice; none gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative after clamping at the small-sample ends, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Whether a metric is resolved at `bound`: a spread wider than the
/// bound leaves a difference of that size unresolved.
pub fn resolved(values: &[f64], bound: f64) -> bool {
    spread(values) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), (1.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn resolution_compares_spread_with_bound() {
        // statistics.quantiles([9, 10, 10, 10, 11], n=4) == [9.5, 10.0, 10.5]
        let tight = [9.0, 10.0, 10.0, 10.0, 11.0];
        assert!((spread(&tight) - 0.1).abs() < 1e-12);
        assert!(resolved(&tight, 0.1));
        assert!(!resolved(&tight, 0.09));
    }
}
