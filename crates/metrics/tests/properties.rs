//! Property-based tests for the statistics substrate.

#![forbid(unsafe_code)]

use pronghorn_metrics::{
    convergence_request, geometric_mean, Cdf, ConvergenceCriteria, Histogram, Quantiles, Summary,
};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0f64..1e7, 1..200)
}

proptest! {
    #[test]
    fn quantiles_are_monotone_in_q(samples in finite_samples(), qa in 0.0f64..1.0, qb in 0.0f64..1.0) {
        let q = Quantiles::new(samples).unwrap();
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(q.quantile(lo) <= q.quantile(hi) + 1e-9);
    }

    #[test]
    fn quantiles_are_bounded_by_min_max(samples in finite_samples(), qq in 0.0f64..1.0) {
        let q = Quantiles::new(samples).unwrap();
        prop_assert!(q.quantile(qq) >= q.min() - 1e-9);
        prop_assert!(q.quantile(qq) <= q.max() + 1e-9);
    }

    #[test]
    fn cdf_eval_is_monotone_and_within_unit(samples in finite_samples(), xa in 0.0f64..2e7, xb in 0.0f64..2e7) {
        let c = Cdf::new(samples).unwrap();
        let (lo, hi) = if xa <= xb { (xa, xb) } else { (xb, xa) };
        let (fl, fh) = (c.eval(lo), c.eval(hi));
        prop_assert!((0.0..=1.0).contains(&fl));
        prop_assert!((0.0..=1.0).contains(&fh));
        prop_assert!(fl <= fh);
    }

    #[test]
    fn cdf_inverse_inverts_eval(samples in finite_samples(), qq in 0.01f64..1.0) {
        let c = Cdf::new(samples).unwrap();
        let x = c.inverse(qq);
        prop_assert!(c.eval(x) >= qq - 1e-12);
    }

    #[test]
    fn summary_mean_between_min_and_max(samples in finite_samples()) {
        let s = Summary::of(&samples);
        prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
        prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
        prop_assert!(s.population_variance() >= 0.0);
    }

    #[test]
    fn summary_merge_is_associative_enough(a in finite_samples(), b in finite_samples()) {
        let mut merged = Summary::of(&a);
        merged.merge(&Summary::of(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let direct = Summary::of(&all);
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert!((merged.mean() - direct.mean()).abs() < 1e-6 * direct.mean().abs().max(1.0));
    }

    #[test]
    fn geometric_mean_in_hull(samples in prop::collection::vec(0.1f64..1e6, 1..50)) {
        let gm = geometric_mean(&samples).unwrap();
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(gm >= lo * (1.0 - 1e-12) && gm <= hi * (1.0 + 1e-12));
    }

    #[test]
    fn histogram_quantile_tracks_exact_order_statistic(samples in prop::collection::vec(1.0f64..1e6, 20..300)) {
        let mut h = Histogram::new(1.0, 1e6, 1.01).unwrap();
        for &x in &samples {
            h.record(x);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        for &p in &[0.25, 0.5, 0.75] {
            // The histogram reports the bucket midpoint of the ceil-rank
            // order statistic; compare against that exact statistic.
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            let exact = sorted[rank - 1];
            let approx = h.quantile(p);
            // Bucket growth 1% => midpoint within ~0.5% of any member.
            prop_assert!(approx >= exact / 1.02, "p={p} exact={exact} approx={approx}");
            prop_assert!(approx <= exact * 1.02, "p={p} exact={exact} approx={approx}");
        }
    }

    #[test]
    fn convergence_never_reports_past_last_window(samples in prop::collection::vec(1.0f64..1e5, 20..200)) {
        if let Some(idx) = convergence_request(&samples, ConvergenceCriteria::default()) {
            prop_assert!(idx + 20 <= samples.len());
        }
    }

    #[test]
    fn convergence_of_constant_series_is_zero(value in 1.0f64..1e6, len in 20usize..100) {
        let series = vec![value; len];
        prop_assert_eq!(convergence_request(&series, ConvergenceCriteria::default()), Some(0));
    }
}
