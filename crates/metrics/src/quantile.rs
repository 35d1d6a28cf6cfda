//! Exact quantiles and empirical CDFs.
//!
//! The evaluation reports full latency CDFs (Figures 4–6) and medians /
//! arbitrary percentiles of request-latency distributions (§5.2). Sample
//! counts are small (500 invocations per cell), so exact sorted-sample
//! quantiles are both feasible and preferable to sketches.

/// A set of samples prepared for quantile queries.
///
/// Construction sorts the samples once; every query is then O(1).
/// Non-finite samples are rejected at construction so that downstream
/// statistics can never be poisoned by a NaN.
///
/// # Examples
///
/// ```
/// use pronghorn_metrics::Quantiles;
///
/// let q = Quantiles::new(vec![4.0, 1.0, 3.0, 2.0]).unwrap();
/// assert_eq!(q.median(), 2.5);
/// assert_eq!(q.quantile(0.0), 1.0);
/// assert_eq!(q.quantile(1.0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Builds a quantile set from raw samples.
    ///
    /// Returns `None` if `samples` is empty or contains a non-finite value.
    pub fn new(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare totally"));
        Some(Quantiles { sorted: samples })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the set is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-th quantile, `q` in `[0, 1]`, with linear interpolation
    /// between order statistics (the "R-7" rule used by NumPy's default).
    ///
    /// `q` outside `[0, 1]` is clamped.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = pos - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// The `p`-th percentile, `p` in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Interquartile range, `p75 - p25`.
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample. The samples are non-empty by construction, so the
    /// NaN of an empty set never shows.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// The sorted samples.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Converts into an empirical CDF.
    pub fn into_cdf(self) -> Cdf {
        Cdf {
            sorted: self.sorted,
        }
    }
}

/// An empirical cumulative distribution function.
///
/// This is the representation behind the paper's Figure 4–6 plots: for each
/// latency `x`, `F(x)` is the fraction of requests completing within `x`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples; same validity rules as
    /// [`Quantiles::new`].
    pub fn new(samples: Vec<f64>) -> Option<Self> {
        Quantiles::new(samples).map(Quantiles::into_cdf)
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates `F(x)`: the fraction of samples `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the number of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the smallest sample `x` with `F(x) >= q`.
    pub fn inverse(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Renders the CDF as `(x, F(x))` step points, one per sample.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(Quantiles::new(vec![]).is_none());
        assert!(Quantiles::new(vec![1.0, f64::NAN]).is_none());
        assert!(Quantiles::new(vec![f64::INFINITY]).is_none());
    }

    #[test]
    fn single_sample_quantiles() {
        let q = Quantiles::new(vec![7.0]).unwrap();
        assert_eq!(q.quantile(0.0), 7.0);
        assert_eq!(q.quantile(0.5), 7.0);
        assert_eq!(q.quantile(1.0), 7.0);
    }

    #[test]
    fn interpolates_between_order_statistics() {
        let q = Quantiles::new(vec![0.0, 10.0]).unwrap();
        assert_eq!(q.quantile(0.25), 2.5);
        assert_eq!(q.median(), 5.0);
    }

    #[test]
    fn percentile_matches_quantile() {
        let q = Quantiles::new((0..=100).map(f64::from).collect()).unwrap();
        assert_eq!(q.percentile(90.0), q.quantile(0.9));
        assert_eq!(q.percentile(90.0), 90.0);
    }

    #[test]
    fn clamps_out_of_range_q() {
        let q = Quantiles::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(q.quantile(-0.5), 1.0);
        assert_eq!(q.quantile(1.5), 3.0);
    }

    #[test]
    fn iqr_of_uniform_grid() {
        let q = Quantiles::new((0..=100).map(f64::from).collect()).unwrap();
        assert_eq!(q.iqr(), 50.0);
    }

    #[test]
    fn cdf_eval_counts_inclusive() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(2.5), 0.5);
        assert_eq!(c.eval(4.0), 1.0);
        assert_eq!(c.eval(9.0), 1.0);
    }

    #[test]
    fn cdf_inverse_is_smallest_sample_reaching_q() {
        let c = Cdf::new(vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(c.inverse(0.0), 10.0);
        assert_eq!(c.inverse(0.25), 10.0);
        assert_eq!(c.inverse(0.26), 20.0);
        assert_eq!(c.inverse(1.0), 40.0);
    }

    #[test]
    fn cdf_points_step_to_one() {
        let c = Cdf::new(vec![5.0, 1.0]).unwrap();
        let pts: Vec<_> = c.points().collect();
        assert_eq!(pts, vec![(1.0, 0.5), (5.0, 1.0)]);
    }

    #[test]
    fn inverse_and_eval_are_consistent() {
        let samples: Vec<f64> = (1..=500).map(|i| i as f64 * 3.0).collect();
        let c = Cdf::new(samples).unwrap();
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            let x = c.inverse(q);
            assert!(c.eval(x) >= q - 1e-12);
        }
    }
}
