//! Statistics substrate for the Pronghorn reproduction.
//!
//! Everything the paper's evaluation reports is a statistic over end-to-end
//! request latencies: CDFs (Figures 4–6), medians and geometric means of
//! median improvement (§5.2), and the window-20 convergence criterion of
//! Table 4. This crate implements each of those from scratch,
//! dependency-free (Algorithm 1's EWMA latency estimates live in the
//! policy's weight vector, `pronghorn_core::weights::WeightVector`):
//!
//! - [`Quantiles`] / [`Cdf`]: exact quantiles with linear interpolation and
//!   an empirical CDF representation;
//! - [`Summary`]: one-pass count/mean/std/min/max summaries;
//! - [`Histogram`]: a log-bucketed streaming histogram for latency ranges
//!   spanning orders of magnitude (the paper's CDF x-axes are log scale);
//! - [`convergence`]: Table 4's "window of 20, median within 2% of final"
//!   convergence-request detector;
//! - [`geometric_mean`] and friends: the improvement aggregation of §5.2;
//! - [`table`]: plain-text and CSV table rendering for the experiment
//!   harness;
//! - [`bucket_medians`]: the bucketed-median smoother of the warm-up plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod histogram;
pub mod quantile;
pub mod stats;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use convergence::{convergence_request, ConvergenceCriteria};
pub use histogram::Histogram;
pub use quantile::{Cdf, Quantiles};
pub use stats::{
    classify, geo_mean_of_improvements, geometric_mean, mean_and_std, median_improvement_pct,
    percent_change, Verdict,
};
pub use summary::Summary;
pub use table::{Table, TableStyle};
pub use timeseries::bucket_medians;
