//! Input-aware orchestration — §6's future-work direction, implemented.
//!
//! "For serverless applications with multiple traffic patterns
//! (workloads), different orchestrators can be specialized towards
//! specific patterns. By doing so, instances can specialize for certain
//! workloads, and thereby achieve a closer 'fit' to the data rather than
//! forcing a single snapshot to handle all workloads a function is subject
//! to."
//!
//! [`run_partitioned`] classifies each request by its input-size factor
//! into one of `classes` buckets (log-spaced around the base size) and
//! routes it to a per-class deployment: its own Orchestrator, weight
//! vector, snapshot pool, and workers. Two specialization effects emerge:
//!
//! 1. each class's weight vector sees a far narrower latency distribution,
//!    so the EWMA estimates converge faster and snapshot selection is
//!    sharper;
//! 2. each class's workers see inputs close to their class centre, so
//!    speculative code tuned to that centre deoptimizes less — the request
//!    novelty is re-based to the class centre, exactly the "divergent code
//!    paths and execution profiles" argument of §6.

use crate::config::RunConfig;
use crate::engine::{self, Arrivals, Routing, Topology};
use crate::result::RunResult;
use crate::runner::{Deployment, Session};
use pronghorn_workloads::Workload;

/// Classifies `factor` into one of `classes` log-spaced buckets over
/// `[0.08, 12.0]` (the variance model's clamp range).
pub fn classify_factor(factor: f64, classes: usize) -> usize {
    debug_assert!(classes >= 1);
    let (lo, hi) = (0.08f64.ln(), 12.0f64.ln());
    let t = ((factor.max(1e-9).ln() - lo) / (hi - lo)).clamp(0.0, 1.0);
    ((t * classes as f64) as usize).min(classes - 1)
}

/// Geometric centre of class `k` of `classes`.
pub fn class_centre(k: usize, classes: usize) -> f64 {
    let (lo, hi) = (0.08f64.ln(), 12.0f64.ln());
    let width = (hi - lo) / classes as f64;
    (lo + width * (k as f64 + 0.5)).exp()
}

/// Runs the closed-loop protocol with per-input-class deployments. Class
/// `k`'s deployment is labelled `{name}-class{k}`, its workers draw the
/// `worker-c{k}`/`boot-c{k}` streams, and it provisions, checkpoints and
/// forecasts on its own; every other knob applies exactly as in the
/// closed loop.
///
/// With `classes == 1` this degrades to (a slightly re-seeded version of)
/// the ordinary shared deployment, which makes A/B comparisons easy.
///
/// # Examples
///
/// ```
/// use pronghorn_core::PolicyKind;
/// use pronghorn_platform::{run_partitioned, RunConfig};
/// use pronghorn_workloads::{by_name, InputVariance};
///
/// let workload = by_name("PageRank").unwrap();
/// let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 7)
///     .with_invocations(40)
///     .with_variance(InputVariance::bimodal());
/// let result = run_partitioned(&workload, &cfg, 2);
/// assert_eq!(result.latencies_us.len(), 40);
/// ```
pub fn run_partitioned(workload: &dyn Workload, cfg: &RunConfig, classes: usize) -> RunResult {
    let deps = (0..classes.max(1))
        .map(|k| {
            let label = format!("{}-class{k}", workload.name());
            Deployment::new(workload, cfg, label, &format!("-c{k}"))
        })
        .collect();
    let mut session = Session::new(workload, *cfg, cfg.invocations as usize, false);
    let mut topo = Topology::new(deps, 1, 1, Routing::ByClass);
    let arrivals = Arrivals::closed_loop(cfg.invocations, cfg.request_gap, false);
    engine::run(&mut session, &mut topo, arrivals);
    session.finish(&topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_core::PolicyKind;
    use pronghorn_workloads::{by_name, InputVariance};

    #[test]
    fn classification_is_total_and_ordered() {
        for classes in 1..6 {
            for &f in &[0.01, 0.08, 0.2, 1.0, 3.0, 12.0, 100.0] {
                let k = classify_factor(f, classes);
                assert!(k < classes, "f={f} classes={classes} -> {k}");
            }
            // Monotone: larger factors never land in smaller classes.
            let ks: Vec<usize> = [0.1, 0.5, 1.0, 2.0, 8.0]
                .iter()
                .map(|&f| classify_factor(f, classes))
                .collect();
            assert!(ks.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn class_centres_are_inside_their_buckets() {
        for classes in 1..5 {
            for k in 0..classes {
                let centre = class_centre(k, classes);
                assert_eq!(classify_factor(centre, classes), k);
            }
        }
    }

    #[test]
    fn partitioned_run_serves_every_request() {
        let bench = by_name("DFS").unwrap();
        let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 31)
            .with_invocations(160)
            .with_variance(InputVariance::bimodal());
        let r = run_partitioned(&bench, &cfg, 2);
        assert_eq!(r.latencies_us.len(), 160);
        assert!(r.checkpoint_ms.len() > 2);
    }

    #[test]
    fn specialization_beats_the_shared_deployment_on_bimodal_input() {
        // §6's claim: per-pattern orchestrators fit bimodal traffic better
        // than one shared deployment.
        let bench = by_name("PageRank").unwrap();
        let cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, 5150)
            .with_invocations(400)
            .with_variance(InputVariance::bimodal());
        let shared = crate::runner::run_closed_loop(&bench, &cfg);
        let split = run_partitioned(&bench, &cfg, 2);
        assert!(
            split.median_us() < shared.median_us() * 1.02,
            "partitioned {} vs shared {}",
            split.median_us(),
            shared.median_us()
        );
    }

    #[test]
    fn one_class_matches_request_count_of_shared() {
        let bench = by_name("Hash").unwrap();
        let cfg = RunConfig::paper(PolicyKind::AfterFirst, 4, 9).with_invocations(60);
        let r = run_partitioned(&bench, &cfg, 1);
        assert_eq!(r.latencies_us.len(), 60);
    }
}
