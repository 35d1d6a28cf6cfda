//! Cross-crate end-to-end tests through the `pronghorn` facade.

#![forbid(unsafe_code)]

use pronghorn::prelude::*;

#[test]
fn facade_quickstart_compiles_and_runs() {
    let workload = by_name("DynamicHTML").expect("bundled benchmark");
    let config = RunConfig::paper(PolicyKind::RequestCentric, 1, 42).with_invocations(80);
    let result = run_closed_loop(&workload, &config);
    assert_eq!(result.latencies_us.len(), 80);
    assert!(result.median_us() > 0.0);
}

#[test]
fn every_benchmark_runs_under_every_policy() {
    for workload in evaluation_benchmarks() {
        for policy in [
            PolicyKind::Cold,
            PolicyKind::AfterFirst,
            PolicyKind::RequestCentric,
        ] {
            let cfg = RunConfig::paper(policy, 4, 1)
                .with_invocations(24)
                .with_variance(InputVariance::paper());
            let result = run_closed_loop(&workload, &cfg);
            assert_eq!(
                result.latencies_us.len(),
                24,
                "{} under {:?}",
                workload.name(),
                policy
            );
            assert!(
                result
                    .latencies_us
                    .iter()
                    .all(|&l| l.is_finite() && l > 0.0),
                "{} produced a non-finite latency",
                workload.name()
            );
        }
    }
}

#[test]
fn full_runs_are_bit_reproducible() {
    let workload = by_name("PageRank").expect("bundled benchmark");
    let cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, 0xD00D).with_invocations(150);
    let a = run_closed_loop(&workload, &cfg);
    let b = run_closed_loop(&workload, &cfg);
    assert_eq!(a.latencies_us, b.latencies_us);
    assert_eq!(a.provisions, b.provisions);
    assert_eq!(a.checkpoint_ms, b.checkpoint_ms);
    assert_eq!(a.snapshot_mb, b.snapshot_mb);
}

#[test]
fn snapshot_pool_capacity_bounds_blobs_for_all_benchmarks() {
    for workload in [by_name("BFS").unwrap(), by_name("Hash").unwrap()] {
        let cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, 3).with_invocations(200);
        let result = run_closed_loop(&workload, &cfg);
        assert!(
            result.store_stats.objects <= 12,
            "{}: {} blobs pooled",
            workload.name(),
            result.store_stats.objects
        );
        // Evicted blobs must actually be deleted from the store.
        assert!(result.store_stats.deletes > 0);
    }
}

#[test]
fn trace_replay_through_facade() {
    let workload = by_name("Thumbnailer").expect("bundled benchmark");
    let factory = RngFactory::new(5);
    let trace = TraceSpec::percentile(0.75).generate(&mut factory.stream("t"));
    let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 5).with_invocations(0);
    let result = run(
        &workload,
        &cfg,
        ArrivalSpec::Trace(&trace),
        TopologySpec::Single,
    )
    .unwrap();
    assert_eq!(result.latencies_us.len(), trace.len());
}

#[test]
fn virtual_time_and_metrics_interoperate() {
    // The kind of analysis a downstream user writes: run, build a CDF,
    // read percentiles.
    let workload = by_name("WordCount").expect("bundled benchmark");
    let cfg = RunConfig::paper(PolicyKind::AfterFirst, 4, 9).with_invocations(120);
    let result = run_closed_loop(&workload, &cfg);
    let cdf = result.cdf().expect("non-empty latencies");
    let p50 = cdf.inverse(0.5);
    let p99 = cdf.inverse(0.99);
    assert!(p50 <= p99);
    assert!(cdf.eval(p99) >= 0.99);
    let q = Quantiles::new(result.latencies_us.clone()).unwrap();
    assert!((q.median() - result.median_us()).abs() < 1e-9);
}
