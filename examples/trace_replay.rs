//! Replay Azure-like production traces against the orchestrator — the
//! Figure 6 scenario as a runnable tool.
//!
//! ```text
//! cargo run --release --example trace_replay [percentile] [benchmark]
//! ```
//!
//! Synthesizes a 15-minute invocation trace for a function at the given
//! popularity percentile (default 75), replays it under all three
//! orchestration policies with idle-timeout eviction, and prints per-policy
//! latency distributions plus live pool statistics.

#![forbid(unsafe_code)]

use pronghorn::prelude::*;
use pronghorn::traces::Trace;

fn replay(workload: &dyn Workload, policy: PolicyKind, trace: &Trace, seed: u64) -> RunResult {
    // No deployment history: the trace is the function's first traffic.
    let cfg = RunConfig::paper(policy, 4, seed)
        .with_variance(InputVariance::low())
        .with_invocations(0);
    let plan = ArrivalSpec::Trace(trace);
    run(workload, &cfg, plan, TopologySpec::Single).expect("paper configs are valid")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let percentile: f64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .map(|p: f64| if p > 1.0 { p / 100.0 } else { p })
        .unwrap_or(0.75);
    let bench = args.next().unwrap_or_else(|| "MST".to_string());
    let Some(workload) = by_name(&bench) else {
        eprintln!("unknown benchmark: {bench}");
        std::process::exit(1);
    };

    let factory = RngFactory::new(2024);
    let trace = TraceSpec::percentile(percentile).generate(&mut factory.stream("trace"));
    println!(
        "trace: {} invocations in a 15-minute window ({}th-percentile function)",
        trace.len(),
        (percentile * 100.0) as u32
    );
    if let Some(gap) = trace.mean_gap() {
        println!("mean inter-arrival gap: {gap}");
    }
    if trace.is_empty() {
        println!("(an idle function — nothing to replay)");
        return;
    }
    println!("workload: {bench} on {}\n", workload.kind().label());

    let mut medians = Vec::new();
    for policy in [
        PolicyKind::Cold,
        PolicyKind::AfterFirst,
        PolicyKind::RequestCentric,
    ] {
        let result = replay(&workload, policy, &trace, 2024);
        println!("policy {:<16}", policy.label());
        println!(
            "  latency: median {:>9.0}µs   p90 {:>9.0}µs   max {:>9.0}µs",
            result.median_us(),
            result.percentile_us(90.0),
            result.percentile_us(100.0),
        );
        println!(
            "  workers: {:>2} provisioned ({} cold, {} restored)   checkpoints: {}   pool blobs: {}",
            result.provisions.len(),
            result.cold_starts(),
            result.restores(),
            result.checkpoint_ms.len(),
            result.store_stats.objects,
        );
        medians.push((policy, result.median_us()));
        println!();
    }

    if trace.len() < 10 {
        println!(
            "note: with only {} requests this is the paper's pathological\n\
             regime (§5.2: a 50th-percentile MST trace with 3 requests) —\n\
             the policy cannot learn anything useful in one window.",
            trace.len()
        );
    } else if let Some(imp) = pronghorn::metrics::median_improvement_pct(medians[1].1, medians[2].1)
    {
        println!("request-centric vs after-1st: {imp:+.1}% median");
    }
}
