//! Every topology and arrival source honours every knob: fleets, input
//! classes and trace windows restore, checkpoint and provision through the
//! same session as the closed loop, so the restore strategy, delta chains
//! and predictive provisioning apply to them too.

#![forbid(unsafe_code)]

use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{
    run, ArrivalSpec, ForecasterKind, ProvisionPolicy, ProvisionStats, RestoreStrategy, RunConfig,
    RunResult, TopologySpec,
};
use pronghorn_sim::{SimDuration, SimTime};
use pronghorn_traces::Trace;
use pronghorn_workloads::{by_name, InputVariance};
use std::num::NonZeroU32;

fn cfg(policy: PolicyKind, rate: u32) -> RunConfig {
    RunConfig::paper(policy, rate, 17)
        .with_invocations(160)
        .with_variance(InputVariance::bimodal())
}

/// The closed loop of one workload under `c` on a fleet of four workers
/// with one explorer, and on two input classes.
fn fleet_and_partitioned(bench: &str, c: &RunConfig) -> [RunResult; 2] {
    let workload = by_name(bench).unwrap();
    let fleet = TopologySpec::Fleet {
        workers: NonZeroU32::new(4).unwrap(),
        explorers: 1,
    };
    let classes = TopologySpec::Classes(NonZeroU32::new(2).unwrap());
    [fleet, classes].map(|t| run(&workload, c, ArrivalSpec::ClosedLoop, t).unwrap())
}

/// The trace window alone, with no deployment history.
fn run_trace(c: &RunConfig, trace: &Trace) -> RunResult {
    let workload = by_name("Uploader").unwrap();
    let (c, plan) = (c.with_invocations(0), ArrivalSpec::Trace(trace));
    run(&workload, &c, plan, TopologySpec::Single).unwrap()
}

fn assert_conserved(p: &ProvisionStats, runner: &str) {
    assert!(p.pre_restores_issued > 0, "{runner}: {p:?}");
    assert_eq!(
        p.pre_restores_issued,
        p.pre_restores_used + p.pre_restores_wasted,
        "{runner}: {p:?}"
    );
}

#[test]
fn fleet_and_partitioned_honour_record_prefetch() {
    let c = cfg(PolicyKind::AfterFirst, 4).with_restore(RestoreStrategy::RecordPrefetch);
    for (runner, r) in ["fleet", "partitioned"]
        .iter()
        .zip(fleet_and_partitioned("DFS", &c))
    {
        assert_eq!(
            r.restore_strategy,
            RestoreStrategy::RecordPrefetch,
            "{runner}"
        );
        assert!(r.prefetched_pages() > 0, "{runner}: nothing prefetched");
        assert_eq!(r.restore_infos.len(), r.restores(), "{runner}");
    }
}

#[test]
fn fleet_and_partitioned_honour_delta_chains() {
    let c = cfg(PolicyKind::RequestCentric, 1).with_delta(DeltaPolicy::Enabled { max_depth: 4 });
    for (runner, r) in ["fleet", "partitioned"]
        .iter()
        .zip(fleet_and_partitioned("DFS", &c))
    {
        assert!(r.chain.deltas > 0, "{runner}: {:?}", r.chain);
        assert!(r.chain.max_depth <= 4, "{runner}: {:?}", r.chain);
    }
}

#[test]
fn fleet_and_partitioned_honour_predictive_provisioning() {
    let c = cfg(PolicyKind::RequestCentric, 1)
        .with_provision(ProvisionPolicy::predictive(ForecasterKind::SlidingWindow));
    for (runner, r) in ["fleet", "partitioned"]
        .iter()
        .zip(fleet_and_partitioned("Uploader", &c))
    {
        assert_conserved(&r.provisioning, runner);
        assert_eq!(r.latencies_us.len(), 160, "{runner}");
    }
}

#[test]
fn trace_window_honours_predictive_provisioning() {
    // Bursts of ten arrivals 2 s apart, one every two minutes: the slot
    // idles out between bursts, and the forecast re-warms it.
    let arrivals = (0..7u64)
        .flat_map(|burst| {
            (0..10u64).map(move |k| SimTime::from_micros((burst * 120 + k * 2) * 1_000_000))
        })
        .collect();
    let trace = Trace::new(arrivals, SimDuration::from_secs(900));
    let c = cfg(PolicyKind::RequestCentric, 4)
        .with_idle_timeout(SimDuration::from_secs(30))
        .with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma));
    let r = run_trace(&c, &trace);
    assert_eq!(r.latencies_us.len(), trace.len());
    assert_conserved(&r.provisioning, "trace");
    // Without the knob the same trace issues nothing.
    let reactive = run_trace(&cfg(PolicyKind::RequestCentric, 4), &trace);
    assert_eq!(reactive.provisioning, ProvisionStats::default());
}
