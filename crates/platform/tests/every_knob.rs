//! Every runner honours every knob: the fleet, partitioned and trace
//! runners restore, checkpoint and provision through the same session as
//! the closed loop, so the restore strategy, delta chains and predictive
//! provisioning apply to them too.

#![forbid(unsafe_code)]

use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{
    run_fleet, run_partitioned, run_trace, FleetConfig, ForecasterKind, ProvisionPolicy,
    ProvisionStats, RestoreStrategy, RunConfig, RunResult,
};
use pronghorn_sim::{SimDuration, SimTime};
use pronghorn_traces::Trace;
use pronghorn_workloads::{by_name, InputVariance};

fn cfg(policy: PolicyKind, rate: u32) -> RunConfig {
    RunConfig::paper(policy, rate, 17)
        .with_invocations(160)
        .with_variance(InputVariance::bimodal())
}

/// The fleet and partitioned runs of one workload under `c`.
fn fleet_and_partitioned(bench: &str, c: &RunConfig) -> [RunResult; 2] {
    let workload = by_name(bench).unwrap();
    [
        run_fleet(&workload, c, &FleetConfig::default()),
        run_partitioned(&workload, c, 2),
    ]
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
    let r = run_trace(&by_name("Uploader").unwrap(), &c, &trace);
    assert_eq!(r.latencies_us.len(), trace.len());
    assert_conserved(&r.provisioning, "trace");
    // Without the knob the same trace issues nothing.
    let reactive = run_trace(
        &by_name("Uploader").unwrap(),
        &cfg(PolicyKind::RequestCentric, 4),
        &trace,
    );
    assert_eq!(reactive.provisioning, ProvisionStats::default());
}
