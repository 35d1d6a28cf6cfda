//! Edge-case integration tests for the platform's entry point.

#![forbid(unsafe_code)]

use pronghorn_core::{PolicyKind, SelectionStrategy};
use pronghorn_platform::{run, ArrivalSpec, RunConfig, RunResult, TopologySpec};
use pronghorn_sim::{SimDuration, SimTime};
use pronghorn_traces::Trace;
use pronghorn_workloads::{by_name, InputVariance, Workload};
use std::num::NonZeroU32;

fn cfg(policy: PolicyKind) -> RunConfig {
    RunConfig::paper(policy, 4, 1).with_variance(InputVariance::none())
}

fn run_closed_loop(workload: &dyn Workload, c: &RunConfig) -> RunResult {
    run(workload, c, ArrivalSpec::ClosedLoop, TopologySpec::Single).unwrap()
}

/// The trace window alone, with no deployment history.
fn run_trace(workload: &dyn Workload, c: &RunConfig, trace: &Trace) -> RunResult {
    let (c, plan) = (c.with_invocations(0), ArrivalSpec::Trace(trace));
    run(workload, &c, plan, TopologySpec::Single).unwrap()
}

#[test]
fn empty_trace_produces_empty_result() {
    let bench = by_name("MST").unwrap();
    let trace = Trace::new(Vec::new(), SimDuration::from_secs(900));
    let result = run_trace(&bench, &cfg(PolicyKind::RequestCentric), &trace);
    assert!(result.latencies_us.is_empty());
    assert!(result.provisions.is_empty());
    assert!(result.median_us().is_nan());
}

#[test]
fn single_invocation_run_works_for_all_policies() {
    let bench = by_name("Hash").unwrap();
    for policy in [
        PolicyKind::Cold,
        PolicyKind::AfterFirst,
        PolicyKind::AfterInit,
        PolicyKind::RequestCentric,
    ] {
        let result = run_closed_loop(&bench, &cfg(policy).with_invocations(1));
        assert_eq!(result.latencies_us.len(), 1, "{policy:?}");
        assert_eq!(result.provisions.len(), 1);
    }
}

#[test]
fn after_init_policy_snapshots_before_first_request() {
    let bench = by_name("DFS").unwrap();
    let result = run_closed_loop(&bench, &cfg(PolicyKind::AfterInit).with_invocations(40));
    assert_eq!(result.checkpoint_ms.len(), 1);
    assert_eq!(result.snapshot_requests, vec![0]);
    // Restored workers resume at 0 and therefore pay lazy init on their
    // first request — the §5.1 inferiority.
    let first = run_closed_loop(&bench, &cfg(PolicyKind::AfterFirst).with_invocations(40));
    assert!(result.median_us() >= first.median_us());
}

#[test]
fn zero_invocations_is_a_noop() {
    let bench = by_name("BFS").unwrap();
    let result = run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric).with_invocations(0));
    assert!(result.latencies_us.is_empty());
    assert_eq!(result.checkpoint_ms.len(), 0);
}

#[test]
fn all_selection_strategies_complete_runs() {
    let bench = by_name("DFS").unwrap();
    for strategy in [
        SelectionStrategy::Softmax,
        SelectionStrategy::Greedy,
        SelectionStrategy::Uniform,
    ] {
        let policy_config = pronghorn_core::PolicyConfig::paper_pypy().with_selection(strategy);
        let run_cfg = cfg(PolicyKind::RequestCentric)
            .with_invocations(80)
            .with_policy_config(policy_config);
        let result = run_closed_loop(&bench, &run_cfg);
        assert_eq!(result.latencies_us.len(), 80, "{strategy:?}");
        assert!(result.restores() > 0, "{strategy:?} never restored");
    }
}

#[test]
fn beta_misestimation_still_serves_all_requests() {
    let bench = by_name("DFS").unwrap();
    // Overestimate: workers actually die after 1 request but the policy
    // plans for 20 — checkpoints planned beyond the true lifetime are
    // simply never reached.
    let over = RunConfig::paper(PolicyKind::RequestCentric, 1, 2)
        .with_invocations(150)
        .with_beta_estimate(20);
    let result = run_closed_loop(&bench, &over);
    assert_eq!(result.latencies_us.len(), 150);
    // Fewer checkpoints than lifetimes (some plans land past request 1).
    assert!(result.checkpoint_ms.len() < 150);
}

#[test]
fn fleet_of_one_with_zero_explorers_is_all_cold() {
    let bench = by_name("Hash").unwrap();
    let fleet = TopologySpec::Fleet {
        workers: NonZeroU32::MIN,
        explorers: 0,
    };
    let c = cfg(PolicyKind::RequestCentric).with_invocations(60);
    let result = run(&bench, &c, ArrivalSpec::ClosedLoop, fleet).unwrap();
    assert_eq!(result.cold_starts(), result.provisions.len());
}

#[test]
fn partitioned_with_many_classes_still_serves_everything() {
    let bench = by_name("DFS").unwrap();
    let run_cfg = cfg(PolicyKind::RequestCentric)
        .with_invocations(90)
        .with_variance(InputVariance::paper());
    let classes = TopologySpec::Classes(NonZeroU32::new(5).unwrap());
    let result = run(&bench, &run_cfg, ArrivalSpec::ClosedLoop, classes).unwrap();
    assert_eq!(result.latencies_us.len(), 90);
    assert!(result
        .latencies_us
        .iter()
        .all(|&l| l.is_finite() && l > 0.0));
}

#[test]
fn trace_with_all_arrivals_at_once_reuses_one_worker() {
    let bench = by_name("MST").unwrap();
    let arrivals = vec![SimTime::from_micros(1); 10];
    let trace = Trace::new(arrivals, SimDuration::from_secs(900));
    let result = run_trace(&bench, &cfg(PolicyKind::Cold), &trace);
    assert_eq!(result.latencies_us.len(), 10);
    // No idle gaps: a single worker serves the burst.
    assert_eq!(result.provisions.len(), 1);
}

#[test]
fn checkpoint_stop_zero_disables_checkpointing_entirely() {
    let bench = by_name("DFS").unwrap();
    let run_cfg = cfg(PolicyKind::RequestCentric)
        .with_invocations(80)
        .with_checkpoint_stop(0);
    let result = run_closed_loop(&bench, &run_cfg);
    assert!(result.checkpoint_ms.is_empty());
    assert_eq!(result.cold_starts(), result.provisions.len());
}
