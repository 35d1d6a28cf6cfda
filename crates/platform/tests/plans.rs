//! `run`: every arrival source on every topology, every rejected
//! configuration, the frozen wrappers, and the fleet and class plans.

#![forbid(unsafe_code)]

use pronghorn_core::{PolicyConfig, PolicyKind};
use pronghorn_platform::{
    run, run_closed_loop, run_cluster, ArrivalSpec, ClusterSpec, ConfigError, ForecasterKind,
    ProvisionPolicy, RoutingPolicy, RunConfig, RunResult, TopologySpec,
};
use pronghorn_sim::{SimDuration, SimTime};
use pronghorn_traces::Trace;
use pronghorn_workloads::{by_name, InputVariance};

fn fleet(workers: u32, explorers: u32) -> TopologySpec {
    let workers = workers.try_into().unwrap();
    TopologySpec::Fleet { workers, explorers }
}

fn classes(n: u32) -> TopologySpec {
    TopologySpec::Classes(n.try_into().unwrap())
}

fn fleet_cfg(policy: PolicyKind) -> RunConfig {
    RunConfig::paper(policy, 4, 99)
        .with_invocations(240)
        .with_variance(InputVariance::none())
}

fn closed(bench: &str, c: &RunConfig, topology: TopologySpec) -> Result<RunResult, ConfigError> {
    let workload = by_name(bench).unwrap();
    run(&workload, c, ArrivalSpec::ClosedLoop, topology)
}

/// Equality of every simulated output (`codec` carries host timers).
fn assert_same_run(a: &RunResult, b: &RunResult) {
    let sim = |r: &RunResult| {
        let codec = Default::default();
        format!("{:?}", RunResult { codec, ..r.clone() })
    };
    assert_eq!(sim(a), sim(b));
}

#[test]
fn every_arrival_source_on_every_topology_serves_every_arrival() {
    let workload = by_name("Hash").unwrap();
    // Two bursts of ten arrivals 2 s apart, twenty minutes apart.
    let arrivals = (0..20u64)
        .map(|k| SimTime::from_micros((k / 10 * 1_200 + k % 10 * 2) * 1_000_000))
        .collect();
    let trace = Trace::new(arrivals, SimDuration::from_secs(3_600));
    let base = RunConfig::paper(PolicyKind::RequestCentric, 4, 11)
        .with_invocations(40)
        .with_variance(InputVariance::bimodal())
        .with_provision(ProvisionPolicy::predictive(ForecasterKind::SlidingWindow));
    let topologies = [
        TopologySpec::Single,
        fleet(3, 1),
        classes(2),
        TopologySpec::Cluster,
    ];
    let (mut issued, mut encodes) = (0, 0);
    for topology in topologies {
        let c = match topology {
            // One slot on the ring owner: a window request would queue
            // behind the history's last busy instant if it carried over.
            TopologySpec::Cluster => base.with_cluster(ClusterSpec::new(3)),
            _ => base,
        };
        for (arrivals, served) in [
            (ArrivalSpec::ClosedLoop, 40),
            (ArrivalSpec::Trace(&trace), trace.len()),
        ] {
            let label = format!("{arrivals:?} on {topology:?}");
            let r = run(&workload, &c, arrivals, topology).unwrap();
            assert_eq!(r.latencies_us.len(), served, "{label}");
            // Finite, and no window request waits for the history's clock.
            let finite = |&l: &f64| l > 0.0 && l < 60e6;
            assert!(r.latencies_us.iter().all(finite), "{label}");
            let sum = |f: fn(&pronghorn_platform::NodeBreakdown) -> u64| -> u64 {
                r.nodes.iter().map(f).sum()
            };
            assert_eq!(sum(|n| n.served), served as u64, "{label}");
            let provisioned = sum(|n| n.cold_starts + n.restores);
            assert_eq!(provisioned, r.provisions.len() as u64, "{label}");
            assert_eq!(sum(|n| n.local_hits + n.remote_misses), sum(|n| n.restores));
            let l = r.locality;
            assert_eq!(
                l.local_hits + l.remote_misses,
                sum(|n| n.restores),
                "{label}"
            );
            // Every restored byte is a store download or a cross-node
            // transfer, over the same span: the history's are not reported.
            let moved = r.overheads.nominal_bytes_downloaded + l.remote_bytes;
            assert_eq!(r.restore_bytes(), moved, "{label}");
            // One encode and one recorded snapshot per checkpoint, over
            // the same span, however many slots, deployments or nodes.
            let checkpoints = r.checkpoint_ms.len() as u64;
            assert_eq!(r.codec.encodes, checkpoints, "{label}");
            assert_eq!(r.overheads.checkpoints, checkpoints, "{label}");
            encodes += checkpoints;
            let p = r.provisioning;
            let resolved = p.pre_restores_used + p.pre_restores_wasted;
            assert_eq!(p.pre_restores_issued, resolved, "{label}: {p:?}");
            issued += p.pre_restores_issued;
        }
    }
    assert!(issued > 0, "no pair pre-restored");
    assert!(encodes > 0, "no pair checkpointed");
}

#[test]
fn a_trace_window_reports_only_its_own_counters() {
    // Four load-aware nodes of one slot each; 120 arrivals 1 ms apart
    // after the closed-loop history.
    let workload = by_name("Hash").unwrap();
    let arrivals = (0..120).map(|k| SimTime::from_micros(k * 1_000)).collect();
    let trace = Trace::new(arrivals, SimDuration::from_secs(1));
    let spec = ClusterSpec::new(4)
        .with_capacity(1)
        .with_routing(RoutingPolicy::LoadAware);
    let c = RunConfig::paper(PolicyKind::RequestCentric, 1, 7)
        .with_invocations(120)
        .with_cluster(spec);
    let r = run(
        &workload,
        &c,
        ArrivalSpec::Trace(&trace),
        TopologySpec::Cluster,
    )
    .unwrap();
    assert_eq!(r.latencies_us.len(), 120);
    let moved = r.overheads.nominal_bytes_downloaded + r.locality.remote_bytes;
    assert_eq!(r.restore_bytes(), moved);
    // The orchestrator's and the codec's counters cover the same window
    // as the latencies.
    assert_eq!(r.overheads.requests, 120);
    assert_eq!(r.overheads.startups as usize, r.provisions.len());
    assert_eq!(r.overheads.checkpoints as usize, r.checkpoint_ms.len());
    assert_eq!(r.codec.encodes as usize, r.checkpoint_ms.len());
    assert_eq!(r.store_stats.puts as usize, r.checkpoint_ms.len());
}

#[test]
fn closed_loop_evicts_idle_workers() {
    // Four requests per worker, but each sits idle past the timeout.
    let c = fleet_cfg(PolicyKind::Cold).with_invocations(20);
    let idle = c.with_idle_timeout(SimDuration::from_secs(30));
    let single = TopologySpec::Single;
    assert_eq!(closed("DFS", &idle, single).unwrap().provisions.len(), 20);
    assert_eq!(closed("DFS", &c, single).unwrap().provisions.len(), 5);
}

#[test]
fn a_closed_loop_probes_idle_workers_and_pre_restores() {
    // Every worker idles past the timeout before the next arrival, and
    // none is evicted by count: only an idle probe retires it on time,
    // and only that retirement plans a pre-restore.
    let mut c = RunConfig::paper(PolicyKind::RequestCentric, 1_000, 5)
        .with_invocations(60)
        .with_idle_timeout(SimDuration::from_secs(30))
        .with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma));
    c.request_gap = SimDuration::from_secs(40);
    let r = closed("Hash", &c, TopologySpec::Single).unwrap();
    let p = r.provisioning;
    assert!(p.pre_restores_used > 0, "{p:?}");
    let resolved = p.pre_restores_used + p.pre_restores_wasted;
    assert_eq!(p.pre_restores_issued, resolved, "{p:?}");
}

#[test]
fn a_cluster_shape_outside_the_cluster_topology_is_rejected() {
    let spec = ClusterSpec::new(4);
    let c = RunConfig::paper(PolicyKind::RequestCentric, 4, 1).with_cluster(spec);
    for topology in [TopologySpec::Single, fleet(2, 1), classes(2)] {
        let err = closed("Hash", &c, topology).unwrap_err();
        assert_eq!(err, ConfigError::ClusterShape(spec), "{topology:?}");
    }
    // A cluster needs a node with a slot.
    let mut empty = spec;
    empty.capacity = 0;
    let err = closed("Hash", &c.with_cluster(empty), TopologySpec::Cluster).unwrap_err();
    assert_eq!(err, ConfigError::ClusterShape(empty));
}

#[test]
fn more_explorers_than_workers_is_rejected() {
    let c = RunConfig::paper(PolicyKind::RequestCentric, 4, 1);
    let err = closed("Hash", &c, fleet(2, 3)).unwrap_err();
    let expected = ConfigError::Explorers {
        explorers: 3,
        workers: 2,
    };
    assert_eq!(err, expected);
    assert_eq!(err.to_string(), "3 explorers exceed 2 workers");
}

#[test]
fn an_invalid_policy_config_is_rejected_before_the_run() {
    let bad = PolicyConfig {
        alpha: 2.0,
        ..PolicyConfig::paper_pypy()
    };
    let c = RunConfig::paper(PolicyKind::RequestCentric, 4, 1).with_policy_config(bad);
    let err = closed("Hash", &c, TopologySpec::Single).unwrap_err();
    let alpha = pronghorn_core::ConfigError::AlphaOutOfRange { alpha: 2.0 };
    assert_eq!(err, ConfigError::Policy(alpha));
}

#[test]
fn closed_loop_wrapper_runs_the_cluster_it_is_given() {
    let workload = by_name("Hash").unwrap();
    let spec = ClusterSpec::new(4).with_capacity(2);
    let mut c = RunConfig::paper(PolicyKind::RequestCentric, 4, 3)
        .with_invocations(120)
        .with_cluster(spec.with_routing(RoutingPolicy::LoadAware));
    c.request_gap = SimDuration::from_millis(1);
    let cluster = run_cluster(&workload, &c);
    assert_same_run(&run_closed_loop(&workload, &c), &cluster.result);
    assert_eq!(cluster.result.nodes.len(), 4);
    assert!(cluster.spillovers() > 0);
}

#[test]
fn fleet_serves_every_arrival() {
    let r = closed("DFS", &fleet_cfg(PolicyKind::RequestCentric), fleet(4, 1)).unwrap();
    assert_eq!(r.latencies_us.len(), 240);
    assert!(r.checkpoint_ms.len() > 1);
}

#[test]
fn single_worker_fleet_matches_closed_loop_shape() {
    let r = closed("DFS", &fleet_cfg(PolicyKind::RequestCentric), fleet(1, 1)).unwrap();
    // Same protocol as the closed loop: one provision per lifetime.
    assert_eq!(r.provisions.len(), 240 / 4);
}

#[test]
fn explorers_knob_bounds_checkpointers() {
    let c = fleet_cfg(PolicyKind::RequestCentric);
    let none = closed("DFS", &c, fleet(4, 0)).unwrap();
    assert!(none.checkpoint_ms.is_empty());
    // Zero explorers never snapshot: every provision is a cold start.
    assert_eq!(none.cold_starts(), none.provisions.len());
    let all = closed("DFS", &c, fleet(4, 4)).unwrap();
    let one = closed("DFS", &c, fleet(4, 1)).unwrap();
    assert!(all.checkpoint_ms.len() > one.checkpoint_ms.len());
}

#[test]
fn non_explorers_still_benefit_from_shared_snapshots() {
    // §5.3's amortization: one explorer is enough for the whole fleet.
    let shared = closed("DFS", &fleet_cfg(PolicyKind::RequestCentric), fleet(4, 1)).unwrap();
    let (restores, provisions) = (shared.restores(), shared.provisions.len());
    assert!(restores > provisions / 2, "{restores} of {provisions}");
    // And it beats a no-checkpoint fleet.
    let cold = closed("DFS", &fleet_cfg(PolicyKind::Cold), fleet(4, 1)).unwrap();
    assert!(shared.median_us() < cold.median_us());
}

#[test]
fn fleet_runs_are_reproducible() {
    let c = fleet_cfg(PolicyKind::RequestCentric);
    let [a, b] = [0, 1].map(|_| closed("Hash", &c, fleet(4, 1)).unwrap());
    assert_same_run(&a, &b);
}

#[test]
fn partitioned_run_serves_every_request() {
    let c = RunConfig::paper(PolicyKind::RequestCentric, 4, 31)
        .with_invocations(160)
        .with_variance(InputVariance::bimodal());
    let r = closed("DFS", &c, classes(2)).unwrap();
    assert_eq!(r.latencies_us.len(), 160);
    assert!(r.checkpoint_ms.len() > 2);
}

#[test]
fn specialization_beats_the_shared_deployment_on_bimodal_input() {
    // §6: per-pattern orchestrators fit bimodal traffic better than one.
    let c = RunConfig::paper(PolicyKind::RequestCentric, 1, 5150)
        .with_invocations(400)
        .with_variance(InputVariance::bimodal());
    let shared = closed("PageRank", &c, TopologySpec::Single).unwrap();
    let split = closed("PageRank", &c, classes(2)).unwrap();
    let (s, p) = (shared.median_us(), split.median_us());
    assert!(p < s * 1.02, "partitioned {p} vs shared {s}");
}

#[test]
fn one_class_matches_request_count_of_shared() {
    let c = RunConfig::paper(PolicyKind::AfterFirst, 4, 9).with_invocations(60);
    assert_eq!(
        closed("Hash", &c, classes(1)).unwrap().latencies_us.len(),
        60
    );
}
