//! Cluster mode ([`TopologySpec::Cluster`]): `cfg.cluster`'s nodes behind
//! a deterministic consistent-hash gateway.
//!
//! - **Routing.** A function's invocations land on its ring owner
//!   ([`pronghorn_cluster::HashRing::route`]); under
//!   [`RoutingPolicy::LoadAware`](pronghorn_cluster::RoutingPolicy) an arrival
//!   that finds the owner saturated probes the ring successors in
//!   deterministic ring order and serves on the first node with a free
//!   worker slot (falling back to the owner's queue when the whole
//!   cluster is busy).
//! - **Capacity and queueing.** Each node has `capacity` worker slots. A
//!   request arriving while its slot is still serving the previous one
//!   waits; that queueing delay is added to the client-visible latency
//!   (the policy still observes the execution latency — queueing is a
//!   placement artifact, not a property of the worker).
//! - **Locality.** Snapshot blobs live in the shared content-addressed
//!   object store, but *residency* is per node
//!   ([`pronghorn_cluster::BlobDirectory`]): a restore on the node that
//!   checkpointed (or previously fetched) the blob is a local hit at the
//!   single-node price; anywhere else it pays the cross-node fetch the
//!   storage tier prices (the flat store's serial walk of the composed
//!   chain at Table 5 bandwidth by default), and the cross-node
//!   snapshot age feeds the staleness model (`IoStaleModel::penalty_frac_aged`).
//!
//! The whole cluster shares one deployment — one orchestrator, snapshot
//! pool and set of seeded RNG streams — so the `nodes = 1` run replays
//! the exact event sequence of [`crate::run_closed_loop`] and is pinned
//! byte-identical to it (see the goldens in `tests/`).

use crate::config::RunConfig;
use crate::plan::{run, ArrivalSpec, TopologySpec};
use crate::result::{NodeBreakdown, RunResult};
use pronghorn_cluster::{ClusterSpec, LocalityStats};
use pronghorn_workloads::Workload;

/// Result of a [`run_cluster`] run: the [`RunResult`] with its cluster
/// shape, and copies of its per-node breakdowns and locality counters.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// The measurements (latencies include queueing delay).
    pub result: RunResult,
    /// The cluster shape the run used.
    pub spec: ClusterSpec,
    /// Per-node counters, indexed by node.
    pub nodes: Vec<NodeBreakdown>,
    /// Cluster-wide locality counters.
    pub locality: LocalityStats,
}

impl ClusterRunResult {
    /// Fraction of restores served from a node-resident blob.
    pub fn locality_hit_rate(&self) -> f64 {
        self.locality.hit_rate()
    }

    /// Total queueing delay across all nodes (µs).
    pub fn total_queue_delay_us(&self) -> f64 {
        self.nodes.iter().map(|n| n.queue_delay_us).sum()
    }

    /// Total requests served off their ring-owner node.
    pub fn spillovers(&self) -> u64 {
        self.nodes.iter().map(|n| n.spillovers).sum()
    }

    /// Total requests served (conservation: equals the configured
    /// invocation count).
    pub fn served(&self) -> u64 {
        self.nodes.iter().map(|n| n.served).sum()
    }
}

/// Runs the closed loop on `cfg.cluster`: [`run`] with
/// [`TopologySpec::Cluster`]. Kept for the `benchmark/` package and removed
/// in the next change to the benchmark.
///
/// # Panics
///
/// Panics where [`run`] returns a [`crate::ConfigError`]: an invalid
/// policy configuration or a cluster without nodes or slots.
///
/// # Examples
///
/// ```
/// use pronghorn_core::PolicyKind;
/// use pronghorn_platform::{run_cluster, ClusterSpec, RunConfig};
/// use pronghorn_workloads::by_name;
///
/// let workload = by_name("Hash").unwrap();
/// let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 7)
///     .with_invocations(40)
///     .with_cluster(ClusterSpec::new(4).with_capacity(2));
/// let r = run_cluster(&workload, &cfg);
/// assert_eq!(r.served(), 40);
/// assert!(r.locality_hit_rate() >= 0.0);
/// ```
pub fn run_cluster(workload: &dyn Workload, cfg: &RunConfig) -> ClusterRunResult {
    let result = run(
        workload,
        cfg,
        ArrivalSpec::ClosedLoop,
        TopologySpec::Cluster,
    )
    .unwrap_or_else(|e| panic!("run_cluster: {e}"));
    ClusterRunResult {
        spec: cfg.cluster,
        nodes: result.nodes.clone(),
        locality: result.locality,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_closed_loop;
    use pronghorn_cluster::{PlacementPolicy, RoutingPolicy};
    use pronghorn_core::PolicyKind;
    use pronghorn_sim::SimDuration;
    use pronghorn_workloads::{by_name, InputVariance};

    fn cfg(policy: PolicyKind, rate: u32) -> RunConfig {
        RunConfig::paper(policy, rate, 42)
            .with_invocations(120)
            .with_variance(InputVariance::none())
    }

    /// Full simulated-behaviour equality between two runs — every field
    /// except `codec`, whose wall-clock counters are not deterministic.
    fn assert_same_run(a: &RunResult, b: &RunResult) {
        let sim = |r: &RunResult| {
            let codec = Default::default();
            format!("{:?}", RunResult { codec, ..r.clone() })
        };
        assert_eq!(sim(a), sim(b));
    }

    fn assert_same_cluster_run(a: &ClusterRunResult, b: &ClusterRunResult) {
        assert_same_run(&a.result, &b.result);
        assert_eq!(a.spec, b.spec);
    }

    /// A request gap far below the benchmarks' service times, so the ring
    /// owner saturates and load-aware routing has something to do.
    fn contended(policy: PolicyKind, rate: u32) -> RunConfig {
        let mut c = cfg(policy, rate);
        c.request_gap = SimDuration::from_millis(1);
        c
    }

    #[test]
    fn single_node_cluster_is_byte_identical_to_the_closed_loop() {
        for bench in ["DFS", "Hash", "Uploader"] {
            let bench = by_name(bench).unwrap();
            let c = cfg(PolicyKind::RequestCentric, 4);
            assert_eq!(c.cluster, ClusterSpec::single_node());
            let single = run_closed_loop(&bench, &c);
            let cluster = run_cluster(&bench, &c);
            assert_same_run(&single, &cluster.result);
            assert_eq!(cluster.locality.remote_misses, 0);
            assert_eq!(cluster.locality.remote_bytes, 0);
            assert_eq!(cluster.locality_hit_rate(), 1.0);
            assert_eq!(cluster.spillovers(), 0);
            assert_eq!(cluster.total_queue_delay_us(), 0.0);
        }
    }

    #[test]
    fn cluster_runs_are_reproducible_by_seed() {
        let bench = by_name("MatrixMult").unwrap();
        let c = contended(PolicyKind::RequestCentric, 1).with_cluster(
            ClusterSpec::new(8)
                .with_capacity(2)
                .with_routing(RoutingPolicy::LoadAware),
        );
        let a = run_cluster(&bench, &c);
        let b = run_cluster(&bench, &c);
        assert_same_cluster_run(&a, &b);
    }

    #[test]
    fn every_arrival_is_served_exactly_once_within_capacity() {
        for routing in RoutingPolicy::ALL {
            let c = contended(PolicyKind::RequestCentric, 4)
                .with_cluster(ClusterSpec::new(4).with_capacity(2).with_routing(routing));
            let bench = by_name("DFS").unwrap();
            let r = run_cluster(&bench, &c);
            assert_eq!(r.served(), 120, "{routing:?}");
            assert_eq!(r.result.latencies_us.len(), 120, "{routing:?}");
            for node in &r.nodes {
                assert!(
                    node.peak_workers <= c.cluster.capacity,
                    "{routing:?}: node {} peaked at {}",
                    node.node,
                    node.peak_workers
                );
                assert_eq!(node.local_hits + node.remote_misses, node.restores);
            }
            let provisioned: u64 = r.nodes.iter().map(|n| n.cold_starts + n.restores).sum();
            assert_eq!(provisioned, r.result.provisions.len() as u64, "{routing:?}");
        }
    }

    #[test]
    fn hash_routing_never_leaves_the_ring_owner() {
        let bench = by_name("Hash").unwrap();
        let c = contended(PolicyKind::RequestCentric, 4)
            .with_cluster(ClusterSpec::new(4).with_capacity(2));
        let r = run_cluster(&bench, &c);
        assert_eq!(r.spillovers(), 0);
        let busy: Vec<_> = r.nodes.iter().filter(|n| n.served > 0).collect();
        assert_eq!(busy.len(), 1, "hash routing pins one function to one node");
        // Saturation shows up as queueing, not as spillover.
        assert!(r.total_queue_delay_us() > 0.0);
        // All checkpoints and restores stay on the owner: perfect locality.
        assert_eq!(r.locality.remote_misses, 0);
    }

    #[test]
    fn spillover_happens_only_under_saturation() {
        let bench = by_name("Hash").unwrap();
        let spec = ClusterSpec::new(4)
            .with_capacity(2)
            .with_routing(RoutingPolicy::LoadAware);
        // At the paper's 60 s gap the owner is always free: no spillover,
        // and the run matches pure hash routing exactly.
        let calm = run_cluster(
            &bench,
            &cfg(PolicyKind::RequestCentric, 4).with_cluster(spec),
        );
        assert_eq!(calm.spillovers(), 0);
        assert_eq!(calm.nodes.iter().filter(|n| n.served > 0).count(), 1);
        // Under contention the owner saturates and successors pick up load.
        let hot = run_cluster(
            &bench,
            &contended(PolicyKind::RequestCentric, 4).with_cluster(spec),
        );
        assert!(hot.spillovers() > 0);
        assert!(hot.nodes.iter().filter(|n| n.served > 0).count() > 1);
    }

    #[test]
    fn remote_misses_pay_transfer_bytes_and_age() {
        let bench = by_name("Hash").unwrap();
        let spec = ClusterSpec::new(4)
            .with_capacity(1)
            .with_routing(RoutingPolicy::LoadAware);
        let r = run_cluster(
            &bench,
            &contended(PolicyKind::RequestCentric, 1).with_cluster(spec),
        );
        // Spilled-over restores fetch blobs checkpointed on other nodes.
        assert!(r.locality.remote_misses > 0, "{:?}", r.locality);
        assert!(r.locality.remote_bytes > 0);
        assert!(r.locality.remote_us > 0.0);
        assert!(r.locality.remote_age_us > 0.0);
        assert!(r.locality_hit_rate() < 1.0);
        // Every restored byte is either a store download or a cross-node
        // transfer — the conservation law the ablation reports ride on.
        assert_eq!(
            r.result.restore_bytes(),
            r.result.overheads.nominal_bytes_downloaded + r.locality.remote_bytes
        );
        // The same run on one node has no remote dimension at all.
        let single = run_cluster(
            &bench,
            &contended(PolicyKind::RequestCentric, 1).with_cluster(ClusterSpec::single_node()),
        );
        assert_eq!(single.locality.remote_misses, 0);
        assert_eq!(single.locality.remote_age_us, 0.0);
        assert_eq!(
            single.result.restore_bytes(),
            single.result.overheads.nominal_bytes_downloaded
        );
    }

    #[test]
    fn replicate_placement_trades_background_bytes_for_hits() {
        let bench = by_name("Hash").unwrap();
        let local = ClusterSpec::new(4)
            .with_capacity(1)
            .with_routing(RoutingPolicy::LoadAware);
        let repl = local.with_placement(PlacementPolicy::Replicate);
        let c = contended(PolicyKind::RequestCentric, 1);
        let l = run_cluster(&bench, &c.with_cluster(local));
        let r = run_cluster(&bench, &c.with_cluster(repl));
        assert_eq!(r.locality.remote_misses, 0, "replication prefills nodes");
        assert_eq!(r.locality_hit_rate(), 1.0);
        assert!(r.locality.replicated_bytes > 0);
        assert_eq!(l.locality.replicated_bytes, 0);
        assert!(l.locality.remote_misses > 0);
    }
}
