//! Deterministic work-count gates: a regression in the amount of work a
//! run does fails here on counts, not on timing.
//!
//! - **Restore path.** Runs the benchmark's `restore-chain` configuration
//!   at a small scale — request-centric at rate 1 (every request
//!   provisions a worker), K=16 delta chains, record-prefetch restores,
//!   and the full storage tier — and bounds the object-store operations
//!   per checkpoint and per restore. Page maps are recomputed from the
//!   snapshot, so a snapshot costs one blob plus at most one working-set
//!   manifest in the store.
//! - **Workload generation.** `Workload::generate` runs the benchmark's
//!   real kernel and dominates host time, so the closed loop (above), the
//!   cluster and the production runner must each draw exactly one request
//!   per request they serve.

#![forbid(unsafe_code)]

use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_cluster::{ClusterSpec, RoutingPolicy};
use pronghorn_core::PolicyKind;
use pronghorn_forecast::{ForecasterKind, ProvisionPolicy};
use pronghorn_jit::{MethodProfile, RequestWork, RuntimeKind, RuntimeProfile};
use pronghorn_platform::{
    run_closed_loop, run_cluster, run_production, RestoreStrategy, RunConfig, StoragePolicy,
};
use pronghorn_sim::{RngFactory, SimDuration};
use pronghorn_traces::TraceSpec;
use pronghorn_workloads::{by_name, InputVariance, SpecWorkload, Workload};
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};

/// Delegates to a benchmark and counts its `generate` calls. Atomic
/// because [`Workload`] must be `Sync`.
struct Counting {
    inner: SpecWorkload,
    generates: AtomicU64,
}

impl Counting {
    fn new(bench: &str) -> Self {
        Counting {
            inner: by_name(bench).unwrap(),
            generates: AtomicU64::new(0),
        }
    }

    fn generates(&self) -> u64 {
        self.generates.load(Ordering::Relaxed)
    }
}

impl Workload for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> RuntimeKind {
        self.inner.kind()
    }

    fn runtime_profile(&self) -> RuntimeProfile {
        self.inner.runtime_profile()
    }

    fn method_profiles(&self) -> Vec<MethodProfile> {
        self.inner.method_profiles()
    }

    fn generate(&self, rng: &mut dyn RngCore, variance: InputVariance) -> RequestWork {
        self.generates.fetch_add(1, Ordering::Relaxed);
        self.inner.generate(rng, variance)
    }

    fn io_bound(&self) -> bool {
        self.inner.io_bound()
    }

    fn io_stale_sensitivity(&self) -> f64 {
        self.inner.io_stale_sensitivity()
    }
}

/// The delta-chain depth bound of the configuration.
const MAX_DEPTH: u32 = 16;

fn restore_chain(seed: u64) -> RunConfig {
    RunConfig::paper(PolicyKind::RequestCentric, 1, seed)
        .with_invocations(100)
        .with_delta(DeltaPolicy::Enabled {
            max_depth: MAX_DEPTH,
        })
        .with_restore(RestoreStrategy::RecordPrefetch)
        .with_storage(
            StoragePolicy::disabled()
                .with_cache()
                .with_compression()
                .with_composed_prefetch(),
        )
}

#[test]
fn restore_chain_store_work_is_bounded_per_snapshot_and_restore() {
    for (seed, bench) in [(1, "DFS"), (2, "Hash"), (3, "Uploader")] {
        let workload = Counting::new(bench);
        let r = run_closed_loop(&workload, &restore_chain(seed));
        let checkpoints = r.overheads.checkpoints;
        let restores = r.restores() as u64;
        let stats = r.store_stats;
        // The configuration really exercises the paths being bounded.
        assert!(checkpoints > 0 && restores > 0, "{bench}: {r:?}");
        assert!(r.chain.deltas > 0, "{bench}: no deltas: {:?}", r.chain);
        assert!(r.prefetched_pages() > 0, "{bench}: nothing prefetched");
        // One snapshot blob plus at most one manifest per checkpoint.
        assert!(
            stats.puts <= 2 * checkpoints,
            "{bench}: {} puts for {checkpoints} checkpoints",
            stats.puts
        );
        // Per restore: the composed chain's blobs (at most K deltas and
        // their root) plus at most two manifest reads (download pricing
        // and the restore itself).
        assert!(
            stats.gets <= (u64::from(MAX_DEPTH) + 3) * restores,
            "{bench}: {} gets for {restores} restores",
            stats.gets
        );
        // Every checkpoint is encoded exactly once.
        assert_eq!(r.codec.encodes, checkpoints, "{bench}");
        // Every served request is drawn exactly once.
        assert_eq!(r.latencies_us.len(), 100, "{bench}");
        assert_eq!(workload.generates(), 100, "{bench}");
    }
}

#[test]
fn cluster_generates_one_request_per_served_request() {
    let workload = Counting::new("Hash");
    let mut c = RunConfig::paper(PolicyKind::RequestCentric, 4, 5)
        .with_invocations(120)
        .with_cluster(ClusterSpec::new(4).with_routing(RoutingPolicy::LoadAware));
    c.request_gap = SimDuration::from_millis(1);
    let r = run_cluster(&workload, &c);
    // The saturating gap really routes around busy owners.
    assert!(r.spillovers() > 0, "{:?}", r.nodes);
    assert_eq!(r.result.latencies_us.len(), 120);
    assert_eq!(workload.generates(), 120);
}

#[test]
fn production_generates_one_request_per_served_request() {
    // Predictive provisioning adds pre-restores and idle probes; neither
    // may draw a request.
    let workload = Counting::new("Uploader");
    let c = RunConfig::paper(PolicyKind::RequestCentric, 20, 6)
        .with_restore(RestoreStrategy::RecordPrefetch)
        .with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma))
        .with_idle_timeout(SimDuration::from_secs(30));
    let spec = TraceSpec::production(0.01, 0.9).with_burst(0.25, SimDuration::from_secs(600));
    let stats = run_production(&workload, &c, spec.stream(RngFactory::new(6).stream("t")));
    assert!(stats.invocations > 0);
    assert!(
        stats.provisioning.pre_restores_issued > 0,
        "{:?}",
        stats.provisioning
    );
    assert_eq!(workload.generates(), stats.invocations);
}
