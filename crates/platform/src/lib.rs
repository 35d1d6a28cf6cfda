//! The serverless platform simulator (the paper's OpenFaaS + k3s stand-in).
//!
//! Reproduces the evaluation protocol of §5.1 end to end. Every runner is
//! a thin wrapper over one deployment engine — a single event loop over
//! typed events on the `pronghorn-sim` timer wheel, generic over the
//! arrival source, the topology of deployments × nodes × worker slots, and
//! the measurement sink — so each knob below applies to every runner:
//!
//! - **closed-loop runs** ([`run_closed_loop`]): 500 invocations of one
//!   function, workers evicted every 1/4/20 requests, under one of the
//!   orchestration policies — the data behind Figures 4–5 and Tables 4–5;
//! - **trace-driven runs** ([`run_trace`]): replay of an Azure-like
//!   arrival trace with idle-timeout eviction — the data behind Figure 6;
//! - **fleets and input classes** ([`run_fleet`], [`run_partitioned`]):
//!   §5.3's exploration amortized over round-robin worker slots, and §6's
//!   one deployment per input-size class;
//! - **latency accounting**: the end-to-end latency a client observes is
//!   the function's execution time (including lazy initialization on cold
//!   first requests, JIT pauses, interference, deopts, and IO). Worker
//!   provisioning — policy decision, snapshot download, CRIU restore or
//!   cold boot — happens *off the critical path*, before the next request
//!   arrives, exactly as §5.3 argues ("network and disk operations ... do
//!   not impact user-perceived latency"); its cost is still fully
//!   accounted in [`RunResult`] for Figure 7 and the cost analysis;
//! - **IO-state staleness**: a restored process re-establishes external
//!   connections lazily, briefly inflating IO-bound requests after a
//!   restore — the mechanism behind the paper's Uploader regression
//!   (see [`stale::IoStaleModel`]);
//! - **restore strategies**: [`RunConfig::with_restore`] selects how
//!   snapshot memory materializes — eager (the paper's behaviour), lazy
//!   map-on-fault, or REAP-style record & prefetch; per-restore fault and
//!   prefetch statistics surface in [`RunResult::restore_infos`];
//! - **production-scale replay** ([`run_production`]): streams a
//!   multi-hour Poisson/burst arrival process (`TraceSpec::production`)
//!   through the platform with O(workers) memory, aggregating latency into
//!   a log-bucketed histogram instead of per-invocation vectors;
//! - **cluster mode** ([`run_cluster`]): the closed loop on an N-node
//!   cluster behind a deterministic consistent-hash gateway, with
//!   load-aware spillover, per-node snapshot residency and Table 5
//!   cross-node transfer pricing; `nodes = 1` is pinned byte-identical
//!   to [`run_closed_loop`];
//! - **predictive provisioning** ([`RunConfig::with_provision`]): a
//!   `pronghorn-forecast` [`ProvisionPolicy`] running alongside the
//!   reactive policy — arrival forecasts drive *pre-restores* that warm
//!   (and background-hydrate) a worker ahead of predicted bursts, with
//!   keep-alive expiry and [`ProvisionStats`] accounting;
//!   [`ProvisionPolicy::Disabled`] is pinned byte-identical to runs
//!   predating the knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
mod engine;
pub mod fleet;
pub mod partitioned;
pub mod result;
pub mod runner;
pub mod stale;
pub mod worker;

pub use cluster::{run_cluster, ClusterRunResult, NodeBreakdown};
pub use config::RunConfig;
pub use fleet::{run_fleet, FleetConfig};
pub use partitioned::run_partitioned;
pub use pronghorn_cluster::{ClusterSpec, LocalityStats, PlacementPolicy, RoutingPolicy};
pub use pronghorn_forecast::{ForecasterKind, ProvisionPolicy, ProvisionStats};
pub use pronghorn_restore::{RestoreInfo, RestoreStrategy};
// Kept only for the `benchmark/` package; see `pronghorn_sim::kernel`.
pub use pronghorn_sim::KernelKind;
pub use pronghorn_store::{CacheConfig, StoragePolicy, StorageStats};
pub use result::{ProvisionKind, RunResult};
pub use runner::{
    run_closed_loop, run_production, run_trace, run_trace_with_history, ProductionStats,
};
pub use stale::IoStaleModel;
pub use worker::Worker;
