//! The serverless platform simulator (the paper's OpenFaaS + k3s stand-in).
//!
//! Reproduces the evaluation protocol of §5.1 end to end. One entry point,
//! [`run`], drives an [`ArrivalSpec`] through a [`TopologySpec`] on one
//! deployment engine — a single event loop over typed events on the
//! `pronghorn-sim` timer wheel — so each knob below applies to every pair,
//! and a [`RunConfig`] the pair would not honour is a [`ConfigError`]:
//!
//! - **closed-loop runs** ([`ArrivalSpec::ClosedLoop`]): 500 invocations of
//!   one function, workers evicted every 1/4/20 requests, under one of the
//!   orchestration policies — the data behind Figures 4–5 and Tables 4–5;
//! - **trace-driven runs** ([`ArrivalSpec::Trace`]): a deployment history,
//!   then the replay of an Azure-like arrival trace — the data behind
//!   Figure 6;
//! - **fleets and input classes** ([`TopologySpec::Fleet`],
//!   [`TopologySpec::Classes`]): §5.3's exploration amortized over
//!   round-robin worker slots, and §6's one deployment per input-size class;
//! - **cluster mode** ([`TopologySpec::Cluster`]): `cfg.cluster`'s nodes
//!   behind a deterministic consistent-hash gateway, with load-aware
//!   spillover, per-node snapshot residency and Table 5 cross-node transfer
//!   pricing; one node is pinned byte-identical to [`TopologySpec::Single`];
//! - **idle eviction**: under every arrival source a worker retires after
//!   `cfg.idle_timeout` without a request;
//! - **latency accounting**: the end-to-end latency a client observes is
//!   the function's execution time (including lazy initialization on cold
//!   first requests, JIT pauses, interference, deopts, and IO). Worker
//!   provisioning — policy decision, snapshot download, CRIU restore or
//!   cold boot — happens *off the critical path*, before the next request
//!   arrives, exactly as §5.3 argues; its cost is still fully accounted in
//!   [`RunResult`] for Figure 7 and the cost analysis;
//! - **IO-state staleness**: a restored process re-establishes external
//!   connections lazily, briefly inflating IO-bound requests after a
//!   restore — the mechanism behind the paper's Uploader regression;
//! - **restore strategies** ([`RunConfig::with_restore`]): eager (the
//!   paper's behaviour), lazy map-on-fault, or REAP-style record & prefetch;
//! - **predictive provisioning** ([`RunConfig::with_provision`]): arrival
//!   forecasts drive *pre-restores* that warm a worker ahead of predicted
//!   bursts, with keep-alive expiry and [`ProvisionStats`] accounting.
//!
//! Three wrappers stay for the `benchmark/` package until its next change:
//! [`run_closed_loop`] and [`run_cluster`] call [`run`], and
//! [`run_production`] streams a multi-hour arrival process with O(workers)
//! memory into log-bucketed [`ProductionStats`]. They panic where [`run`]
//! returns an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod engine;
mod plan;
mod result;
mod runner;
mod stale;
mod worker;

pub use cluster::{run_cluster, ClusterRunResult};
pub use config::RunConfig;
pub use plan::{run, ArrivalSpec, ConfigError, TopologySpec};
pub use pronghorn_cluster::{ClusterSpec, LocalityStats, PlacementPolicy, RoutingPolicy};
pub use pronghorn_forecast::{ForecasterKind, ProvisionPolicy, ProvisionStats};
pub use pronghorn_restore::{RestoreInfo, RestoreStrategy};
// Kept only for the `benchmark/` package; see `pronghorn_sim::kernel`.
pub use pronghorn_sim::KernelKind;
pub use pronghorn_store::{CacheConfig, StoragePolicy, StorageStats};
pub use result::{NodeBreakdown, ProvisionKind, RunResult};
pub use runner::{run_closed_loop, run_production, ProductionStats};
