//! # Pronghorn
//!
//! A from-scratch Rust reproduction of **"Pronghorn: Effective Checkpoint
//! Orchestration for Serverless Hot-Starts"** (EuroSys '24).
//!
//! Pronghorn is a snapshot orchestrator for serverless platforms: it
//! learns, per function, *when* during a worker's lifetime to take a
//! checkpoint and *which* snapshot to restore new workers from, so that
//! workers start with JIT-optimized code instead of re-warming from
//! scratch after every eviction.
//!
//! This crate is a facade re-exporting the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the request-centric orchestration policy (Algorithm 1), baselines, pool, orchestrator |
//! | [`jit`] | the tiered-JIT language-runtime simulator (JVM/PyPy profiles) |
//! | [`workloads`] | the 14 benchmark kernels of Tables 1 & 3, implemented for real |
//! | [`platform`] | the serverless-platform simulator (one `run` entry point over arrivals × topology) |
//! | [`forecast`] | arrival forecasting and the predictive pre-restore provisioning policy |
//! | [`cluster`] | the N-node cluster layer: consistent-hash ring, cluster spec, blob residency |
//! | [`checkpoint`] | the CRIU-calibrated checkpoint engine and snapshot format |
//! | [`store`] / [`kv`] | the Object Store (MinIO) and the Database's round-trip costs |
//! | [`traces`] | synthetic Azure-like invocation traces |
//! | [`metrics`] | CDFs, quantiles, convergence detection |
//! | [`sim`] | virtual clock, event queue, deterministic RNG streams |
//! | [`experiments`] | regenerators for every table and figure of the paper |
//!
//! # Quick start
//!
//! ```
//! use pronghorn::prelude::*;
//!
//! // Run the paper's protocol: DynamicHTML under the request-centric
//! // policy, workers evicted after every request.
//! let workload = by_name("DynamicHTML").expect("bundled benchmark");
//! let config = RunConfig::paper(PolicyKind::RequestCentric, 1, 42).with_invocations(100);
//! let result = run_closed_loop(&workload, &config);
//! assert_eq!(result.latencies_us.len(), 100);
//! println!("median latency: {:.0}µs", result.median_us());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pronghorn_checkpoint as checkpoint;
pub use pronghorn_cluster as cluster;
pub use pronghorn_core as core;
pub use pronghorn_experiments as experiments;
pub use pronghorn_forecast as forecast;
pub use pronghorn_jit as jit;
pub use pronghorn_kv as kv;
pub use pronghorn_metrics as metrics;
pub use pronghorn_platform as platform;
pub use pronghorn_sim as sim;
pub use pronghorn_store as store;
pub use pronghorn_traces as traces;
pub use pronghorn_workloads as workloads;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use pronghorn_cluster::{ClusterSpec, PlacementPolicy, RoutingPolicy};
    pub use pronghorn_core::{
        ColdStartPolicy, FixedPointPolicy, Orchestrator, Policy, PolicyConfig, PolicyKind,
        RequestCentricPolicy, StartDecision,
    };
    pub use pronghorn_forecast::{ForecasterKind, ProvisionPolicy, ProvisionStats};
    pub use pronghorn_jit::{Runtime, RuntimeKind, RuntimeProfile};
    pub use pronghorn_metrics::{Cdf, Quantiles, Summary};
    pub use pronghorn_platform::{
        run, run_closed_loop, run_cluster, run_production, ArrivalSpec, ClusterRunResult,
        ConfigError, RunConfig, RunResult, TopologySpec,
    };
    pub use pronghorn_sim::{RngFactory, SimDuration, SimTime};
    pub use pronghorn_store::{CacheConfig, StoragePolicy, StorageStats};
    pub use pronghorn_traces::TraceSpec;
    pub use pronghorn_workloads::{by_name, evaluation_benchmarks, InputVariance, Workload};
}
