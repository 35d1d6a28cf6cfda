//! Pronghorn's contribution: request-centric checkpoint orchestration.
//!
//! This crate implements §3 of the paper — the snapshot orchestration
//! policy that decides (1) *when* to checkpoint a live worker, (2) *which*
//! snapshot to restore a new worker from, (3) *how many and which*
//! snapshots to keep, and (4) *how* to update the orchestrator's knowledge
//! on every request — plus the baseline policies it is evaluated against
//! and the per-worker Orchestrator that wires a policy to the Checkpoint
//! Engine, Object Store, and Database (Figure 2).
//!
//! The request-centric policy is Algorithm 1, faithfully:
//!
//! - a weight vector `θ` of length `W` holds an EWMA latency estimate per
//!   request number, zero meaning *unexplored* (`OnRequest`, part 3);
//! - the probability map `Pr[i] ∝ 1/(θ[i]+µ)` puts "enormous weight on
//!   checkpointing at unexplored requests" (§3.4) — `OnContainerStart`
//!   draws the worker's checkpoint point from the map clipped to the
//!   worker's expected lifetime (part 1);
//! - new workers restore from a snapshot sampled by `softmax` over mean
//!   inverse lifetime latency (`OnContainerInit` + `GetSnapshotWeights`,
//!   part 2);
//! - when the fixed-capacity pool fills, the top `p%` of snapshots plus a
//!   random `γ%` survive (`OnCapacityReached`, part 4).
//!
//! # Examples
//!
//! ```
//! use pronghorn_core::{PolicyConfig, RequestCentricPolicy, Policy, StartDecision};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut policy = RequestCentricPolicy::new(PolicyConfig::paper_pypy());
//! let mut rng = SmallRng::seed_from_u64(1);
//! // Empty pool: the first worker cold-starts ...
//! assert_eq!(policy.on_worker_start(&mut rng), StartDecision::Cold);
//! // ... and is told when to checkpoint.
//! assert!(policy.plan_checkpoint(0, &mut rng).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub mod error;
pub mod orchestrator;
pub mod policy;
pub mod pool;
pub mod request_centric;
pub mod weights;

pub use baselines::{ColdStartPolicy, FixedPointPolicy};
pub use config::{PolicyConfig, SelectionStrategy};
pub use error::ConfigError;
pub use orchestrator::{Download, Orchestrator, OverheadTotals, PageFetch, WorkerPlan};
pub use policy::{Policy, PolicyKind, StartDecision};
pub use pool::{PoolEntry, SnapshotPool};
pub use request_centric::RequestCentricPolicy;
pub use weights::WeightVector;
