//! The cluster layer: deterministic N-node sharded gateway primitives.
//!
//! The platform crate simulates one node's worker pool; this crate holds
//! everything needed to shard that simulation across an N-node cluster
//! while keeping the run fully deterministic:
//!
//! - [`HashRing`] — a consistent-hash ring with virtual nodes. Routing is
//!   a pure function of `(function id, ring)`; growing the ring from `n`
//!   to `n + 1` nodes remaps only the key fraction the new node owns
//!   (≈ `1/(n+1)`), and every remapped key moves *to* the new node.
//! - [`ClusterSpec`] — the `RunConfig` knob: node count, per-node worker
//!   capacity, [`RoutingPolicy`] (pure hash vs load-aware spillover),
//!   [`PlacementPolicy`] and the remote-transfer price (the Table 5
//!   network model from `pronghorn-store`). `ClusterSpec::single_node()`
//!   is the degenerate spec whose runs are bit-identical to the
//!   single-node runner.
//! - [`BlobDirectory`] — the shared content-addressed blob namespace with
//!   per-node residency views: a restore on the node that checkpointed
//!   (or previously fetched) a snapshot is a local hit; anything else
//!   pays the remote fetch price its caller quotes and then becomes
//!   resident.
//!   Residency refcounts are conserved and drain to zero on teardown.
//!
//! The cluster *runner* lives in `pronghorn-platform` (`run_cluster`),
//! which pumps every node through the simulation kernel; this crate has
//! no dependency on the platform and is independently testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod locality;
pub mod ring;
pub mod spec;

pub use locality::{BlobAccess, BlobDirectory, LocalityStats};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use spec::{ClusterSpec, PlacementPolicy, RoutingPolicy};
