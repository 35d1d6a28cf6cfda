//! The cluster knob on `RunConfig`: node count, routing, placement and
//! the remote-transfer price.

use pronghorn_store::TransferModel;

/// How the sharded gateway picks a node for an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RoutingPolicy {
    /// Pure consistent hashing: every invocation of a function lands on
    /// the ring owner, saturated or not (excess requests queue there).
    Hash,
    /// Hash-first with load-aware spillover: if the ring owner has no
    /// free worker slot at arrival time, probe the ring-successor nodes
    /// in deterministic ring order and serve on the first with a free
    /// slot; if the whole cluster is busy, fall back to the owner's
    /// queue.
    LoadAware,
}

impl RoutingPolicy {
    /// Both policies, in ablation order.
    pub const ALL: [RoutingPolicy; 2] = [RoutingPolicy::Hash, RoutingPolicy::LoadAware];

    /// Stable label used in CSV/JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            RoutingPolicy::Hash => "hash",
            RoutingPolicy::LoadAware => "load-aware",
        }
    }
}

/// Where a freshly checkpointed snapshot blob becomes resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlacementPolicy {
    /// Resident only on the node that took the checkpoint; other nodes
    /// pay the remote transfer on their first restore of it (and cache
    /// it thereafter).
    Local,
    /// Eagerly broadcast to every node off the critical path: all
    /// restores are local hits, at the cost of `(n-1)×` the stored bytes
    /// in background replication traffic.
    Replicate,
}

impl PlacementPolicy {
    /// Stable label used in CSV/JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Local => "local",
            PlacementPolicy::Replicate => "replicate",
        }
    }
}

/// Cluster shape of a run: `nodes = 1` (the default) reproduces the
/// single-node runner bit for bit.
///
/// # Examples
///
/// ```
/// use pronghorn_cluster::{ClusterSpec, RoutingPolicy};
///
/// let spec = ClusterSpec::new(4)
///     .with_capacity(2)
///     .with_routing(RoutingPolicy::LoadAware);
/// assert_eq!(spec.nodes, 4);
/// assert_eq!(ClusterSpec::default(), ClusterSpec::single_node());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Physical nodes in the cluster (≥ 1).
    pub nodes: u32,
    /// Worker slots per node (≥ 1). A node serving `capacity` concurrent
    /// requests is saturated; further arrivals queue (or, under
    /// [`RoutingPolicy::LoadAware`], spill to ring successors).
    pub capacity: u32,
    /// Gateway routing policy.
    pub routing: RoutingPolicy,
    /// Snapshot placement policy.
    pub placement: PlacementPolicy,
    /// Link a snapshot moves over between nodes — the same Table 5
    /// network model the store uses. The deployment's storage tier prices
    /// each fetch on it (`StorageTier::price_remote_fetch`).
    pub remote: TransferModel,
}

impl ClusterSpec {
    /// A cluster of `nodes` nodes with single-slot pools, pure hash
    /// routing, local placement and the default Table 5 remote link.
    pub fn new(nodes: u32) -> Self {
        ClusterSpec {
            nodes: nodes.max(1),
            capacity: 1,
            routing: RoutingPolicy::Hash,
            placement: PlacementPolicy::Local,
            remote: TransferModel::default(),
        }
    }

    /// The degenerate one-node spec: the path pinned bit-identical to
    /// the single-node runner.
    pub fn single_node() -> Self {
        ClusterSpec::new(1)
    }

    /// Sets per-node worker capacity (clamped to ≥ 1).
    pub fn with_capacity(mut self, capacity: u32) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Sets the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::single_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_defaults() {
        let s = ClusterSpec::single_node();
        assert_eq!(s.nodes, 1);
        assert_eq!(s.capacity, 1);
        assert_eq!(s.routing, RoutingPolicy::Hash);
        assert_eq!(s.placement, PlacementPolicy::Local);
        assert_eq!(s.remote, TransferModel::default());
    }

    #[test]
    fn builders_clamp_and_set() {
        let s = ClusterSpec::new(0).with_capacity(0);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.capacity, 1);
        let s = ClusterSpec::new(8)
            .with_capacity(3)
            .with_routing(RoutingPolicy::LoadAware)
            .with_placement(PlacementPolicy::Replicate);
        assert_eq!(
            (s.nodes, s.capacity, s.routing, s.placement),
            (8, 3, RoutingPolicy::LoadAware, PlacementPolicy::Replicate)
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RoutingPolicy::Hash.label(), "hash");
        assert_eq!(RoutingPolicy::LoadAware.label(), "load-aware");
        assert_eq!(PlacementPolicy::Local.label(), "local");
        assert_eq!(PlacementPolicy::Replicate.label(), "replicate");
    }
}
