//! Per-node snapshot residency over a shared blob namespace.
//!
//! The object store itself is a shared, content-addressed namespace (the
//! paper's Object Store); what differs per node is *residency* — which
//! node already holds a materialized copy of a snapshot blob. The
//! [`BlobDirectory`] tracks, per snapshot id, the set of nodes with a
//! resident copy plus the virtual time the blob was first placed. A
//! restore on a resident node is a **local hit** (the single-node price,
//! unchanged); a restore anywhere else is a **remote miss** that pays the
//! cross-node fetch price the deployment's storage tier quotes (the flat
//! store's serial walk of the composed chain by default), after which the
//! fetching node becomes resident too.
//!
//! Residency entries are refcounts on the shared blob: conservation
//! demands they drain to zero when the pool evicts a snapshot or the
//! cluster tears down — pinned by proptests in `tests/`.

use pronghorn_sim::{SimDuration, SimTime};
use pronghorn_store::saturating_accumulate;
use std::collections::{BTreeMap, BTreeSet};

/// Cluster-wide locality counters, accumulated across a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LocalityStats {
    /// Restores served from a node-resident blob (single-node price).
    pub local_hits: u64,
    /// Restores that had to fetch the blob from a peer node.
    pub remote_misses: u64,
    /// Nominal bytes moved between nodes by remote misses.
    pub remote_bytes: u64,
    /// Total remote transfer time charged to provisioning (µs).
    pub remote_us: f64,
    /// Summed age of remotely fetched snapshots at fetch time (µs) — how
    /// far the receiving node's clock had run past the blob's placement.
    pub remote_age_us: f64,
    /// Background bytes spent by eager replication (placement policy
    /// `Replicate`); never on the provisioning path.
    pub replicated_bytes: u64,
}

impl LocalityStats {
    /// Fraction of restores served locally; 1.0 when nothing restored.
    pub fn hit_rate(&self) -> f64 {
        let total = self.local_hits + self.remote_misses;
        if total == 0 {
            1.0
        } else {
            self.local_hits as f64 / total as f64
        }
    }
}

/// One restore's locality outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlobAccess {
    /// Whether the blob was already resident on the accessing node.
    pub hit: bool,
    /// Remote transfer time charged (zero on a hit).
    pub transfer: SimDuration,
    /// Age of the blob at access time (zero on a hit): the accessing
    /// node's clock minus the placement time on the origin node.
    pub age: SimDuration,
    /// Nominal bytes moved (zero on a hit).
    pub bytes: u64,
}

/// Residency state of one snapshot blob.
#[derive(Debug, Clone)]
struct BlobEntry {
    /// Virtual time the blob was first placed (checkpoint completion on
    /// the origin node's clock).
    placed_at: SimTime,
    /// Nodes holding a resident copy.
    residents: BTreeSet<u32>,
}

/// The shared blob directory: per-node residency views over one
/// content-addressed namespace.
///
/// # Examples
///
/// ```
/// use pronghorn_cluster::BlobDirectory;
/// use pronghorn_sim::SimTime;
/// use pronghorn_store::TransferModel;
///
/// let mut dir = BlobDirectory::new(4);
/// dir.record(7, 0, SimTime::from_micros(10));
/// let fetch = TransferModel::default().transfer_time(1 << 20);
/// // Node 0 checkpointed blob 7: restoring there is free...
/// let hit = dir.access(7, 0, 1 << 20, SimTime::from_micros(20), fetch);
/// assert!(hit.hit);
/// // ...while node 2 pays the remote transfer, then becomes resident.
/// let miss = dir.access(7, 2, 1 << 20, SimTime::from_micros(30), fetch);
/// assert!(!miss.hit && miss.bytes == 1 << 20 && miss.transfer == fetch);
/// assert!(dir.access(7, 2, 1 << 20, SimTime::from_micros(40), fetch).hit);
/// ```
#[derive(Debug, Clone)]
pub struct BlobDirectory {
    nodes: u32,
    blobs: BTreeMap<u64, BlobEntry>,
    stats: LocalityStats,
}

impl BlobDirectory {
    /// An empty directory for a cluster of `nodes` nodes (≥ 1).
    pub fn new(nodes: u32) -> Self {
        BlobDirectory {
            nodes: nodes.max(1),
            blobs: BTreeMap::new(),
            stats: LocalityStats::default(),
        }
    }

    /// Cluster size this directory serves.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Registers a freshly checkpointed blob as resident on `node` at
    /// time `now` (the origin node's clock). Re-recording an id resets
    /// its residency to the new origin.
    pub fn record(&mut self, id: u64, node: u32, now: SimTime) {
        let mut residents = BTreeSet::new();
        residents.insert(node);
        self.blobs.insert(
            id,
            BlobEntry {
                placed_at: now,
                residents,
            },
        );
    }

    /// Eagerly replicates `id` to every node (placement `Replicate`),
    /// charging `bytes` of background traffic per copy actually made.
    pub fn replicate(&mut self, id: u64, bytes: u64) {
        let nodes = self.nodes;
        if let Some(entry) = self.blobs.get_mut(&id) {
            for node in 0..nodes {
                if entry.residents.insert(node) {
                    saturating_accumulate(
                        "replicated_bytes",
                        &mut self.stats.replicated_bytes,
                        bytes,
                    );
                }
            }
        }
    }

    /// Whether `node` holds a resident copy of `id`.
    pub fn is_resident(&self, id: u64, node: u32) -> bool {
        self.blobs
            .get(&id)
            .is_some_and(|e| e.residents.contains(&node))
    }

    /// Resolves a restore of `id` on `node` at the node's clock `now`:
    /// a local hit if resident, otherwise a remote fetch of `bytes`
    /// nominal bytes charged `transfer` — priced by the caller's storage
    /// tier, while `bytes` stays nominal so the Table 5 conservation law
    /// (`restore_bytes == nominal_downloaded + remote_bytes`) is unaffected
    /// by compression. After a miss the node is resident; stats accumulate
    /// either way.
    ///
    /// An id the directory has never seen (possible only if a restore
    /// precedes any recorded checkpoint of it) is adopted as resident on
    /// the accessing node and counted as a hit — there is no origin to
    /// price a transfer from.
    pub fn access(
        &mut self,
        id: u64,
        node: u32,
        bytes: u64,
        now: SimTime,
        transfer: SimDuration,
    ) -> BlobAccess {
        let hit = BlobAccess {
            hit: true,
            transfer: SimDuration::ZERO,
            age: SimDuration::ZERO,
            bytes: 0,
        };
        match self.blobs.get_mut(&id) {
            None => {
                self.record(id, node, now);
                self.stats.local_hits += 1;
                hit
            }
            Some(entry) if entry.residents.contains(&node) => {
                self.stats.local_hits += 1;
                hit
            }
            Some(entry) => {
                let age = now.saturating_since(entry.placed_at);
                entry.residents.insert(node);
                self.stats.remote_misses += 1;
                saturating_accumulate("remote_bytes", &mut self.stats.remote_bytes, bytes);
                self.stats.remote_us += transfer.as_micros() as f64;
                self.stats.remote_age_us += age.as_micros() as f64;
                BlobAccess {
                    hit: false,
                    transfer,
                    age,
                    bytes,
                }
            }
        }
    }

    /// Drops every residency reference of `id` (pool eviction), returning
    /// how many node copies were released.
    pub fn evict(&mut self, id: u64) -> u64 {
        self.blobs
            .remove(&id)
            .map_or(0, |e| e.residents.len() as u64)
    }

    /// Snapshot ids currently tracked.
    pub fn tracked(&self) -> usize {
        self.blobs.len()
    }

    /// Total residency references across all blobs and nodes — the
    /// cluster-wide refcount that must drain to zero on teardown.
    pub fn total_refs(&self) -> u64 {
        self.blobs.values().map(|e| e.residents.len() as u64).sum()
    }

    /// Accumulated locality counters.
    pub fn stats(&self) -> &LocalityStats {
        &self.stats
    }

    /// Zeroes the locality counters; residency is kept.
    pub fn reset_stats(&mut self) {
        self.stats = LocalityStats::default();
    }

    /// Releases every residency reference (cluster teardown), returning
    /// how many were dropped. Afterwards [`Self::total_refs`] is zero and
    /// no blob is tracked; stats survive for reporting.
    pub fn teardown(&mut self) -> u64 {
        let refs = self.total_refs();
        self.blobs.clear();
        refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_store::TransferModel;

    fn model() -> TransferModel {
        TransferModel::default()
    }

    /// The flat store's price for a `links`-link chain of `bytes`.
    fn chained(bytes: u64, links: usize) -> SimDuration {
        model().chained_transfer_time(bytes, links)
    }

    #[test]
    fn record_then_local_access_is_a_hit() {
        let mut dir = BlobDirectory::new(2);
        dir.record(1, 0, SimTime::from_micros(5));
        let a = dir.access(1, 0, 4096, SimTime::from_micros(9), chained(4096, 1));
        assert!(a.hit);
        assert_eq!(a.bytes, 0);
        assert_eq!(dir.stats().local_hits, 1);
        assert_eq!(dir.stats().remote_misses, 0);
    }

    #[test]
    fn remote_access_pays_then_caches() {
        let mut dir = BlobDirectory::new(3);
        dir.record(1, 0, SimTime::from_micros(100));
        let a = dir.access(
            1,
            2,
            1 << 20,
            SimTime::from_micros(700),
            chained(1 << 20, 1),
        );
        assert!(!a.hit);
        assert_eq!(a.bytes, 1 << 20);
        assert_eq!(a.transfer, model().batched_transfer_time(1 << 20, 1));
        assert_eq!(a.age, SimDuration::from_micros(600));
        assert!(dir.is_resident(1, 2));
        let b = dir.access(
            1,
            2,
            1 << 20,
            SimTime::from_micros(800),
            chained(1 << 20, 1),
        );
        assert!(b.hit);
        assert_eq!(dir.stats().remote_bytes, 1 << 20);
        assert_eq!(dir.stats().remote_age_us, 600.0);
    }

    #[test]
    fn chained_misses_pay_per_link_latency() {
        let mut dir = BlobDirectory::new(2);
        dir.record(9, 0, SimTime::ZERO);
        let a = dir.access(9, 1, 1 << 20, SimTime::from_micros(50), chained(1 << 20, 3));
        assert_eq!(a.transfer, model().chained_transfer_time(1 << 20, 3));
        assert!(a.transfer > model().chained_transfer_time(1 << 20, 1));
    }

    #[test]
    fn priced_access_charges_caller_supplied_transfer() {
        let mut dir = BlobDirectory::new(2);
        dir.record(3, 0, SimTime::ZERO);
        let custom = SimDuration::from_micros(123);
        let a = dir.access(3, 1, 2048, SimTime::from_micros(10), custom);
        assert!(!a.hit);
        assert_eq!(a.transfer, custom);
        assert_eq!(a.bytes, 2048, "bytes stay nominal regardless of pricing");
        assert_eq!(dir.stats().remote_bytes, 2048);
        assert_eq!(dir.stats().remote_us, 123.0);
    }

    #[test]
    fn unknown_blob_is_adopted_as_local() {
        let mut dir = BlobDirectory::new(4);
        let a = dir.access(42, 3, 4096, SimTime::from_micros(10), chained(4096, 1));
        assert!(a.hit);
        assert!(dir.is_resident(42, 3));
        assert_eq!(dir.stats().remote_misses, 0);
    }

    #[test]
    fn replicate_makes_every_node_resident_once() {
        let mut dir = BlobDirectory::new(4);
        dir.record(5, 1, SimTime::ZERO);
        dir.replicate(5, 1000);
        for node in 0..4 {
            assert!(dir.is_resident(5, node));
        }
        // Three new copies (node 1 already had it); idempotent after.
        assert_eq!(dir.stats().replicated_bytes, 3000);
        dir.replicate(5, 1000);
        assert_eq!(dir.stats().replicated_bytes, 3000);
        assert_eq!(dir.total_refs(), 4);
    }

    #[test]
    fn evict_and_teardown_drain_refs_to_zero() {
        let mut dir = BlobDirectory::new(3);
        dir.record(1, 0, SimTime::ZERO);
        dir.record(2, 1, SimTime::ZERO);
        dir.access(1, 2, 100, SimTime::from_micros(1), chained(100, 1));
        assert_eq!(dir.total_refs(), 3);
        assert_eq!(dir.evict(1), 2);
        assert_eq!(dir.total_refs(), 1);
        assert_eq!(dir.evict(1), 0);
        assert_eq!(dir.teardown(), 1);
        assert_eq!(dir.total_refs(), 0);
        assert_eq!(dir.tracked(), 0);
    }

    #[test]
    fn hit_rate_degenerates_to_one() {
        assert_eq!(LocalityStats::default().hit_rate(), 1.0);
        let s = LocalityStats {
            local_hits: 3,
            remote_misses: 1,
            ..LocalityStats::default()
        };
        assert_eq!(s.hit_rate(), 0.75);
    }
}
