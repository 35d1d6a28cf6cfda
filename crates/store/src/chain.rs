//! Delta-chain bookkeeping for the snapshot pool.
//!
//! When checkpoints persist as page deltas, a snapshot's blob is only
//! usable together with every ancestor up to its chain root. That breaks
//! the pool's old "evict = delete the blob" rule: a parent the policy
//! evicts may still be referenced by a live descendant delta, so its
//! bytes must stay in the store (pinned) until the last descendant dies.
//! [`ChainIndex`] tracks that lineage DAG (a forest: every node has at
//! most one parent) and answers the two questions the orchestrator asks:
//!
//! - *is this snapshot still restorable?* — live ancestors all the way up;
//! - *which blobs may actually be deleted when a snapshot is evicted?* —
//!   the snapshot itself if nothing references it, plus any pinned
//!   ancestors it was the last holdout for (cascading frees).
//!
//! The index also accumulates [`ChainStats`], the chain-aware side of the
//! Table 5 transfer/storage accounting: how many roots vs. deltas were
//! stored, the nominal bytes each arm uploaded, and what composed
//! restores downloaded.

use std::collections::{BTreeMap, BTreeSet};

/// One snapshot's place in the delta forest.
#[derive(Debug, Clone)]
struct ChainNode {
    parent: Option<u64>,
    children: BTreeSet<u64>,
    depth: u32,
    /// The policy evicted this snapshot from the pool; the blob is kept
    /// only while `children` is non-empty (pinned).
    evicted: bool,
    /// Nominal bytes this snapshot's *stored* form occupies (dirty bytes
    /// for a delta, the full image for a root).
    stored_nominal: u64,
}

/// Chain-aware transfer and storage counters (Table 5 inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainStats {
    /// Full snapshots stored (chain roots).
    pub roots: u64,
    /// Delta snapshots stored.
    pub deltas: u64,
    /// Chains rebased into a fresh full snapshot after reaching depth K.
    pub consolidations: u64,
    /// Evictions whose blob deletion was deferred because a live delta
    /// child still referenced the snapshot.
    pub deferred_releases: u64,
    /// Pinned ancestor blobs freed later, when their last descendant died.
    pub cascade_frees: u64,
    /// Deepest delta chain observed (0 = only roots).
    pub max_depth: u32,
    /// Restores served by composing a delta chain.
    pub composed_restores: u64,
    /// Nominal bytes downloaded by composed restores (sum over the chain's
    /// stored forms — what `RestoreInfo.bytes_transferred` reports).
    pub composed_nominal_downloaded: u64,
    /// Nominal bytes uploaded by delta checkpoints (dirty bytes).
    pub delta_nominal_bytes: u64,
    /// Nominal bytes uploaded by full checkpoints.
    pub full_nominal_bytes: u64,
}

impl ChainStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &ChainStats) {
        self.roots += other.roots;
        self.deltas += other.deltas;
        self.consolidations += other.consolidations;
        self.deferred_releases += other.deferred_releases;
        self.cascade_frees += other.cascade_frees;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.composed_restores += other.composed_restores;
        self.composed_nominal_downloaded += other.composed_nominal_downloaded;
        self.delta_nominal_bytes += other.delta_nominal_bytes;
        self.full_nominal_bytes += other.full_nominal_bytes;
    }
}

/// Lineage index over snapshot ids (a forest of delta chains).
///
/// Keys are raw snapshot ids (`SnapshotId.0`) so the store layer stays
/// independent of the checkpoint crate's types.
#[derive(Debug, Clone, Default)]
pub struct ChainIndex {
    nodes: BTreeMap<u64, ChainNode>,
    stats: ChainStats,
}

impl ChainIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        ChainIndex::default()
    }

    /// Registers a full snapshot as a chain root.
    pub fn insert_root(&mut self, id: u64, stored_nominal: u64) {
        self.nodes.insert(
            id,
            ChainNode {
                parent: None,
                children: BTreeSet::new(),
                depth: 0,
                evicted: false,
                stored_nominal,
            },
        );
        self.stats.roots += 1;
        self.stats.full_nominal_bytes += stored_nominal;
    }

    /// Registers a delta snapshot under `parent`, returning the new
    /// node's depth, or `None` (and registering nothing) when the parent
    /// is unknown — callers must have checked [`Self::is_live`] and fall
    /// back to a full snapshot otherwise.
    pub fn insert_delta(&mut self, id: u64, parent: u64, stored_nominal: u64) -> Option<u32> {
        let depth = {
            let parent_node = self.nodes.get_mut(&parent)?;
            parent_node.children.insert(id);
            parent_node.depth + 1
        };
        self.nodes.insert(
            id,
            ChainNode {
                parent: Some(parent),
                children: BTreeSet::new(),
                depth,
                evicted: false,
                stored_nominal,
            },
        );
        self.stats.deltas += 1;
        self.stats.delta_nominal_bytes += stored_nominal;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        Some(depth)
    }

    /// Whether `id` is present and not evicted — i.e. still a valid delta
    /// parent for the next checkpoint of its lineage.
    pub fn is_live(&self, id: u64) -> bool {
        self.nodes.get(&id).is_some_and(|n| !n.evicted)
    }

    /// Chain depth of `id` (0 for roots), if known.
    pub fn depth(&self, id: u64) -> Option<u32> {
        self.nodes.get(&id).map(|n| n.depth)
    }

    /// Nominal bytes of `id`'s stored form, if known.
    pub fn stored_nominal(&self, id: u64) -> Option<u64> {
        self.nodes.get(&id).map(|n| n.stored_nominal)
    }

    /// The ids from `id` up to its chain root, inclusive, child-first —
    /// everything a composed restore must download.
    pub fn chain_to_root(&self, id: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            match self.nodes.get(&cur) {
                Some(node) => {
                    out.push(cur);
                    cursor = node.parent;
                }
                None => break,
            }
        }
        out
    }

    /// Number of blobs (chain length) a restore of `id` touches.
    pub fn chain_len(&self, id: u64) -> usize {
        self.chain_to_root(id).len().max(1)
    }

    /// Nominal bytes pinned in the store by evicted-but-referenced
    /// ancestors — counted into peak pool storage (Table 5), since the
    /// store genuinely still holds those bytes.
    pub fn pinned_nominal_bytes(&self) -> u64 {
        self.nodes
            .values()
            .filter(|n| n.evicted)
            .map(|n| n.stored_nominal)
            .sum()
    }

    /// Records that the policy evicted `id` from the pool. Returns the
    /// ids whose blobs may be deleted *now*: `id` itself when no live
    /// delta child references it, plus any already-evicted ancestors for
    /// which `id` was the last remaining descendant (cascading frees).
    /// When `id` still has children the deletion is deferred — the blob
    /// stays pinned until the last child is itself released.
    pub fn evict(&mut self, id: u64) -> Vec<u64> {
        let Some(node) = self.nodes.get_mut(&id) else {
            return Vec::new();
        };
        node.evicted = true;
        if !node.children.is_empty() {
            self.stats.deferred_releases += 1;
            return Vec::new();
        }
        let mut freed = Vec::new();
        let mut cursor = Some(id);
        let mut cascading = false;
        while let Some(cur) = cursor {
            let (remove, parent) = match self.nodes.get(&cur) {
                Some(n) if n.evicted && n.children.is_empty() => (true, n.parent),
                _ => (false, None),
            };
            if !remove {
                break;
            }
            self.nodes.remove(&cur);
            if let Some(p) = parent {
                if let Some(pn) = self.nodes.get_mut(&p) {
                    pn.children.remove(&cur);
                }
            }
            freed.push(cur);
            if cascading {
                self.stats.cascade_frees += 1;
            }
            cascading = true;
            cursor = parent;
        }
        freed
    }

    /// Records a chain consolidation (a depth-K lineage rebased onto a
    /// fresh full root).
    pub fn note_consolidation(&mut self) {
        self.stats.consolidations += 1;
    }

    /// Records a composed (multi-blob) restore downloading
    /// `nominal_bytes` across the chain.
    pub fn note_composed_restore(&mut self, nominal_bytes: u64) {
        self.stats.composed_restores += 1;
        self.stats.composed_nominal_downloaded += nominal_bytes;
    }

    /// The accumulated chain counters.
    pub fn stats(&self) -> &ChainStats {
        &self.stats
    }

    /// Zeroes the chain counters; the lineage itself is kept.
    pub fn reset_stats(&mut self) {
        self.stats = ChainStats::default();
    }

    /// Live (non-evicted) node count, for tests and debugging.
    pub fn live_count(&self) -> usize {
        self.nodes.values().filter(|n| !n.evicted).count()
    }

    /// Total tracked node count including pinned (evicted) ones.
    pub fn tracked_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_and_deltas_track_depth() {
        let mut idx = ChainIndex::new();
        idx.insert_root(1, 100);
        assert_eq!(idx.depth(1), Some(0));
        assert_eq!(idx.insert_delta(2, 1, 10), Some(1));
        assert_eq!(idx.insert_delta(3, 2, 10), Some(2));
        assert_eq!(idx.stats().max_depth, 2);
        assert_eq!(idx.chain_to_root(3), vec![3, 2, 1]);
        assert_eq!(idx.chain_len(3), 3);
        assert_eq!(idx.stats().roots, 1);
        assert_eq!(idx.stats().deltas, 2);
        assert_eq!(idx.stats().full_nominal_bytes, 100);
        assert_eq!(idx.stats().delta_nominal_bytes, 20);
    }

    #[test]
    fn delta_under_unknown_parent_is_rejected() {
        let mut idx = ChainIndex::new();
        assert_eq!(idx.insert_delta(2, 99, 10), None);
        assert_eq!(idx.tracked_count(), 0);
    }

    #[test]
    fn leaf_eviction_frees_immediately() {
        let mut idx = ChainIndex::new();
        idx.insert_root(1, 100);
        assert_eq!(idx.evict(1), vec![1]);
        assert_eq!(idx.tracked_count(), 0);
        assert_eq!(idx.stats().deferred_releases, 0);
    }

    #[test]
    fn parent_eviction_defers_until_children_die() {
        let mut idx = ChainIndex::new();
        idx.insert_root(1, 100);
        idx.insert_delta(2, 1, 10).unwrap();
        // Evicting the referenced root deletes nothing yet.
        assert_eq!(idx.evict(1), Vec::<u64>::new());
        assert_eq!(idx.stats().deferred_releases, 1);
        assert!(!idx.is_live(1), "pinned parents are not valid delta bases");
        assert_eq!(idx.pinned_nominal_bytes(), 100);
        // The child can still be restored through the pinned parent.
        assert_eq!(idx.chain_to_root(2), vec![2, 1]);
        // Dropping the last child frees both blobs.
        let freed = idx.evict(2);
        assert_eq!(freed, vec![2, 1]);
        assert_eq!(idx.stats().cascade_frees, 1);
        assert_eq!(idx.tracked_count(), 0);
        assert_eq!(idx.pinned_nominal_bytes(), 0);
    }

    #[test]
    fn cascade_frees_whole_pinned_chain() {
        let mut idx = ChainIndex::new();
        idx.insert_root(1, 100);
        idx.insert_delta(2, 1, 10).unwrap();
        idx.insert_delta(3, 2, 10).unwrap();
        assert!(idx.evict(1).is_empty());
        assert!(idx.evict(2).is_empty());
        assert_eq!(idx.stats().deferred_releases, 2);
        // Freeing the leaf releases the entire pinned ancestry, deepest
        // descendant first.
        assert_eq!(idx.evict(3), vec![3, 2, 1]);
        assert_eq!(idx.stats().cascade_frees, 2);
        assert_eq!(idx.tracked_count(), 0);
    }

    #[test]
    fn sibling_keeps_parent_pinned() {
        let mut idx = ChainIndex::new();
        idx.insert_root(1, 100);
        idx.insert_delta(2, 1, 10).unwrap();
        idx.insert_delta(3, 1, 12).unwrap();
        assert!(idx.evict(1).is_empty());
        // One sibling dies: parent stays pinned for the other.
        assert_eq!(idx.evict(2), vec![2]);
        assert_eq!(idx.pinned_nominal_bytes(), 100);
        assert_eq!(idx.chain_to_root(3), vec![3, 1]);
        // Last sibling dies: parent finally freed.
        assert_eq!(idx.evict(3), vec![3, 1]);
        assert_eq!(idx.tracked_count(), 0);
    }

    #[test]
    fn stats_merge_accumulates_and_maxes_depth() {
        let a = ChainStats {
            roots: 1,
            deltas: 2,
            consolidations: 3,
            deferred_releases: 4,
            cascade_frees: 5,
            max_depth: 6,
            composed_restores: 7,
            composed_nominal_downloaded: 8,
            delta_nominal_bytes: 9,
            full_nominal_bytes: 10,
        };
        let mut b = ChainStats {
            max_depth: 2,
            ..ChainStats::default()
        };
        b.merge(&a);
        assert_eq!(b.roots, 1);
        assert_eq!(b.deltas, 2);
        assert_eq!(b.consolidations, 3);
        assert_eq!(b.deferred_releases, 4);
        assert_eq!(b.cascade_frees, 5);
        assert_eq!(b.max_depth, 6, "depth maxes, not sums");
        assert_eq!(b.composed_restores, 7);
        assert_eq!(b.composed_nominal_downloaded, 8);
        assert_eq!((b.delta_nominal_bytes, b.full_nominal_bytes), (9, 10));
    }
}
