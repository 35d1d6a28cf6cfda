//! Tiered snapshot storage: local-SSD cache over the global object store.
//!
//! The paper's restore path treats the Object Store as flat: every
//! restore pays the full network price for every byte of the chain. Real
//! deployments interpose a node-local NVMe tier (and compress what goes
//! over the wire) — REAP-style analysis shows most restore bytes are
//! wasted on pages outside the working set, and the remaining latency is
//! dominated by where the surviving bytes live. This module models that
//! hierarchy:
//!
//! - [`StoragePolicy`] — which tiers are enabled. The default is
//!   *disabled*: no cache, no compression, no composed prefetch — the
//!   flat object store of the base simulator.
//! - [`CacheTier`] — a capacity-bounded local-SSD blob cache with a
//!   θ-weight-driven admission/eviction policy (the same per-request
//!   weights the request-centric checkpoint policy learns) that never
//!   evicts a chain ancestor still referenced by a resident leaf.
//! - [`StorageTier`] — the one pricer of snapshot transfers: every
//!   upload, restore download, page fetch and cross-node fetch turns
//!   bytes into time here. It routes reads to SSD or network, applies
//!   [`compress`] wire sizing, and accumulates
//!   [`StorageStats`]. Every orchestrator holds one; under a disabled
//!   policy it prices exactly like the flat store and reports zeroed
//!   stats.
//!
//! Everything here is deterministic and RNG-free: enabling a tier
//! re-prices transfers but never perturbs a seeded run's random streams.

use std::collections::{BTreeMap, BTreeSet};

use pronghorn_sim::SimDuration;

use crate::accounting::saturating_accumulate;
use crate::compress;
use crate::transfer::TransferModel;

/// Default local-SSD cache capacity: 512 MiB, enough for a handful of
/// ~55 MB PyPy-class images (Table 4) but small enough that the
/// θ-weighted eviction policy is exercised under the paper's pool sizes.
pub const DEFAULT_CACHE_CAPACITY: u64 = 512 << 20;

/// Configuration of the local-SSD cache tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Cache capacity in bytes (decompressed blob sizes are charged).
    pub capacity_bytes: u64,
    /// Transfer model for cache hits. Default: NVMe-class local read,
    /// ~16µs issue latency at 25 Gb/s (~3.1 GB/s) effective bandwidth.
    pub ssd: TransferModel,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: DEFAULT_CACHE_CAPACITY,
            ssd: TransferModel::from_gbps(16.0, 25.0),
        }
    }
}

/// Which storage tiers are active for a run. `Default`/[`Self::disabled`]
/// turns everything off: a [`StorageTier`] under it is the flat object
/// store, priced bit-identically to the pre-tier simulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoragePolicy {
    /// Local-SSD cache tier, if enabled.
    pub cache: Option<CacheConfig>,
    /// Modeled wire compression (see [`crate::compress`]).
    pub compression: bool,
    /// Delta-aware composed-chain prefetch: once a working-set manifest
    /// is known, restore downloads fetch only the composed chain's
    /// touched pages (newest-writer already resolved by the page index)
    /// in one batched request instead of walking the chain serially.
    pub composed_prefetch: bool,
}

impl StoragePolicy {
    /// All tiers off — the flat object store of the base simulator.
    pub fn disabled() -> Self {
        StoragePolicy::default()
    }

    /// True when any tier is active (anything beyond the flat store).
    pub fn enabled(&self) -> bool {
        self.cache.is_some() || self.compression || self.composed_prefetch
    }

    /// Enables the SSD cache tier with default sizing.
    pub fn with_cache(mut self) -> Self {
        self.cache = Some(CacheConfig::default());
        self
    }

    /// Enables modeled wire compression.
    pub fn with_compression(mut self) -> Self {
        self.compression = true;
        self
    }

    /// Enables composed-chain working-set prefetch.
    pub fn with_composed_prefetch(mut self) -> Self {
        self.composed_prefetch = true;
        self
    }

    /// Short human label for reports ("flat", "cache+compress", …).
    pub fn label(&self) -> String {
        if !self.enabled() {
            return "flat".to_string();
        }
        let mut parts = Vec::new();
        if self.cache.is_some() {
            parts.push("cache");
        }
        if self.compression {
            parts.push("compress");
        }
        if self.composed_prefetch {
            parts.push("composed");
        }
        parts.join("+")
    }
}

/// Counters for the storage hierarchy, reported on run results. Byte
/// counters follow the repo-wide accounting discipline (accumulated via
/// `store::accounting`, pinned loud on overflow). All *byte* fields that
/// feed reports are in the units their name says: `*_hit/miss_bytes` are
/// nominal (decompressed) bytes, `wire_bytes_*` are post-compression
/// on-the-wire bytes (equal to nominal when compression is off).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageStats {
    /// Reads served from the local SSD cache.
    pub cache_hits: u64,
    /// Reads that had to go to the object store.
    pub cache_misses: u64,
    /// Blobs admitted into the cache.
    pub cache_admits: u64,
    /// Blobs evicted to make room.
    pub cache_evictions: u64,
    /// Admissions refused (candidate weight below the victims it would
    /// displace, or blob larger than the cache).
    pub cache_rejects: u64,
    /// Nominal bytes served from the SSD tier.
    pub cache_hit_bytes: u64,
    /// Nominal bytes that missed and were fetched from the store.
    pub cache_miss_bytes: u64,
    /// Nominal bytes displaced by evictions.
    pub cache_evicted_bytes: u64,
    /// Post-compression bytes pulled over the network on misses.
    pub wire_bytes_downloaded: u64,
    /// Post-compression bytes pushed over the network on uploads.
    pub wire_bytes_uploaded: u64,
    /// CPU time spent compressing uploads, µs.
    pub compress_us: f64,
    /// CPU time spent decompressing fetched data, µs.
    pub decompress_us: f64,
    /// Restore downloads that used the composed working-set path.
    pub composed_prefetches: u64,
    /// Nominal bytes the composed path avoided downloading (full chain
    /// size minus the working set actually fetched).
    pub composed_bytes_saved: u64,
}

impl StorageStats {
    /// Folds `other` into `self` (for aggregating partitions or nodes).
    pub fn merge(&mut self, other: &StorageStats) {
        macro_rules! add {
            ($($counter:ident),* $(,)?) => {
                $(saturating_accumulate(stringify!($counter), &mut self.$counter, other.$counter);)*
            };
        }
        add! {
            cache_hits, cache_misses, cache_admits, cache_evictions, cache_rejects,
            cache_hit_bytes, cache_miss_bytes, cache_evicted_bytes,
            wire_bytes_downloaded, wire_bytes_uploaded, composed_prefetches, composed_bytes_saved,
        }
        self.compress_us += other.compress_us;
        self.decompress_us += other.decompress_us;
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    bytes: u64,
    weight: f64,
    seq: u64,
    /// Chain ancestors this blob composes over; resident ancestors are
    /// pinned (never evicted) while this entry is resident.
    ancestors: Vec<u64>,
}

/// Outcome of a cache admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmitOutcome {
    /// Whether the blob is now resident.
    pub admitted: bool,
    /// `(id, bytes)` of every entry evicted to make room.
    pub evicted: Vec<(u64, u64)>,
}

/// Capacity-bounded local-SSD blob cache with θ-weighted eviction.
///
/// Victims are chosen lowest `(weight, seq)` first among *unpinned*
/// entries — an entry is pinned while any resident entry lists it as a
/// chain ancestor, so a composed leaf never loses the deltas under it.
/// An admission is refused outright (no partial eviction) when the
/// candidate's weight does not dominate the victims it would displace.
#[derive(Debug, Clone)]
pub struct CacheTier {
    capacity: u64,
    used: u64,
    seq: u64,
    entries: BTreeMap<u64, CacheEntry>,
}

impl CacheTier {
    /// An empty cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        CacheTier {
            capacity,
            used: 0,
            seq: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Configured capacity, bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident blobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is resident.
    pub fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Resident size of `id`, if any.
    pub fn bytes_of(&self, id: u64) -> Option<u64> {
        self.entries.get(&id).map(|e| e.bytes)
    }

    /// Resident blob ids, ascending.
    pub fn resident_ids(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    /// Ids pinned right now: referenced as a chain ancestor by some
    /// *other* resident entry.
    pub fn pinned_ids(&self) -> BTreeSet<u64> {
        let mut pinned = BTreeSet::new();
        for (id, e) in &self.entries {
            for a in &e.ancestors {
                if a != id && self.entries.contains_key(a) {
                    pinned.insert(*a);
                }
            }
        }
        pinned
    }

    /// Number of resident entries pinning `id` — the blob's refcount in
    /// the cache's dependency graph.
    pub fn refcount(&self, id: u64) -> usize {
        self.entries
            .iter()
            .filter(|(eid, e)| **eid != id && e.ancestors.contains(&id))
            .count()
    }

    /// Refreshes recency and weight of a resident blob.
    pub fn touch(&mut self, id: u64, weight: f64) {
        self.seq += 1;
        if let Some(e) = self.entries.get_mut(&id) {
            e.weight = weight;
            e.seq = self.seq;
        }
    }

    /// Tries to admit `id` (`bytes` decompressed) with priority `weight`,
    /// recording `ancestors` as the chain blobs it composes over. Already
    /// resident blobs are touched instead. Admission either fits (possibly
    /// evicting strictly lower-weight unpinned victims) or is refused with
    /// the cache untouched — never a partial eviction.
    pub fn admit(&mut self, id: u64, bytes: u64, weight: f64, ancestors: &[u64]) -> AdmitOutcome {
        if self.entries.contains_key(&id) {
            self.touch(id, weight);
            return AdmitOutcome {
                admitted: true,
                evicted: Vec::new(),
            };
        }
        if bytes > self.capacity {
            return AdmitOutcome {
                admitted: false,
                evicted: Vec::new(),
            };
        }
        let mut victims: Vec<(u64, u64)> = Vec::new();
        let mut need = (self.used + bytes).saturating_sub(self.capacity);
        if need > 0 {
            let pinned = self.pinned_ids();
            let mut candidates: Vec<(&u64, &CacheEntry)> = self
                .entries
                .iter()
                .filter(|(eid, _)| !pinned.contains(eid))
                .collect();
            candidates.sort_by(|a, b| {
                a.1.weight
                    .total_cmp(&b.1.weight)
                    .then(a.1.seq.cmp(&b.1.seq))
            });
            for (eid, e) in candidates {
                if need == 0 {
                    break;
                }
                if e.weight > weight {
                    // Remaining victims are all at least this valuable:
                    // the candidate does not earn its slot.
                    break;
                }
                victims.push((*eid, e.bytes));
                need = need.saturating_sub(e.bytes);
            }
            if need > 0 {
                return AdmitOutcome {
                    admitted: false,
                    evicted: Vec::new(),
                };
            }
        }
        for (vid, _) in &victims {
            self.remove(*vid);
        }
        self.seq += 1;
        self.used += bytes;
        self.entries.insert(
            id,
            CacheEntry {
                bytes,
                weight,
                seq: self.seq,
                ancestors: ancestors.iter().copied().filter(|a| *a != id).collect(),
            },
        );
        AdmitOutcome {
            admitted: true,
            evicted: victims,
        }
    }

    /// Force-removes `id` (e.g. the blob was deleted from the backing
    /// store), returning its resident size. Unlike eviction this ignores
    /// pinning — a blob gone from the store cannot be kept warm.
    pub fn remove(&mut self, id: u64) -> Option<u64> {
        let e = self.entries.remove(&id)?;
        self.used -= e.bytes;
        Some(e.bytes)
    }
}

/// One priced read through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadPrice {
    /// Link the read traverses (SSD on hit, network on miss).
    pub model: TransferModel,
    /// Bytes billed on that link: nominal from SSD (decompressed at
    /// admission), wire bytes from the store.
    pub billed_bytes: u64,
    /// Decompression CPU charged for this read (0 on hits — the cache
    /// holds decompressed pages).
    pub decompress_us: f64,
    /// Whether the SSD tier served it.
    pub hit: bool,
}

/// A priced restore download (the provisioning-path fetch of a snapshot
/// or its composed working set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadPrice {
    /// Wall-clock µs for transfer plus any decompression.
    pub transfer_us: f64,
    /// Nominal bytes to account as downloaded (the working set under the
    /// composed path, the full chain otherwise) — callers feed this to
    /// `nominal_bytes_downloaded` so the byte-conservation law holds
    /// unchanged.
    pub accounted_nominal: u64,
    /// Whether the SSD tier served it.
    pub cache_hit: bool,
    /// Whether the composed working-set path was taken.
    pub composed: bool,
}

/// A restore-download pricing request.
#[derive(Debug, Clone, Copy)]
pub struct DownloadRequest<'a> {
    /// Leaf snapshot id.
    pub id: u64,
    /// Nominal bytes of the full composed chain.
    pub chain_nominal: u64,
    /// Number of chain links (1 = full snapshot).
    pub chain_len: usize,
    /// Content hash of the leaf payload (compression seed).
    pub seed: u64,
    /// θ-weight of the snapshot (cache admission priority).
    pub weight: f64,
    /// Recorded working set `(nominal_bytes, pages)`, when known.
    pub working_set: Option<(u64, usize)>,
    /// Chain ancestor ids under the leaf (pinned alongside it).
    pub ancestors: &'a [u64],
}

/// The pricing facade over cache + compression + composed prefetch.
///
/// Owns the object-store network link, the node-local [`CacheTier`] (if
/// configured) and the [`StorageStats`] for the run. All methods are
/// deterministic.
#[derive(Debug, Clone)]
pub struct StorageTier {
    policy: StoragePolicy,
    network: TransferModel,
    cache: Option<CacheTier>,
    stats: StorageStats,
}

impl StorageTier {
    /// Builds a tier for `policy` over the given object-store link.
    pub fn new(policy: StoragePolicy, network: TransferModel) -> Self {
        StorageTier {
            policy,
            network,
            cache: policy.cache.map(|c| CacheTier::new(c.capacity_bytes)),
            stats: StorageStats::default(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &StoragePolicy {
        &self.policy
    }

    /// The object-store network link misses are priced on.
    pub fn network(&self) -> &TransferModel {
        &self.network
    }

    /// Accumulated statistics — all zero under a disabled policy: the flat
    /// store is the baseline the tiers' counters are read against.
    pub fn stats(&self) -> StorageStats {
        if self.policy.enabled() {
            self.stats
        } else {
            StorageStats::default()
        }
    }

    /// Zeroes the statistics; the cache keeps its contents.
    pub fn reset_stats(&mut self) {
        self.stats = StorageStats::default();
    }

    /// The cache tier, if configured.
    pub fn cache(&self) -> Option<&CacheTier> {
        self.cache.as_ref()
    }

    /// Whether `id` is resident on the local SSD.
    pub fn resident(&self, id: u64) -> bool {
        self.cache.as_ref().is_some_and(|c| c.contains(id))
    }

    /// Wire size of `nominal` content bytes (identity without
    /// compression).
    pub fn wire_bytes(&self, nominal: u64, seed: u64) -> u64 {
        if self.policy.compression {
            compress::wire_bytes(nominal, seed)
        } else {
            nominal
        }
    }

    /// Modeled (de)compression CPU `cost` of `nominal` bytes, µs (0
    /// without compression).
    fn cpu_us(&self, cost: fn(u64) -> f64, nominal: u64) -> f64 {
        if self.policy.compression {
            cost(nominal)
        } else {
            0.0
        }
    }

    /// Prices a read of `nominal` bytes belonging to blob `id` and
    /// records hit/miss + wire statistics. The cache holds decompressed
    /// pages, so hits bill nominal bytes on the SSD link with no CPU
    /// cost; misses bill wire bytes on the network plus decompression.
    pub fn read(&mut self, id: u64, nominal: u64, seed: u64) -> ReadPrice {
        let hit = self.resident(id);
        let (model, bytes, decompress_us) = match self.policy.cache {
            Some(c) if hit => (c.ssd, nominal, 0.0),
            _ => {
                let cpu_us = self.cpu_us(compress::decompress_us, nominal);
                (self.network, self.wire_bytes(nominal, seed), cpu_us)
            }
        };
        let s = &mut self.stats;
        if hit {
            saturating_accumulate("cache_hits", &mut s.cache_hits, 1);
            saturating_accumulate("cache_hit_bytes", &mut s.cache_hit_bytes, nominal);
        } else {
            saturating_accumulate("cache_misses", &mut s.cache_misses, 1);
            saturating_accumulate("cache_miss_bytes", &mut s.cache_miss_bytes, nominal);
            saturating_accumulate("wire_bytes_downloaded", &mut s.wire_bytes_downloaded, bytes);
            s.decompress_us += decompress_us;
        }
        ReadPrice {
            model,
            billed_bytes: bytes,
            decompress_us,
            hit,
        }
    }

    /// Prices the provisioning-path download of a restore target.
    ///
    /// Non-composed: a cache hit reads the whole image from SSD in one
    /// batched request; a miss walks the chain serially over the network
    /// (each delta frame names its parent) on wire bytes, then
    /// decompresses. Composed (policy on + working set known): only the
    /// composed chain's touched pages move, in one batched request —
    /// per-page newest-writer resolution is already done by the page
    /// index, so no serial walk and no per-link latency. The fetched
    /// image is admitted to the cache with the snapshot's θ-weight.
    pub fn price_restore_download(&mut self, req: DownloadRequest<'_>) -> DownloadPrice {
        let composed_ws = req.working_set.filter(|_| self.policy.composed_prefetch);
        let composed = composed_ws.is_some();
        let (nominal, blobs) = match composed_ws {
            Some((ws_bytes, pages)) => (ws_bytes.min(req.chain_nominal), pages.max(1)),
            None => (req.chain_nominal, req.chain_len.max(1)),
        };
        let price = self.read(req.id, nominal, req.seed);
        let transfer_us = if price.hit || composed {
            price.model.batched_transfer_time(price.billed_bytes, blobs)
        } else {
            price.model.chained_transfer_time(price.billed_bytes, blobs)
        };
        if composed {
            let (s, saved) = (&mut self.stats, req.chain_nominal.saturating_sub(nominal));
            saturating_accumulate("composed_prefetches", &mut s.composed_prefetches, 1);
            saturating_accumulate("composed_bytes_saved", &mut s.composed_bytes_saved, saved);
        }
        if !price.hit {
            self.admit(req.id, nominal, req.weight, req.ancestors);
        }
        DownloadPrice {
            transfer_us: transfer_us.as_micros() as f64 + price.decompress_us,
            accounted_nominal: nominal,
            cache_hit: price.hit,
            composed,
        }
    }

    /// Prices a checkpoint upload of `nominal` bytes: compression CPU (if
    /// enabled) plus wire bytes over the network link. The fresh blob is
    /// admitted write-through — the checkpointing node just held it.
    /// Returns wall-clock µs; nominal upload accounting is unchanged and
    /// stays with the caller.
    pub fn price_upload(&mut self, id: u64, nominal: u64, seed: u64, weight: f64) -> f64 {
        let wire = self.wire_bytes(nominal, seed);
        let compress_us = self.cpu_us(compress::compress_us, nominal);
        let s = &mut self.stats;
        saturating_accumulate("wire_bytes_uploaded", &mut s.wire_bytes_uploaded, wire);
        s.compress_us += compress_us;
        self.admit(id, nominal, weight, &[]);
        self.network.transfer_time(wire).as_micros() as f64 + compress_us
    }

    /// Prices fetching a peer node's copy of a restored image (`nominal`
    /// bytes, a `chain_len`-link delta chain) over `remote`. The flat store
    /// re-walks the chain serially across the cluster link, one latency
    /// per link; any enabled tier fetches the composed image as one
    /// batched request on wire bytes (the per-page resolution already
    /// collapsed the chain). Pure: whether the fetch happens (the access
    /// may be a local hit) is the blob directory's call; admit separately
    /// on a miss.
    pub fn price_remote_fetch(
        &self,
        nominal: u64,
        chain_len: usize,
        seed: u64,
        remote: &TransferModel,
    ) -> SimDuration {
        if self.policy.enabled() {
            remote.batched_transfer_time(self.wire_bytes(nominal, seed), 1)
        } else {
            remote.chained_transfer_time(nominal, chain_len.max(1))
        }
    }

    /// Admits `id` into the cache (if configured), recording stats.
    pub fn admit(&mut self, id: u64, nominal: u64, weight: f64, ancestors: &[u64]) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        let outcome = cache.admit(id, nominal, weight, ancestors);
        let s = &mut self.stats;
        if outcome.admitted {
            saturating_accumulate("cache_admits", &mut s.cache_admits, 1);
        } else {
            saturating_accumulate("cache_rejects", &mut s.cache_rejects, 1);
        }
        for (_, bytes) in outcome.evicted {
            saturating_accumulate("cache_evictions", &mut s.cache_evictions, 1);
            saturating_accumulate("cache_evicted_bytes", &mut s.cache_evicted_bytes, bytes);
        }
    }

    /// Drops `id` from the cache — the backing blob was deleted from the
    /// pool, so SSD residency must not outlive it.
    pub fn release(&mut self, id: u64) {
        if let Some(cache) = self.cache.as_mut() {
            cache.remove(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels_and_enablement() {
        assert!(!StoragePolicy::disabled().enabled());
        assert_eq!(StoragePolicy::disabled().label(), "flat");
        let p = StoragePolicy::disabled().with_cache().with_compression();
        assert!(p.enabled());
        assert_eq!(p.label(), "cache+compress");
        assert_eq!(
            StoragePolicy::disabled().with_composed_prefetch().label(),
            "composed"
        );
    }

    #[test]
    fn cache_admits_within_capacity_and_tracks_usage() {
        let mut c = CacheTier::new(100);
        assert!(c.admit(1, 60, 1.0, &[]).admitted);
        assert!(c.admit(2, 40, 1.0, &[]).admitted);
        assert_eq!(c.used(), 100);
        assert_eq!(c.len(), 2);
        assert!(c.contains(1) && c.contains(2));
        // Larger than capacity is refused outright.
        assert!(!c.admit(3, 101, 9.0, &[]).admitted);
    }

    #[test]
    fn eviction_prefers_lowest_weight_then_oldest() {
        let mut c = CacheTier::new(100);
        c.admit(1, 50, 0.2, &[]);
        c.admit(2, 50, 0.9, &[]);
        let out = c.admit(3, 50, 0.5, &[]);
        assert!(out.admitted);
        assert_eq!(out.evicted, vec![(1, 50)]);
        assert!(c.contains(2) && c.contains(3) && !c.contains(1));
    }

    #[test]
    fn low_weight_candidate_is_rejected_not_partially_admitted() {
        let mut c = CacheTier::new(100);
        c.admit(1, 50, 0.8, &[]);
        c.admit(2, 50, 0.9, &[]);
        let out = c.admit(3, 50, 0.1, &[]);
        assert!(!out.admitted);
        assert!(out.evicted.is_empty());
        assert_eq!(c.used(), 100, "reject leaves the cache untouched");
    }

    #[test]
    fn pinned_chain_ancestors_survive_eviction_pressure() {
        let mut c = CacheTier::new(100);
        c.admit(10, 40, 0.1, &[]); // parent delta, low weight
        c.admit(11, 40, 0.9, &[10]); // leaf pins 10
        assert_eq!(c.pinned_ids().into_iter().collect::<Vec<_>>(), vec![10]);
        assert_eq!(c.refcount(10), 1);
        // Without pinning, 10 (weight 0.1 < 0.5) would be the victim;
        // pinned, it is skipped, and the only other victim (the leaf,
        // weight 0.9) outweighs the candidate — admission is refused.
        let out = c.admit(12, 40, 0.5, &[]);
        assert!(!out.admitted);
        assert!(c.contains(10));
        // Remove the leaf: 10 unpins and can now be displaced.
        c.remove(11);
        assert!(c.pinned_ids().is_empty());
        let out = c.admit(12, 80, 0.5, &[]);
        assert!(out.admitted);
        assert!(!c.contains(10));
    }

    #[test]
    fn tier_read_prices_hit_on_ssd_and_miss_on_network() {
        let policy = StoragePolicy::disabled().with_cache().with_compression();
        let mut t = StorageTier::new(policy, TransferModel::default());
        let miss = t.read(7, 1 << 20, 42);
        assert!(!miss.hit);
        assert_eq!(miss.billed_bytes, compress::wire_bytes(1 << 20, 42));
        assert!(miss.decompress_us > 0.0);
        t.admit(7, 1 << 20, 1.0, &[]);
        let hit = t.read(7, 1 << 20, 42);
        assert!(hit.hit);
        assert_eq!(hit.billed_bytes, 1 << 20, "SSD serves decompressed bytes");
        assert_eq!(hit.decompress_us, 0.0);
        assert_eq!(t.stats().cache_hits, 1);
        assert_eq!(t.stats().cache_misses, 1);
        assert_eq!(t.stats().cache_hit_bytes, 1 << 20);
        assert_eq!(
            t.stats().wire_bytes_downloaded,
            compress::wire_bytes(1 << 20, 42)
        );
    }

    #[test]
    fn composed_download_accounts_working_set_only() {
        let policy = StoragePolicy::disabled()
            .with_cache()
            .with_composed_prefetch();
        let mut t = StorageTier::new(policy, TransferModel::default());
        let price = t.price_restore_download(DownloadRequest {
            id: 3,
            chain_nominal: 10 << 20,
            chain_len: 4,
            seed: 9,
            weight: 1.0,
            working_set: Some((2 << 20, 64)),
            ancestors: &[],
        });
        assert!(price.composed);
        assert_eq!(price.accounted_nominal, 2 << 20);
        assert_eq!(t.stats().composed_prefetches, 1);
        assert_eq!(t.stats().composed_bytes_saved, 8 << 20);
        // Second restore of the same target: SSD hit, cheaper still.
        let again = t.price_restore_download(DownloadRequest {
            id: 3,
            chain_nominal: 10 << 20,
            chain_len: 4,
            seed: 9,
            weight: 1.0,
            working_set: Some((2 << 20, 64)),
            ancestors: &[],
        });
        assert!(again.cache_hit);
        assert!(again.transfer_us < price.transfer_us);
    }

    #[test]
    fn disabled_flags_price_exactly_like_the_flat_store() {
        // A tier with everything off is the flat store: every transfer it
        // prices is the legacy formula bit for bit, and it reports no
        // counters.
        let flat = TransferModel::default();
        let mut t = StorageTier::new(StoragePolicy::disabled(), flat);
        let price = t.price_restore_download(DownloadRequest {
            id: 1,
            chain_nominal: 5_000_000,
            chain_len: 4,
            seed: 77,
            weight: 0.0,
            working_set: None,
            ancestors: &[],
        });
        let legacy = flat.chained_transfer_time(5_000_000, 4);
        assert_eq!(price.transfer_us, legacy.as_micros() as f64);
        assert_eq!(price.accounted_nominal, 5_000_000);
        assert!(!price.cache_hit && !price.composed);
        // Upload: nominal bytes over the link, no compression CPU.
        let upload = t.price_upload(2, 3_000_000, 77, 0.9);
        assert_eq!(upload, flat.transfer_time(3_000_000).as_micros() as f64);
        // Prefetch and fault reads: nominal bytes on the network link with
        // no decompression — also right after the upload: nothing caches.
        let read = t.read(2, 1 << 18, 77);
        let expect = ReadPrice {
            model: flat,
            billed_bytes: 1 << 18,
            decompress_us: 0.0,
            hit: false,
        };
        assert_eq!(read, expect);
        // Cross-node fetch: the serial chain walk over the remote link,
        // where any enabled tier fetches the composed image in one batch.
        let remote = TransferModel::from_gbps(500.0, 1.0);
        let fetch = t.price_remote_fetch(5_000_000, 4, 77, &remote);
        assert_eq!(fetch, remote.chained_transfer_time(5_000_000, 4));
        let cached = StorageTier::new(StoragePolicy::disabled().with_cache(), flat);
        let batched = cached.price_remote_fetch(5_000_000, 4, 77, &remote);
        assert_eq!(batched, remote.batched_transfer_time(5_000_000, 1));
        assert_eq!(t.stats(), StorageStats::default());
    }

    #[test]
    fn upload_prices_wire_bytes_plus_compression_cpu() {
        let policy = StoragePolicy::disabled().with_compression();
        let mut t = StorageTier::new(policy, TransferModel::default());
        let nominal = 5 << 20;
        let us = t.price_upload(9, nominal, 123, 0.5);
        let wire = compress::wire_bytes(nominal, 123);
        let expect = TransferModel::default().transfer_time(wire).as_micros() as f64
            + compress::compress_us(nominal);
        assert_eq!(us, expect);
        assert_eq!(t.stats().wire_bytes_uploaded, wire);
        assert!(t.stats().compress_us > 0.0);
    }

    #[test]
    fn release_drops_residency() {
        let mut t = StorageTier::new(
            StoragePolicy::disabled().with_cache(),
            TransferModel::default(),
        );
        t.admit(4, 1024, 1.0, &[]);
        assert!(t.resident(4));
        t.release(4);
        assert!(!t.resident(4));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = StorageStats {
            cache_hits: 1,
            cache_hit_bytes: 10,
            wire_bytes_downloaded: 5,
            compress_us: 1.5,
            ..StorageStats::default()
        };
        let b = StorageStats {
            cache_hits: 2,
            cache_hit_bytes: 20,
            wire_bytes_downloaded: 7,
            compress_us: 0.5,
            composed_prefetches: 3,
            ..StorageStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_hit_bytes, 30);
        assert_eq!(a.wire_bytes_downloaded, 12);
        assert_eq!(a.compress_us, 2.0);
        assert_eq!(a.composed_prefetches, 3);
    }
}
